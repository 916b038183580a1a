"""Independent brute-force oracles the test suite checks the library against.

Everything here is written as plain nested loops or slice sums over the
defining sums, on purpose: no code is shared with the library
implementations. The exceptions: :func:`tape_arrays` and
:func:`tape_nbytes` measure the gradient tape itself,
:func:`dense_shifted_dot` and :func:`dense_band_matmul` keep the whole-row
shifted-op kernels that the blocked ones must match bit for bit, and
:func:`render_oracle` renders the library's own scene layers (their shapes
come from ``covers``) with the per-pixel gather that the window renderer
must match bit for bit.

:func:`constant_predictor` and :func:`sad_block_matcher` are learning-free
disparity references: a matcher that does no better than them has not
learned to match.
"""

import types

import numpy as np

from sca_stereo import autodiff as ad


def conv2d_oracle(x, kernel, stride=1, padding=0):
    c_in, h, w = x.shape
    c_out, _, kh, kw = kernel.shape
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((c_out, h_out, w_out))
    for o in range(c_out):
        for i_out in range(h_out):
            for j_out in range(w_out):
                acc = 0.0
                for c in range(c_in):
                    for di in range(kh):
                        for dj in range(kw):
                            src_i = i_out * stride + di - padding
                            src_j = j_out * stride + dj - padding
                            if 0 <= src_i < h and 0 <= src_j < w:
                                acc += x[c, src_i, src_j] * kernel[o, c, di, dj]
                out[o, i_out, j_out] = acc
    return out


def conv2d_input_grad_oracle(g, kernel, x_shape, stride=1, padding=0):
    """Gradient of sum(g * conv2d(x, kernel)) in x: each g[o,i,j] scatters K[o,c,di,dj] g[o,i,j]."""
    c_in, h, w = x_shape
    c_out, _, kh, kw = kernel.shape
    dx = np.zeros(x_shape)
    for o in range(c_out):
        for i_out in range(g.shape[1]):
            for j_out in range(g.shape[2]):
                for c in range(c_in):
                    for di in range(kh):
                        for dj in range(kw):
                            src_i = i_out * stride + di - padding
                            src_j = j_out * stride + dj - padding
                            if 0 <= src_i < h and 0 <= src_j < w:
                                dx[c, src_i, src_j] += kernel[o, c, di, dj] * g[o, i_out, j_out]
    return dx


def backward_warp_oracle(feature, offset):
    """out(c,j,i) = sum_k max(0, 1 - |i + offset(j,i) - k|) feature(c,j,k)."""
    c, h, w = feature.shape
    out = np.zeros_like(feature)
    for j in range(h):
        for i in range(w):
            pos = i + offset[j, i]
            for k in range(w):
                weight = max(0.0, 1.0 - abs(pos - k))
                if weight > 0:
                    out[:, j, i] += weight * feature[:, j, k]
    return out


def upsample_oracle(x, factor):
    """Repeated 2x bilinear steps: output o samples (o + 0.5)/2 - 0.5, borders clamped."""
    out = x
    while factor > 1:
        c, h, w = out.shape
        up = np.zeros((c, 2 * h, 2 * w))
        for oj in range(2 * h):
            for oi in range(2 * w):
                sj = (oj + 0.5) / 2 - 0.5
                si = (oi + 0.5) / 2 - 0.5
                j0, i0 = int(np.floor(sj)), int(np.floor(si))
                for j, wj in ((j0, 1 - (sj - j0)), (j0 + 1, sj - j0)):
                    for i, wi in ((i0, 1 - (si - i0)), (i0 + 1, si - i0)):
                        up[:, oj, oi] += wj * wi * out[:, min(max(j, 0), h - 1), min(max(i, 0), w - 1)]
        out = up
        factor //= 2
    return out


def box_filter3_oracle(x):
    """Sum of the nine shifted slices of the zero-padded input, over the count of in-image pixels."""
    c, h, w = x.shape
    padded = np.zeros((c, h + 2, w + 2))
    padded[:, 1 : 1 + h, 1 : 1 + w] = x
    inside = np.zeros((h + 2, w + 2))
    inside[1 : 1 + h, 1 : 1 + w] = 1.0
    total, count = np.zeros((c, h, w)), np.zeros((h, w))
    for di in range(3):
        for dj in range(3):
            total += padded[:, di : di + h, dj : dj + w]
            count += inside[di : di + h, dj : dj + w]
    return total / count


def downsample_avg2_oracle(x):
    """Mean of the four pixels of each 2x2 block."""
    return 0.25 * (x[:, 0::2, 0::2] + x[:, 1::2, 0::2] + x[:, 0::2, 1::2] + x[:, 1::2, 1::2])


def lr_occlusion_oracle(d_base, d_match, base_view):
    """Consistency mask: 1 where |D_b - warp(D_m, signed(D_b))| < 1."""
    h, w = d_base.shape
    sign = -1.0 if base_view == "left" else 1.0
    mask = np.zeros((h, w))
    for j in range(h):
        for i in range(w):
            pos = i + sign * d_base[j, i]
            warped = 0.0
            for k in range(w):
                weight = max(0.0, 1.0 - abs(pos - k))
                if weight > 0:
                    warped += weight * d_match[j, k]
            mask[j, i] = 1.0 if abs(d_base[j, i] - warped) < 1.0 else 0.0
    return mask


def visibility_oracle(d_base, d_match, base_view):
    """Forward-projection visibility on integer-disparity scenes.

    A base pixel is visible iff its match column lies inside the image and
    the matching view shows the same surface there.
    """
    h, w = d_base.shape
    sign = -1 if base_view == "left" else 1
    mask = np.zeros((h, w))
    for j in range(h):
        for i in range(w):
            k = i + sign * int(round(d_base[j, i]))
            if 0 <= k < w and d_match[j, k] == d_base[j, i]:
                mask[j, i] = 1.0
    return mask


def render_oracle(layers, h, w):
    """Composite scene layers back to front, each covered pixel gathering its own two texture knots and fraction.

    Returns ``(images, disparities)``: per view a float64 [3,H,W] image and [H,W] map.
    """
    cols = np.broadcast_to(np.arange(w, dtype=np.float64), (h, w))
    rows = np.broadcast_to(np.arange(h, dtype=np.float64)[:, None], (h, w))
    images, disparities = {}, {}
    for view in ("left", "right"):
        image = np.zeros((3, h, w))
        dmap = np.zeros((h, w))
        for layer in layers:
            world_x = cols if view == "left" else cols + layer.disparity
            mask = np.broadcast_to(layer.covers(world_x, rows), (h, w))
            if not mask.any():
                continue
            # piecewise-linear in x between knots at half-integer world positions
            u = world_x[mask] + layer.pad - 0.5
            t0 = np.floor(u).astype(np.int64)
            frac = u - t0
            t0 = np.clip(t0, 0, layer.texture.shape[2] - 2)
            r = rows[mask].astype(np.int64)
            a = layer.texture[:, r, t0]
            b = layer.texture[:, r, t0 + 1]
            image[:, mask] = a + frac[None] * (b - a)
            dmap[mask] = layer.disparity
        images[view], disparities[view] = image, dmap
    return images, disparities


def constant_predictor(split):
    """The median of every left-view disparity in ``split.samples``, as a constant map of their size."""
    maps = [sample.disparities["left"] for sample in split.samples]
    return np.full(maps[0].shape, np.median(np.stack(maps)))


def sad_block_matcher(left, right, d_max):
    """Left-view integer disparity in 0..d_max by winner-take-all over 5x5 sums of absolute differences.

    ``left`` and ``right`` are [C,H,W]. The cost of candidate d at (y, x) sums
    |left(c, y', x') - right(c, y', x' - d)| over channels and over the 5x5
    window around (y, x), counting only window pixels inside the image with
    x' - d >= 0; a candidate with x - d < 0 is excluded. Ties go to the
    smaller disparity.
    """
    _, h, w = left.shape
    costs = np.full((d_max + 1, h, w), np.inf)
    for d in range(d_max + 1):
        diff = np.zeros((h + 4, w + 4))
        diff[2 : 2 + h, 2 + d : 2 + w] = np.abs(left[:, :, d:] - right[:, :, : w - d]).sum(axis=0)
        window = np.zeros((h, w))
        for dy in range(5):
            for dx in range(5):
                window += diff[dy : dy + h, dx : dx + w]
        costs[d, :, d:] = window[:, d:]
    return np.argmin(costs, axis=0).astype(np.float64)


def sca_oracle(f_other, q, k, d_max, direction):
    """Double-loop epipolar attention: softmax over in-range candidates."""
    c_v, h, w = f_other.shape
    out = np.zeros_like(f_other)
    step = -1 if direction == "left_to_right" else 1
    for j in range(h):
        for i in range(w):
            logits = []
            cols = []
            for d in range(d_max + 1):
                col = i + step * d
                if 0 <= col < w:
                    logits.append(float(q[:, j, i] @ k[:, j, col]))
                    cols.append(col)
            if not cols:
                continue
            logits = np.array(logits)
            weights = np.exp(logits - logits.max())
            weights /= weights.sum()
            for weight, col in zip(weights, cols):
                out[:, j, i] += weight * f_other[:, j, col]
    return out


def correlation_oracle(f_left, f_right, d_max):
    c, h, w = f_left.shape
    out = np.zeros((d_max + 1, h, w))
    for d in range(d_max + 1):
        for j in range(h):
            for i in range(w):
                if i - d >= 0:
                    out[d, j, i] = float(f_left[:, j, i] @ f_right[:, j, i - d]) / c
    return out


def shifted_dot_oracle(a, b, d_max, direction):
    """Loop over offsets and columns: ``out(d,j,i) = a(:,j,i) . b(:,j,cand)``, 0 off the image."""
    c, h, w = a.shape
    step = -1 if direction == "left_to_right" else 1
    out = np.zeros((d_max + 1, h, w))
    for d in range(d_max + 1):
        for i in range(w):
            col = i + step * d
            if 0 <= col < w:
                out[d, :, i] = (a[:, :, i] * b[:, :, col]).sum(axis=0)
    return out


def shifted_gather_oracle(weights, values, direction):
    """Loop over offsets and columns: each query's candidate values weighted and summed."""
    _, h, w = weights.shape
    step = -1 if direction == "left_to_right" else 1
    out = np.zeros((values.shape[0], h, w))
    for d in range(weights.shape[0]):
        for i in range(w):
            col = i + step * d
            if 0 <= col < w:
                out[:, :, i] += weights[d, :, i] * values[:, :, col]
    return out


def shifted_scatter_oracle(weights, x, direction):
    """Loop over offsets and columns: each query's ``x`` weighted and added into its candidate."""
    _, h, w = weights.shape
    step = -1 if direction == "left_to_right" else 1
    out = np.zeros((x.shape[0], h, w))
    for d in range(weights.shape[0]):
        for i in range(w):
            col = i + step * d
            if 0 <= col < w:
                out[:, :, col] += weights[d, :, i] * x[:, :, i]
    return out


def _dense_diagonal(width, d, direction):
    """(query columns, flat positions in a row-major [W,W] matrix) of offset ``d``'s entries."""
    if direction == "left_to_right":
        return slice(d, width), slice(d * width, width * width, width + 1)  # (i, i-d)
    # (i, i+d) for i < W-d; further on the stride wraps to (i+1, i+d-W), so stop there
    return slice(0, width - d), slice(d, (width - d) * width, width + 1)


def dense_shifted_dot(a, b, d_max, direction):
    """The shifted dot product as one [H,W,C] @ [H,C,W] matmul per row, read off on its d_max+1 diagonals.

    The whole-row reference the blocked kernel must match bit for bit.
    """
    _, h, w = a.shape
    rows_a, rows_b = np.ascontiguousarray(a.transpose(1, 2, 0)), np.ascontiguousarray(b.transpose(1, 0, 2))
    dots = np.matmul(rows_a, rows_b).reshape(h, w * w)
    out = np.zeros((d_max + 1, h, w))
    for d in range(d_max + 1):
        qs, flat = _dense_diagonal(w, d, direction)
        out[d, :, qs] = dots[:, flat]
    return out


def dense_band_matmul(weights, x, direction, scatter):
    """Shifted gather (or scatter) as each row of ``x`` times a dense [W,W] band (or its transpose).

    ``band[j, i, cand(i, d)] = weights[d, j, i]``; the gather multiplies by
    its transpose, whose diagonals lie where the other direction's do. The
    whole-row reference the blocked kernels must match bit for bit.
    """
    _, h, w = weights.shape
    layout = ad.DIRECTIONS[ad.DIRECTIONS.index(direction) ^ (not scatter)]
    band = np.zeros((h, w * w))
    for d in range(weights.shape[0]):
        band[:, _dense_diagonal(w, d, layout)[1]] = weights[d, :, _dense_diagonal(w, d, direction)[0]]
    out = np.empty(x.shape)
    np.matmul(np.ascontiguousarray(x.transpose(1, 0, 2)), band.reshape(h, w, w), out=out.transpose(1, 0, 2))
    return out


def ssim_oracle(a, b, c1=0.01**2, c2=0.03**2):
    """Per-pixel SSIM from direct 3x3 windowed statistics (border-clipped)."""
    c, h, w = a.shape
    out = np.zeros_like(a)
    for ch in range(c):
        for j in range(h):
            for i in range(w):
                ya = []
                yb = []
                for dj in (-1, 0, 1):
                    for di in (-1, 0, 1):
                        jj, ii = j + dj, i + di
                        if 0 <= jj < h and 0 <= ii < w:
                            ya.append(a[ch, jj, ii])
                            yb.append(b[ch, jj, ii])
                ya = np.array(ya)
                yb = np.array(yb)
                mu_a, mu_b = ya.mean(), yb.mean()
                var_a = (ya * ya).mean() - mu_a**2
                var_b = (yb * yb).mean() - mu_b**2
                cov = (ya * yb).mean() - mu_a * mu_b
                out[ch, j, i] = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
                    (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
                )
    return out


def stereo_consistency_oracle(feats_by_view, images_by_view, disparities, masks):
    """Direct evaluation of the masked multi-scale consistency loss.

    ``feats_by_view[view]`` is a list of (array, factor) pairs already at
    full resolution (factor must be 1 here); images may be None.
    """
    total = 0.0
    for b, m in (("left", "right"), ("right", "left")):
        mask = masks[b]
        mask_sum = mask.sum()
        pairs = list(zip(feats_by_view[b], feats_by_view[m]))
        if images_by_view is not None:
            pairs.append(((images_by_view[b], 1), (images_by_view[m], 1)))
        sign = -1.0 if b == "left" else 1.0
        for (f_b, factor), (f_m, _) in pairs:
            assert factor == 1
            if mask_sum == 0:
                continue
            warped = backward_warp_oracle(f_m, sign * disparities[b])
            l1 = np.abs(f_b - warped).sum(axis=0)
            total += (l1 * mask).sum() / mask_sum
    return total


def smooth_rows_oracle(values, width=5):
    """Row-by-row running mean over ``width`` rows of a cumulative sum, edge rows repeated past the ends."""
    c, h, k = values.shape
    pad = width // 2
    padded = np.concatenate([values[:, :1].repeat(pad, 1), values, values[:, -1:].repeat(pad, 1)], axis=1)
    csum = np.cumsum(padded, axis=1)
    out = np.empty_like(values)
    for j in range(h):
        out[:, j] = (csum[:, j + width - 1] - (csum[:, j - 1] if j > 0 else 0)) / width
    return out


def smooth_l1_oracle(x):
    return np.where(np.abs(x) < 1.0, 0.5 * x * x, np.abs(x) - 0.5)


def tape_arrays(loss):
    """The distinct arrays that the backward closures on ``loss``'s tape hold, each as its base buffer.

    Walks the tape's nodes from ``loss`` along their parent links, and each
    node's closure through captured variables, default arguments, tuples,
    lists, dicts and tensors (their data, never their nodes). Every array
    counts once, as its base buffer, so views of a saved array add nothing.
    Leaves that require grad (parameters, inputs) are not counted: they
    live whether or not a tape holds them.
    """
    stack = [] if loss._node is None else [loss._node]
    seen, bases = set(), {}
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            bases[id(obj)] = obj
        elif isinstance(obj, ad._Node):
            stack.append(obj.backward)
            stack.extend(p for p in obj.parents if isinstance(p, ad._Node))
        elif isinstance(obj, ad.Tensor) and (obj._node is not None or not obj.requires_grad):
            stack.append(obj.data)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
    return list(bases.values())


def tape_nbytes(loss):
    """Bytes of the distinct arrays that the backward closures on ``loss``'s tape hold (:func:`tape_arrays`)."""
    return sum(a.nbytes for a in tape_arrays(loss))
