"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Every operation records a backward closure on the output tensor; calling
:func:`backward` on a scalar walks the recorded graph in reverse topological
order and accumulates gradients with a fixed, insertion-ordered schedule so
repeated runs are bit-identical.

Also home to the Adam optimizer and spectral normalization, since both act
directly on parameter tensors.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

Array = np.ndarray


class Tensor:
    """A dense float64 array, optionally participating in the gradient tape.

    ``data`` is stored row-major (C order). ``grad`` is allocated lazily on
    first accumulation during :func:`backward`. Tensors are treated as
    immutable once created; only the optimizer mutates parameter data.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.requires_grad = requires_grad
        self.grad: Array | None = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A view of the same data outside the tape."""
        return Tensor(self.data)

    def grad_array(self) -> Array:
        """The accumulated gradient, or zeros if this tensor was unreachable."""
        if self.grad is None:
            return np.zeros_like(self.data)
        return self.grad

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other) if isinstance(other, Tensor) else addc(self, other)

    def __radd__(self, other):
        return addc(self, other)

    def __sub__(self, other):
        return sub(self, other) if isinstance(other, Tensor) else addc(self, -other)

    def __mul__(self, other):
        return mul(self, other) if isinstance(other, Tensor) else mulc(self, other)

    def __rmul__(self, other):
        return mulc(self, other)

    def __neg__(self):
        return mulc(self, -1.0)

    def __truediv__(self, other):
        return div(self, other) if isinstance(other, Tensor) else mulc(self, 1.0 / other)


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def constant(data) -> Tensor:
    return Tensor(data)


def _accumulate(t: Tensor, delta: Array) -> None:
    if t.grad is None:
        t.grad = np.array(delta)  # copy: delta may alias another grad or a view
    else:
        t.grad += delta


def _accumulate_owned(t: Tensor, delta: Array) -> None:
    """Accumulate a freshly computed array the caller will not reuse.

    Skips the zero-init allocation on first touch; callers must never pass a
    view of another tensor's data or gradient.
    """
    if t.grad is None:
        t.grad = delta
    else:
        t.grad += delta


def _result(data, parents, backward_fn) -> Tensor:
    """Wrap op output; record the tape node only if some parent needs grads."""
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward_fn)
    return Tensor(data)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every reachable requires_grad tensor.

    ``loss`` must be a scalar (shape ``()``). Accumulation order is the
    reverse of a depth-first post-order over parents in insertion order,
    which makes gradient values bit-reproducible across runs.
    """
    if loss.data.shape != ():
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        # reversed so that parents are visited in insertion order
        for p in reversed(node._parents):
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# elementwise and arithmetic ops
# ---------------------------------------------------------------------------


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g)

    return _result(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, -g)

    return _result(a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")

    def bwd(g):
        if a.requires_grad:
            _accumulate_owned(a, g * b.data)
        if b.requires_grad:
            _accumulate_owned(b, g * a.data)

    return _result(a.data * b.data, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "div")

    def bwd(g):
        if a.requires_grad:
            _accumulate_owned(a, g / b.data)
        if b.requires_grad:
            _accumulate_owned(b, -g * a.data / (b.data * b.data))

    return _result(a.data / b.data, (a, b), bwd)


def addc(a: Tensor, c: float) -> Tensor:
    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g)

    return _result(a.data + c, (a,), bwd)


def mulc(a: Tensor, c: float) -> Tensor:
    def bwd(g):
        if a.requires_grad:
            _accumulate_owned(a, g * c)

    return _result(a.data * c, (a,), bwd)


def absolute(a: Tensor) -> Tensor:
    sign = np.sign(a.data)

    def bwd(g):
        if a.requires_grad:
            _accumulate_owned(a, g * sign)

    return _result(np.abs(a.data), (a,), bwd)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def bwd(g):
        if a.requires_grad:
            _accumulate_owned(a, g * mask)

    return _result(np.where(mask, a.data, 0.0), (a,), bwd)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    factor = np.where(a.data > 0, 1.0, slope)

    def bwd(g):
        if a.requires_grad:
            _accumulate_owned(a, g * factor)

    return _result(a.data * factor, (a,), bwd)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def bwd(g):
        if a.requires_grad:
            _accumulate_owned(a, g * (1.0 - out * out))

    return _result(out, (a,), bwd)


def softplus(a: Tensor) -> Tensor:
    out = np.logaddexp(0.0, a.data)
    sigmoid = 0.5 * (1.0 + np.tanh(0.5 * a.data))

    def bwd(g):
        if a.requires_grad:
            _accumulate_owned(a, g * sigmoid)

    return _result(out, (a,), bwd)


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)

    def bwd(g):
        if a.requires_grad:
            _accumulate_owned(a, g * 0.5 / out)

    return _result(out, (a,), bwd)


def sdiv(a: Tensor, s: Tensor) -> Tensor:
    """Divide a tensor by a scalar tensor (shape ``()``)."""
    if s.data.shape != ():
        raise ValueError(f"sdiv: scalar operand must have shape (), got {s.data.shape}")

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g / s.data)
        if s.requires_grad:
            _accumulate(s, np.array(-(g * a.data).sum() / (s.data * s.data)))

    return _result(a.data / s.data, (a, s), bwd)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    src_shape = a.shape

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g.reshape(src_shape))

    return _result(a.data.reshape(shape), (a,), bwd)


def concat_channels(parts: list[Tensor]) -> Tensor:
    """Concatenate [C,H,W] tensors along the channel axis."""
    sizes = [p.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                _accumulate(p, g[lo:hi])

    return _result(np.concatenate([p.data for p in parts], axis=0), tuple(parts), bwd)


def flip_horizontal(a: Tensor) -> Tensor:
    """Reverse the last (column) axis."""

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g[..., ::-1])

    return _result(np.ascontiguousarray(a.data[..., ::-1]), (a,), bwd)


def broadcast_chan(v: Tensor, height: int, width: int) -> Tensor:
    """Broadcast a [C] vector to a constant-per-channel [C,H,W] map."""
    if v.ndim != 1:
        raise ValueError(f"broadcast_chan expects a 1-D tensor, got shape {v.shape}")

    def bwd(g):
        if v.requires_grad:
            _accumulate_owned(v, g.sum(axis=(1, 2)))

    data = np.broadcast_to(v.data[:, None, None], (v.shape[0], height, width)).copy()
    return _result(data, (v,), bwd)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def sum_all(a: Tensor) -> Tensor:
    def bwd(g):
        if a.requires_grad:
            _accumulate_owned(a, np.full_like(a.data, float(g)))

    return _result(np.array(a.data.sum()), (a,), bwd)


def mean_all(a: Tensor) -> Tensor:
    n = a.size

    def bwd(g):
        if a.requires_grad:
            _accumulate_owned(a, np.full_like(a.data, float(g) / n))

    return _result(np.array(a.data.mean()), (a,), bwd)


def channel_mean(a: Tensor) -> Tensor:
    """Per-channel spatial mean of a [C,H,W] tensor, shape [C]."""
    if a.ndim != 3:
        raise ValueError(f"channel_mean expects [C,H,W], got shape {a.shape}")
    n = a.shape[1] * a.shape[2]

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, np.broadcast_to(g[:, None, None] / n, a.shape))

    return _result(a.data.mean(axis=(1, 2)), (a,), bwd)


def sum_channels(a: Tensor) -> Tensor:
    """Per-pixel sum over the channel axis of a [C,H,W] tensor, shape [H,W]."""
    if a.ndim != 3:
        raise ValueError(f"sum_channels expects [C,H,W], got shape {a.shape}")

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, np.broadcast_to(g[None, :, :], a.shape))

    return _result(a.data.sum(axis=0), (a,), bwd)


def mul_spatial(a: Tensor, s: Tensor) -> Tensor:
    """Scale every channel of [C,H,W] ``a`` by the [H,W] map ``s``."""
    if a.ndim != 3 or s.shape != a.shape[1:]:
        raise ValueError(f"mul_spatial: incompatible shapes {a.shape} and {s.shape}")

    def bwd(g):
        if a.requires_grad:
            _accumulate_owned(a, g * s.data[None])
        if s.requires_grad:
            _accumulate_owned(s, (g * a.data).sum(axis=0))

    return _result(a.data * s.data[None], (a, s), bwd)


def pixel_norm(a: Tensor, eps: float = 1e-8) -> Tensor:
    """L2-normalize each pixel's channel vector of a [C,H,W] tensor."""
    sumsq = sum_channels(mul(a, a))
    inv = div(constant(np.ones(a.shape[1:])), sqrt(addc(sumsq, eps)))
    return mul_spatial(a, inv)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def softmax(a: Tensor, axis: int) -> Tensor:
    """Max-stabilized softmax along ``axis``.

    Entries of ``-inf`` act as masks and receive zero weight; a slice that is
    entirely masked returns all zeros instead of raising.
    """
    if not -a.ndim <= axis < a.ndim:
        raise ValueError(f"softmax: axis {axis} invalid for shape {a.shape}")
    m = np.max(a.data, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(a.data - m_safe)
    denom = e.sum(axis=axis, keepdims=True)
    out = np.where(denom > 0, e / np.where(denom > 0, denom, 1.0), 0.0)

    def bwd(g):
        if a.requires_grad:
            inner = (g * out).sum(axis=axis, keepdims=True)
            _accumulate_owned(a, out * (g - inner))

    return _result(out, (a,), bwd)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} x {b.shape}")

    def bwd(g):
        if a.requires_grad:
            _accumulate_owned(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate_owned(b, a.data.T @ g)

    return _result(a.data @ b.data, (a, b), bwd)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0, bias: Tensor | None = None) -> Tensor:
    """2-D cross-correlation of [C_in,H,W] with [C_out,C_in,kh,kw], zero padding.

    Output is [C_out, H', W'] with H' = floor((H + 2*padding - kh)/stride) + 1,
    plus the optional [C_out] ``bias`` per channel. Differentiable with
    respect to input, kernel and bias.

    The zero-padded input is split into ``stride**2`` phase images: phase
    (a, b) holds the padded pixels (a + stride*r, b + stride*q). Each is
    stored flat with row pitch ``wq = W' + (kw-1)//stride``, so tap (di, dj)
    reads phase (di % stride, dj % stride) at the constant flat offset
    (di//stride)*wq + dj//stride, and its H'*wq-long window is a plain view.
    The forward is one matmul per tap on that view; the ``wq - W'`` spare
    columns of each output row read the next row and are dropped. The
    backward runs the same loop with zeros in the spare columns of the
    output gradient, so the kernel gradient is one matmul per tap and the
    input gradient is added into the phase images at the same views.
    """
    if x.ndim != 3 or kernel.ndim != 4:
        raise ValueError(f"conv2d: expected [C,H,W] and [O,C,kh,kw], got {x.shape}, {kernel.shape}")
    c_in, h, w = x.shape
    c_out, c_k, kh, kw = kernel.shape
    if c_k != c_in:
        raise ValueError(f"conv2d: kernel expects {c_k} input channels, input has {c_in}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv2d: kernel size must be odd, got {kh}x{kw}")
    if stride < 1 or padding < 0:
        raise ValueError(f"conv2d: invalid stride {stride} or padding {padding}")
    if bias is not None and bias.shape != (c_out,):
        raise ValueError(f"conv2d: bias shape {bias.shape} does not match {c_out} output channels")
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    if h_out <= 0 or w_out <= 0:
        raise ValueError(f"conv2d: empty output for input {x.shape} and kernel {kernel.shape}")

    s = stride
    hq = h_out + (kh - 1) // s
    wq = w_out + (kw - 1) // s
    n = h_out * wq
    # phase (a, b) of the padded input xp is xp[:, a::s, b::s]; one spare phase
    # row holds the last tap's window, which runs (kw-1)//s past row hq-1
    xp = np.zeros((c_in, s * (hq + 1), s * wq), dtype=np.float64)
    xp[:, padding : padding + h, padding : padding + w] = x.data[:, :, : s * wq - padding]
    flat = xp.reshape(c_in, hq + 1, s, wq, s).transpose(2, 4, 0, 1, 3).reshape(s, s, c_in, (hq + 1) * wq)
    taps = []  # index of each tap's [C_in, n] window in flat, (di, dj) row-major
    for di in range(kh):
        for dj in range(kw):
            off = (di // s) * wq + dj // s
            taps.append((di % s, dj % s, slice(None), slice(off, off + n)))
    k_taps = np.ascontiguousarray(kernel.data.transpose(2, 3, 0, 1)).reshape(kh * kw, c_out, c_in)

    acc = np.zeros((c_out, n), dtype=np.float64)
    for k_tap, tap in zip(k_taps, taps):
        acc += k_tap @ flat[tap]
    out = acc.reshape(c_out, h_out, wq)[:, :, :w_out]
    out = out + bias.data[:, None, None] if bias is not None else np.ascontiguousarray(out)

    def bwd(g):
        if bias is not None and bias.requires_grad:
            _accumulate_owned(bias, g.sum(axis=(1, 2)))
        g_pad = np.zeros((c_out, h_out, wq), dtype=np.float64)
        g_pad[:, :, :w_out] = g
        g_pad = g_pad.reshape(c_out, n)
        if kernel.requires_grad:
            dk = np.empty((kh * kw, c_out, c_in), dtype=np.float64)
            for dk_tap, tap in zip(dk, taps):
                np.matmul(g_pad, flat[tap].T, out=dk_tap)
            _accumulate_owned(kernel, np.ascontiguousarray(dk.reshape(kh, kw, c_out, c_in).transpose(2, 3, 0, 1)))
        if x.requires_grad:
            dflat = np.zeros_like(flat)
            for k_tap, tap in zip(k_taps, taps):
                dflat[tap] += k_tap.T @ g_pad
            dxp = dflat.reshape(s, s, c_in, hq + 1, wq).transpose(2, 3, 0, 4, 1).reshape(c_in, s * (hq + 1), s * wq)
            dx = np.zeros_like(x.data)
            dx[:, :, : s * wq - padding] = dxp[:, padding : padding + h, padding : padding + w]
            _accumulate_owned(x, dx)

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return _result(out, parents, bwd)


# ---------------------------------------------------------------------------
# pooling / resampling
# ---------------------------------------------------------------------------


def box_filter3(a: Tensor) -> Tensor:
    """3x3 average pool, stride 1, same size.

    Border windows average only the in-image neighbors (count-normalized),
    so the output of a constant input is that same constant everywhere.
    """
    if a.ndim != 3:
        raise ValueError(f"box_filter3 expects [C,H,W], got shape {a.shape}")
    c, h, w = a.shape

    counts = np.ones((h, w))
    counts_sum = _boxsum(counts[None, :, :])[0]

    out = _boxsum(a.data) / counts_sum

    def bwd(g):
        if a.requires_grad:
            _accumulate_owned(a, _boxsum(g / counts_sum))

    return _result(out, (a,), bwd)


def _boxsum(x: Array) -> Array:
    c, h, w = x.shape
    xp = np.zeros((c, h + 2, w + 2), dtype=np.float64)
    xp[:, 1 : 1 + h, 1 : 1 + w] = x
    out = np.zeros((c, h, w), dtype=np.float64)
    for di in range(3):
        for dj in range(3):
            out += xp[:, di : di + h, dj : dj + w]
    return out


def _lerp_up_axis(x: Array, axis: int) -> Array:
    """Double one axis with weights (0.25, 0.75) / (0.75, 0.25), clamped borders.

    Output o samples the input at (o + 0.5)/2 - 0.5, the half-pixel-centred
    bilinear grid: out[2i] = 0.25 x[i-1] + 0.75 x[i], out[2i+1] = 0.75 x[i]
    + 0.25 x[i+1].
    """
    x = np.moveaxis(x, axis, -1)
    prev = np.concatenate([x[..., :1], x[..., :-1]], axis=-1)
    nxt = np.concatenate([x[..., 1:], x[..., -1:]], axis=-1)
    out = np.empty(x.shape[:-1] + (2 * x.shape[-1],), dtype=np.float64)
    out[..., 0::2] = 0.75 * x + 0.25 * prev
    out[..., 1::2] = 0.75 * x + 0.25 * nxt
    return np.moveaxis(out, -1, axis)


def _lerp_up_axis_transpose(g: Array, axis: int) -> Array:
    """Adjoint of :func:`_lerp_up_axis` along ``axis``."""
    g = np.moveaxis(g, axis, -1)
    ge = g[..., 0::2]
    go = g[..., 1::2]
    dx = 0.75 * (ge + go)
    # x[i] also feeds out[2(i+1)] with 0.25 (as prev) and out[2(i-1)+1] (as nxt)
    dx[..., :-1] += 0.25 * ge[..., 1:]
    dx[..., 0] += 0.25 * ge[..., 0]
    dx[..., 1:] += 0.25 * go[..., :-1]
    dx[..., -1] += 0.25 * go[..., -1]
    return np.moveaxis(dx, -1, axis)


def upsample_bilinear2(a: Tensor) -> Tensor:
    """Bilinear 2x upsample of a [C,H,W] tensor (half-pixel-centred grid)."""
    if a.ndim != 3:
        raise ValueError(f"upsample_bilinear2 expects [C,H,W], got shape {a.shape}")
    out = _lerp_up_axis(_lerp_up_axis(a.data, 1), 2)

    def bwd(g):
        if a.requires_grad:
            _accumulate_owned(a, _lerp_up_axis_transpose(_lerp_up_axis_transpose(g, 2), 1))

    return _result(out, (a,), bwd)


def upsample_pow2(a: Tensor, factor: int) -> Tensor:
    """Repeated bilinear 2x upsampling for a power-of-two ``factor``."""
    if factor < 1 or (factor & (factor - 1)) != 0:
        raise ValueError(f"upsample factor must be a positive power of two, got {factor}")
    out = a
    while factor > 1:
        out = upsample_bilinear2(out)
        factor //= 2
    return out


# ---------------------------------------------------------------------------
# normalization helpers
# ---------------------------------------------------------------------------


def instance_norm(a: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-channel zero-mean unit-variance normalization over H,W."""
    c, h, w = a.shape
    mu = channel_mean(a)
    centered = sub(a, broadcast_chan(mu, h, w))
    var = channel_mean(mul(centered, centered))
    inv_std = div(constant(np.ones(c)), sqrt(addc(var, eps)))
    return mul(centered, broadcast_chan(inv_std, h, w))


def channel_stats(a: Tensor, eps: float = 1e-5) -> tuple[Tensor, Tensor]:
    """Per-channel (mean, std) over H,W; std includes ``eps`` under the root."""
    mu = channel_mean(a)
    centered = sub(a, broadcast_chan(mu, a.shape[1], a.shape[2]))
    var = channel_mean(mul(centered, centered))
    return mu, sqrt(addc(var, eps))


# ---------------------------------------------------------------------------
# Adam optimizer
# ---------------------------------------------------------------------------


class AdamState:
    """Bias-corrected Adam moments for a named parameter collection."""

    def __init__(
        self,
        params: dict[str, Tensor],
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.first_moment = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.second_moment = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.step_count = 0
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.learning_rate = learning_rate


def adam_step(params: dict[str, Tensor], grads: dict[str, Array], state: AdamState) -> None:
    """One in-place Adam update on every parameter in ``params``."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter '{name}'")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ValueError(f"adam_step: gradient shape {g.shape} != parameter shape {p.data.shape} for '{name}'")
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.data -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None


def collect_grads(params: dict[str, Tensor]) -> dict[str, Array]:
    return {k: p.grad_array() for k, p in params.items()}


# ---------------------------------------------------------------------------
# spectral normalization
# ---------------------------------------------------------------------------


class SpectralNormState:
    """Persistent left singular-vector estimate for one kernel."""

    def __init__(self, u_vector: Array, power_iterations_per_step: int = 1):
        if power_iterations_per_step < 1:
            raise ValueError("power_iterations_per_step must be positive")
        norm = np.linalg.norm(u_vector)
        if norm == 0:
            raise ValueError("u_vector must be nonzero")
        self.u_vector = np.asarray(u_vector, dtype=np.float64) / norm
        self.power_iterations_per_step = power_iterations_per_step

    @classmethod
    def for_kernel(cls, kernel_shape, rng: np.random.Generator, power_iterations_per_step: int = 1):
        u = rng.standard_normal(kernel_shape[0])
        return cls(u, power_iterations_per_step)


def spectral_normalize(kernel: Tensor, state: SpectralNormState, update: bool = True) -> Tensor:
    """Divide ``kernel`` by its power-iteration largest singular value.

    The kernel is viewed as a (out-channels x rest) matrix. The singular
    vectors act as constants on the tape, so gradients see sigma as the
    linear form u^T W v. A zero kernel is returned unchanged.
    """
    mat = kernel.data.reshape(kernel.shape[0], -1)
    if not np.any(mat):
        return kernel
    u = state.u_vector
    if update:
        for _ in range(state.power_iterations_per_step):
            v = mat.T @ u
            nv = np.linalg.norm(v)
            if nv < 1e-30:
                return kernel
            v /= nv
            u = mat @ v
            nu = np.linalg.norm(u)
            if nu < 1e-30:
                return kernel
            u /= nu
        state.u_vector = u
    v = mat.T @ u
    nv = np.linalg.norm(v)
    if nv < 1e-30:
        return kernel
    v /= nv
    rank1 = np.outer(u, v).reshape(kernel.shape)
    sigma = sum_all(mul(kernel, constant(rank1)))
    return sdiv(kernel, sigma)
