"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Every operation hands :func:`_result` its output and one vector-Jacobian
product per input: ``vjps[i](g)`` maps the output gradient ``g`` to input
i's contribution. A vjp returns ``g``, a view of ``g``, or a fresh array,
never a view of another tensor's data; :func:`_result` alone decides which
inputs need a gradient and accumulates every contribution, copying one that
aliases ``g`` or is read-only. Calling :func:`backward` on a scalar walks
the recorded graph in reverse topological order with a fixed,
insertion-ordered schedule, so repeated runs are bit-identical.

The tape is a graph of small :class:`_Node` objects, not of tensors. An op
output holds its node; the node links to its parents' nodes (a leaf parent
is linked as itself) and holds the op's backward closure. So the tape keeps
only what the vjps read: each op saves its operands, or less (a shape, a
sign mask, a sampling plan), and an op output that no vjp reads dies with
the caller's last reference to it. No op saves a derived copy of an
operand: :func:`conv2d` keeps its input, not the zero-padded phase images
its forward reads, and its kernel vjp rebuilds those when it runs, so
convs that read one input hold it once; a per-channel scale is a [C]
vector (:func:`mul_spatial`), never a broadcast [C,H,W] map.

Backward consumes the graph; ``detach()`` to reuse an output. Only leaves
(parameters and inputs that require grad) keep a gradient. The walk unlinks
each node as soon as its vjps have run, so the arrays its closure saved are
freed while the rest of the walk runs. A second backward through a consumed
output raises ``ValueError``.

Also home to the Adam optimizer and spectral normalization, since both act
directly on parameter tensors.
"""

from __future__ import annotations

import ctypes
import functools
from typing import NamedTuple

import numpy as np

from .errors import NumericError

Array = np.ndarray

# glibc mallopt parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory() -> None:
    """Fix the C allocator's thresholds so that every training step reuses the heap the last one freed.

    A step allocates and frees tens of MB of op outputs, saved operands and
    gradients. glibc's default thresholds adapt: an array above a moving size
    limit is mmap'd afresh, and the top of the heap goes back to the kernel
    once enough of it is free. Each step then page-faults that memory back in,
    and how much depends on where a long-lived allocation last landed: a
    64×128 adapt step took ~13k minor faults and 20–50 ms of system time in
    most stage calls and almost none in others. With arrays up to 32 MB on the
    heap and up to 256 MB of free heap top kept, a step faults only while the
    heap grows to its peak. A no-op where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_freed_memory()


class _Node:
    """One op on the tape: its parents' entries, its backward closure and its transient gradient.

    Each entry of ``parents`` is the parent's node, the parent itself for a
    leaf that requires grad, or ``None`` for a parent that needs no gradient.
    ``backward(g)`` adds the op's vjps of ``g`` into those entries' ``grad``.
    """

    __slots__ = ("parents", "backward", "grad")

    def __init__(self, parents: tuple, backward):
        self.parents = parents
        self.backward = backward
        self.grad: Array | None = None


class Tensor:
    """A dense float64 array, optionally participating in the gradient tape.

    ``data`` is stored row-major (C order). An op output that needs a
    gradient holds its tape :class:`_Node`; ``_backward`` reads through to
    the node's closure, and may be replaced to wrap it. ``grad`` is
    allocated lazily on first accumulation during :func:`backward`, on
    leaves only. Tensors are treated as immutable once created; only the
    optimizer mutates parameter data.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False, _node: _Node | None = None):
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.requires_grad = requires_grad
        self.grad: Array | None = None
        self._node = _node

    @property
    def _backward(self):
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, closure) -> None:
        self._node.backward = closure

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


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def constant(data) -> Tensor:
    return Tensor(data)


def _accumulate(t: _Node | Tensor, delta: Array, g: Array) -> None:
    """Add ``delta`` into ``t.grad``; on first touch keep it unless it aliases ``g`` or is read-only."""
    if t.grad is not None:
        t.grad += delta
    elif np.may_share_memory(delta, g) or not delta.flags.writeable:
        t.grad = np.array(delta)  # later += must neither write into g nor fail
    else:
        t.grad = delta


def _result(data, parents, vjps) -> Tensor:
    """Wrap op output; record a tape node only if some parent needs grads.

    ``vjps[i](g)`` returns parent i's gradient contribution for output
    gradient ``g``: ``g`` itself, a view of ``g``, or a fresh array, never a
    view of another tensor's data. The node keeps only the vjps of parents
    that need a gradient and calls them in parent order. The node links
    parents' nodes, not the parent tensors, so an op output stays alive only
    while a vjp holds it: a vjp saves what it reads (an operand whose data
    it needs, a mask, a shape), never a tensor it reads only the shape of.
    """
    entries = tuple(p._node if p._node is not None else (p if p.requires_grad else None) for p in parents)
    steps = [(entry, vjp) for entry, vjp in zip(entries, vjps) if entry is not None]
    if not steps:
        return Tensor(data)

    def backward_fn(g):
        for entry, vjp in steps:
            _accumulate(entry, vjp(g), g)

    return Tensor(data, requires_grad=True, _node=_Node(entries, backward_fn))


_CONSUMED = "graph already consumed by backward; detach() an output to reuse it"


def _consumed(g):
    raise ValueError(_CONSUMED)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every reachable leaf, consuming the graph as it goes.

    ``loss`` must be a scalar (shape ``()``). Accumulation order is the
    reverse of a depth-first post-order over parents in insertion order,
    which makes gradient values bit-reproducible across runs.

    Backward consumes the graph; ``detach()`` to reuse an output. Gradients
    of op outputs live on their nodes and are dropped as soon as the node's
    vjps have run, so only leaves keep a gradient. At the same moment the
    node loses its parents and its backward closure, whose saved arrays die
    then unless the caller still holds them. Walking a consumed node again
    raises ``ValueError`` before any gradient is touched.
    """
    if loss.data.shape != ():
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    root = loss._node
    if root is None:
        if loss.requires_grad:
            loss.grad = np.ones((), dtype=np.float64)
        return
    order: list[_Node] = []
    seen: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node.backward is _consumed:
            raise ValueError(_CONSUMED)
        seen.add(id(node))
        stack.append((node, True))
        # reversed so that parents are visited in insertion order
        for p in reversed(node.parents):
            if isinstance(p, _Node) and id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones((), dtype=np.float64)
    while order:
        node = order.pop()
        node.backward(node.grad)
        node.grad, node.backward, node.parents = None, _consumed, ()


# ---------------------------------------------------------------------------
# elementwise and arithmetic ops
# ---------------------------------------------------------------------------


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return _result(a.data + b.data, (a, b), (lambda g: g, lambda g: g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    return _result(a.data - b.data, (a, b), (lambda g: g, lambda g: -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    return _result(a.data * b.data, (a, b), (lambda g: g * b.data, lambda g: g * a.data))


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "div")
    return _result(a.data / b.data, (a, b), (lambda g: g / b.data, lambda g: -g * a.data / (b.data * b.data)))


def addc(a: Tensor, c: float) -> Tensor:
    return _result(a.data + c, (a,), (lambda g: g,))


def mulc(a: Tensor, c: float) -> Tensor:
    return _result(a.data * c, (a,), (lambda g: g * c,))


def absolute(a: Tensor) -> Tensor:
    return _result(np.abs(a.data), (a,), (lambda g: g * np.sign(a.data),))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _result(np.where(mask, a.data, 0.0), (a,), (lambda g: g * mask,))


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    """``a`` where positive, else ``slope * a``.

    For ``slope`` in (0, 1] that is ``max(a, slope * a)``, infinities
    included; slope 0 is :func:`relu`.
    """
    if not 0.0 < slope <= 1.0:
        raise ValueError(f"leaky_relu: slope must be in (0, 1], got {slope}")
    # g * 1 is g and the max picks slope elsewhere: the branch-free form of where(a > 0, g, g * slope)
    positive = a.data > 0 if a.requires_grad else None
    return _result(np.maximum(a.data, slope * a.data), (a,), (lambda g: g * np.maximum(positive, slope),))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _result(out, (a,), (lambda g: g * (1.0 - out * out),))


def softplus(a: Tensor) -> Tensor:
    return _result(np.logaddexp(0.0, a.data), (a,), (lambda g: g * (0.5 * (1.0 + np.tanh(0.5 * a.data))),))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _result(out, (a,), (lambda g: g * 0.5 / out,))


def sdiv(a: Tensor, s: Tensor) -> Tensor:
    """Divide a tensor by a scalar tensor (shape ``()``)."""
    if s.data.shape != ():
        raise ValueError(f"sdiv: scalar operand must have shape (), got {s.data.shape}")
    vjps = (lambda g: g / s.data, lambda g: np.array(-(g * a.data).sum() / (s.data * s.data)))
    return _result(a.data / s.data, (a, s), vjps)


def add_n(terms: list[Tensor]) -> Tensor:
    """Left-fold sum ``((t0 + t1) + t2) + ...``; a zero scalar when empty."""
    return functools.reduce(add, terms) if terms else constant(np.zeros(()))


def mean_n(terms: list[Tensor]) -> Tensor:
    """:func:`add_n` of ``terms`` divided by their count."""
    return mulc(add_n(terms), 1.0 / len(terms))


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    src_shape = a.shape
    return _result(a.data.reshape(shape), (a,), (lambda g: g.reshape(src_shape),))


def concat_channels(parts: list[Tensor]) -> Tensor:
    """Concatenate [C,H,W] tensors along the channel axis."""
    sizes = [p.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)
    vjps = [lambda g, lo=lo, hi=hi: g[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]
    return _result(np.concatenate([p.data for p in parts], axis=0), parts, vjps)


def flip_horizontal(a: Tensor) -> Tensor:
    """Reverse the last (column) axis."""
    return _result(np.ascontiguousarray(a.data[..., ::-1]), (a,), (lambda g: g[..., ::-1],))


def broadcast_chan(v: Tensor, height: int, width: int) -> Tensor:
    """Broadcast a [C] vector to a constant-per-channel [C,H,W] map."""
    if v.ndim != 1:
        raise ValueError(f"broadcast_chan expects a 1-D tensor, got shape {v.shape}")
    data = np.broadcast_to(v.data[:, None, None], (v.shape[0], height, width)).copy()
    return _result(data, (v,), (lambda g: g.sum(axis=(1, 2)),))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape
    return _result(np.array(a.data.sum()), (a,), (lambda g: np.full(shape, float(g)),))


def mean_all(a: Tensor) -> Tensor:
    shape, n = a.shape, a.size
    return _result(np.array(a.data.mean()), (a,), (lambda g: np.full(shape, float(g) / n),))


def channel_mean(a: Tensor) -> Tensor:
    """Per-channel spatial mean of a [C,H,W] tensor, shape [C]."""
    if a.ndim != 3:
        raise ValueError(f"channel_mean expects [C,H,W], got shape {a.shape}")
    shape, n = a.shape, a.shape[1] * a.shape[2]
    return _result(a.data.mean(axis=(1, 2)), (a,), (lambda g: np.broadcast_to(g[:, None, None] / n, shape),))


def sum_channels(a: Tensor) -> Tensor:
    """Per-pixel sum over the channel axis of a [C,H,W] tensor, shape [H,W]."""
    if a.ndim != 3:
        raise ValueError(f"sum_channels expects [C,H,W], got shape {a.shape}")
    shape = a.shape
    return _result(a.data.sum(axis=0), (a,), (lambda g: np.broadcast_to(g[None, :, :], shape),))


def mul_spatial(a: Tensor, s: Tensor) -> Tensor:
    """Scale [C,H,W] ``a`` by the [H,W] map ``s``, alike in every channel, or by the [C] vector ``s``, per channel.

    The same products and sums as :func:`mul` on ``s`` broadcast to ``a``'s
    shape, but the tape keeps ``s`` as it is, not a broadcast copy.
    """
    if a.ndim != 3 or s.shape not in (a.shape[1:], a.shape[:1]):
        raise ValueError(f"mul_spatial: incompatible shapes {a.shape} and {s.shape}")
    factor, axes = (s.data[:, None, None], (1, 2)) if s.ndim == 1 else (s.data[None], 0)
    return _result(a.data * factor, (a, s), (lambda g: g * factor, lambda g: (g * a.data).sum(axis=axes)))


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

    Entries of ``-inf`` are masked out and receive zero weight; a slice that is
    entirely masked returns all zeros instead of raising.
    """
    if not -a.ndim <= axis < a.ndim:
        raise ValueError(f"softmax: axis {axis} invalid for shape {a.shape}")
    m = np.max(a.data, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(a.data - m_safe)
    denom = e.sum(axis=axis, keepdims=True)
    out = np.where(denom > 0, e / np.where(denom > 0, denom, 1.0), 0.0)
    return _result(out, (a,), (lambda g: out * (g - (g * out).sum(axis=axis, keepdims=True)),))


# ---------------------------------------------------------------------------
# shifted row slices (stereo correlation and epipolar attention)
# ---------------------------------------------------------------------------

DIRECTIONS = ("left_to_right", "right_to_left")


_BLOCK = 32  # query columns per block of a row wider than two blocks


def _blocking(width: int, d_max: int, direction: str) -> tuple[int, int, int, int]:
    """(block width B, blocks n, window width V, zero columns before the other row) of a row's queries.

    A row of at most 2B columns is one block, and its window is the other row
    itself. A wider row splits into n = ceil(W/B) blocks of B queries, the
    last one zero-padded. Block q's candidates lie in columns [qB, qB+V),
    V = B + d_max, of the other row padded with d_max zero columns on the
    side its candidates run off: before it for ``left_to_right`` (candidates
    at i-d), after it for ``right_to_left``.
    """
    if width <= 2 * _BLOCK:
        return width, 1, width, 0
    return _BLOCK, -(-width // _BLOCK), _BLOCK + d_max, d_max if direction == "left_to_right" else 0


@functools.lru_cache(maxsize=None)
def _diagonals(d_max: int, direction: str, blocking: tuple[int, int, int, int], strides: tuple[int, int]):
    """Per offset d: (queries t, window columns s, flat positions) of a block's candidates that lie in its window.

    Query t's candidate at offset d is window column s = t + lead - d
    (``left_to_right``) or t + lead + d; the flat positions are those of
    (t, s) in a row-major matrix with these (query, window column) strides.
    """
    block, _, window, lead = blocking
    step = sum(strides)
    diagonals = []
    for d in range(d_max + 1):
        off = lead - d if direction == "left_to_right" else lead + d
        t0, t1 = max(0, -off), min(block, window - off)
        first = t0 * step + off * strides[1]
        diagonals.append((slice(t0, t1), slice(t0 + off, t1 + off), slice(first, first + (t1 - t0) * step, step)))
    return tuple(diagonals)


def _pad_columns(x: Array, lead: int, total: int) -> Array:
    """A C-contiguous ``x`` on ``total`` columns of its last axis from column ``lead``, zeros elsewhere."""
    if total == x.shape[-1]:
        return np.ascontiguousarray(x)
    out = np.zeros(x.shape[:-1] + (total,), dtype=np.float64)
    out[..., lead : lead + x.shape[-1]] = x
    return out


def _column_windows(x: Array, lead: int, n: int, block: int, span: int) -> Array:
    """[..., n, span]: block q's columns [qB, qB+span) of ``x``'s last axis, after ``lead`` zero columns.

    Windows wider than a block overlap: they are strided views of one
    zero-padded copy.
    """
    padded = _pad_columns(x, lead, (n - 1) * block + span)
    if span == block:
        return padded.reshape(x.shape[:-1] + (n, block))
    strides = padded.strides[:-1] + (block * padded.itemsize, padded.itemsize)
    return np.ndarray(x.shape[:-1] + (n, span), np.float64, padded, 0, strides)


def _band_matmul(weights: Array, x: Array, direction: str, scatter: bool) -> Array:
    """[C,H,W]: each block of output columns is its window of ``x`` times a [V,B] band of ``weights``.

    The gather reads each query's candidates: ``band[s, t]`` holds
    ``weights[d]`` of the block's query t, s its candidate's window column.
    The scatter adds each query into its candidates. A block of candidates
    is reached from the queries in a window of ``x`` along the other
    direction, so it is the same gather with ``band[s, t]`` holding
    ``weights[d]`` of window column s's query. Either way every output sums
    its products in ascending column order.
    """
    n_d, h, w = weights.shape
    layout = DIRECTIONS[DIRECTIONS.index(direction) ^ scatter]
    blocking = block, n, window, lead = _blocking(w, n_d - 1, layout)
    # per block, the weights of its window's queries (scatter) or of its own queries (gather)
    if scatter:
        sources = _column_windows(weights, lead, n, block, window)
    else:
        sources = _column_windows(weights, 0, n, block, block)
    band = np.zeros((h, n, window * block), dtype=np.float64)
    for d, (queries, columns, flat) in enumerate(_diagonals(n_d - 1, layout, blocking, (1, block))):
        band[:, :, flat] = sources[d, :, :, columns if scatter else queries]
    del sources  # the scatter's padded copy goes before the output exists
    out = np.empty((x.shape[0], h, n * block), dtype=np.float64)
    np.matmul(
        _column_windows(x.transpose(1, 0, 2), lead, n, block, window).transpose(0, 2, 1, 3),
        band.reshape(h, n, window, block),
        out=out.reshape(x.shape[0], h, n, block).transpose(1, 2, 0, 3),
    )
    return out if n * block == w else np.ascontiguousarray(out[:, :, :w])


def _shifted_dot(a: Array, b: Array, d_max: int, direction: str) -> Array:
    """[d_max+1,H,W]: channel dot product of each query with each candidate, 0 outside the image."""
    c, h, w = a.shape
    blocking = block, n, window, lead = _blocking(w, d_max, direction)
    # each block's queries times its window; both copies are freed before the output exists
    dots = np.matmul(
        np.ascontiguousarray(_pad_columns(a, 0, n * block).transpose(1, 2, 0)).reshape(h, n, block, c),
        _column_windows(b.transpose(1, 0, 2), lead, n, block, window).transpose(0, 2, 1, 3),
    ).reshape(h * n, block * window)
    out = np.zeros((d_max + 1, h, n * block), dtype=np.float64)
    blocks = out.reshape(d_max + 1, h * n, block)
    for d, (queries, _, flat) in enumerate(_diagonals(d_max, direction, blocking, (window, 1))):
        blocks[d, :, queries] = dots[:, flat]
        if n > 1:  # candidates in the padding give exact zeros, not sums of products with zeros
            out[d, :, slice(0, d) if direction == "left_to_right" else slice(w - d, w)] = 0.0
    return out if n * block == w else np.ascontiguousarray(out[:, :, :w])


def _check_shift(op: str, d_max: int, width: int, direction: str) -> None:
    if direction not in DIRECTIONS:
        raise ValueError(f"{op}: direction must be one of {DIRECTIONS}, got {direction!r}")
    if not 0 <= d_max < width:
        raise ValueError(f"{op}: d_max {d_max} must be in [0, {width})")


def shifted_dot(a: Tensor, b: Tensor, d_max: int, direction: str) -> Tensor:
    """Per-row dot products of two [C,H,W] maps at offsets 0..d_max.

    Output is [d_max+1,H,W] with ``out(d,j,i) = sum_c a(c,j,i) b(c,j,i-d)``
    for ``left_to_right`` and ``b(c,j,i+d)`` for ``right_to_left``.
    Candidates outside the image give 0.

    A row wider than 64 columns splits into blocks of 32 queries, and a
    block's candidates lie in a window of 32 + d_max columns of the other
    map, zero-padded past its edge; a narrower row is one block, its window
    the whole row. The forward is one batched matmul of each block's
    [B,C] queries by its [C,V] window, read off on the d_max+1 diagonals.
    Both vjps place their weights on the diagonals of a [V,B] band per block
    and multiply each block's [C,V] window of the other input by it, the
    scatter as a gather over the window of queries that reach a block of
    candidates. So only products near the diagonals are computed: at
    [16,64,128], d_max 16, a call peaks at about 5.4 MB, where one [W,W]
    band per row took 8.4 MB. Bands and windows live only during the call;
    the tape keeps the operands.
    """
    if a.ndim != 3 or a.shape != b.shape:
        raise ValueError(f"shifted_dot: expected two equal [C,H,W] shapes, got {a.shape} and {b.shape}")
    _check_shift("shifted_dot", d_max, a.shape[2], direction)
    vjps = (
        lambda g: _band_matmul(g, b.data, direction, scatter=False),
        lambda g: _band_matmul(g, a.data, direction, scatter=True),
    )
    return _result(_shifted_dot(a.data, b.data, d_max, direction), (a, b), vjps)


def shifted_weighted_sum(weights: Tensor, values: Tensor, direction: str) -> Tensor:
    """Weighted sum of each pixel's :func:`shifted_dot` candidates.

    ``weights`` is [n_d,H,W] and ``values`` [C,H,W]; output is [C,H,W] with
    ``out(c,j,i) = sum_d weights(d,j,i) values(c,j,i-d)`` (``i+d`` for
    ``right_to_left``), candidates outside the image skipped. This is the
    adjoint of ``shifted_dot(., values)``: each block's window of values
    times its band of weights, the blocked gather that :func:`shifted_dot`
    describes.
    """
    if weights.ndim != 3 or values.ndim != 3 or weights.shape[1:] != values.shape[1:]:
        raise ValueError(f"shifted_weighted_sum: incompatible shapes {weights.shape} and {values.shape}")
    d_max = weights.shape[0] - 1
    _check_shift("shifted_weighted_sum", d_max, values.shape[2], direction)
    vjps = (
        lambda g: _shifted_dot(g, values.data, d_max, direction),
        lambda g: _band_matmul(weights.data, g, direction, scatter=True),
    )
    return _result(_band_matmul(weights.data, values.data, direction, scatter=False), (weights, values), vjps)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

_STACK_BELOW_C_IN = 8  # fewer columns per tap kernel (C_in forward, C_out input vjp): one GEMM on stacked windows
# bytes of one tap GEMM's operands above which a tap sum runs in column blocks: 2.25 MiB, just above one core's
# 2 MiB L2 and at least 25% from every default shape (largest unblocked 1.64 MiB, matcher.feat2 3.05 MiB)
_TAP_SUM_BUDGET = 9 << 18


def _phase_axis(s: int, padding: int, n_in: int, n_phase: int) -> list[tuple[slice, slice]]:
    """(positions r < n_phase, input positions) of each phase a < s: r holds input a + s*r - padding."""
    pairs = []
    for a in range(s):
        r0 = (padding - a + s - 1) // s
        r1 = max(r0, min(n_phase, (n_in - 1 + padding - a) // s + 1))
        pairs.append((slice(r0, r1), slice(a + s * r0 - padding, a + s * r1 - padding, s)))
    return pairs


def _column_blocks(n_taps: int, rows: int, cols: int, n: int) -> tuple[slice, ...]:
    """The column blocks in which a tap sum of ``n_taps`` [rows, cols] taps over n columns runs.

    One block, unless the sum loops over its taps (more than one tap, at least
    ``_STACK_BELOW_C_IN`` columns) and one tap's window, the accumulator and
    the product, 8·n·(cols + 2·rows) bytes, exceed ``_TAP_SUM_BUDGET``: then
    every tap would stream them from L3. Such a sum splits into equal blocks
    of about half the budget each, rounded up to whole runs of 64 columns. So
    every block starts on a micro-tile boundary of the whole product, and
    OpenBLAS gives each column the bits the whole product has, except possibly
    the ragged last ``n % 16`` columns, which it may run through another kernel
    in the smaller last block. For ``matcher.feat2`` there are none in the
    forward, and the input vjp's lie in its phase image's bottom padding row.
    """
    need = 8 * n * (cols + 2 * rows)
    if n_taps == 1 or cols < _STACK_BELOW_C_IN or need <= _TAP_SUM_BUDGET:
        return (slice(0, n),)
    size = -(-n // -(-2 * need // _TAP_SUM_BUDGET))
    size = -(-size // 64) * 64
    return tuple(slice(j, min(j + size, n)) for j in range(0, n, size))


def _tap_sum(k_taps: np.ndarray, windows: list[np.ndarray]) -> np.ndarray:
    """``sum_t k_taps[t] @ windows[t]``: per column block (:func:`_column_blocks`) one matmul per tap, or one
    on the stacked windows for narrow taps."""
    n_taps, rows, cols = k_taps.shape
    if cols < _STACK_BELOW_C_IN and n_taps > 1:
        return k_taps.transpose(1, 0, 2).reshape(rows, n_taps * cols) @ np.stack(windows).reshape(n_taps * cols, -1)
    n = windows[0].shape[1]
    blocks = _column_blocks(n_taps, rows, cols, n)
    out = np.empty((rows, n), dtype=np.float64) if len(blocks) > 1 else None
    for blk in blocks:
        acc = k_taps[0] @ windows[0][:, blk]
        for k_tap, window in zip(k_taps[1:], windows[1:]):
            acc += k_tap @ window[:, blk]
        if out is None:
            return acc
        out[:, blk] = acc
    return out


class _ConvPlan(NamedTuple):
    """What :func:`conv2d` derives from (H, W, kh, kw, stride, padding) alone; see its docstring."""

    h_out: int
    w_out: int
    hq: int  # phase rows, and row pitch ``wq`` of each flat phase image
    wq: int
    n: int  # H' * wq, the length of a tap window
    lead: int  # the largest tap offset
    own: bool  # an unpadded stride-1 1x1 input is its own phase image
    phases: tuple  # per phase: ((a, b), phase rows, phase columns, input index)
    taps: tuple  # per tap, row-major: ((a, b), flat window of the phase image)
    grad_phases: tuple  # per phase a tap reads: (its taps' indices, their gradient windows, rows, cols, input index)


@functools.lru_cache(maxsize=None)
def _conv_plan(h: int, w: int, kh: int, kw: int, s: int, padding: int) -> _ConvPlan:
    """The cached :class:`_ConvPlan` of one input size, kernel size, stride and padding; channel counts play no part."""
    h_out = (h + 2 * padding - kh) // s + 1
    w_out = (w + 2 * padding - kw) // s + 1
    hq, wq = h_out + (kh - 1) // s, w_out + (kw - 1) // s
    n, lead = h_out * wq, ((kh - 1) // s) * wq + (kw - 1) // s
    own = s == 1 and padding == 0 and kh == kw == 1
    # rows [0, hq) of each phase hold every input pixel a tap reads; a spare
    # zero row holds the last tap's window, which runs (kw-1)//s past row hq-1
    phases = () if own else tuple(
        ((a, b), rows, cols, (slice(None), x_rows, x_cols))
        for a, (rows, x_rows) in enumerate(_phase_axis(s, padding, h, hq))
        for b, (cols, x_cols) in enumerate(_phase_axis(s, padding, w, wq))
    )
    offsets = [((di % s, dj % s), (di // s) * wq + dj // s) for di in range(kh) for dj in range(kw)]
    taps = tuple((ab, slice(off, off + n)) for ab, off in offsets)
    grad_phases = []
    for ab, rows, cols, src in phases:
        ts = [t for t, (tap_ab, _) in enumerate(offsets) if tap_ab == ab]
        if ts:
            windows = tuple(slice(lead - offsets[t][1], lead - offsets[t][1] + hq * wq) for t in ts)
            grad_phases.append((tuple(ts), windows, rows, cols, src))
    return _ConvPlan(h_out, w_out, hq, wq, n, lead, own, phases, taps, tuple(grad_phases))


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0, bias: Tensor | None = None) -> Tensor:
    """2-D cross-correlation of [C_in,H,W] with [C_out,C_in,kh,kw], zero padding.

    Output is [C_out, H', W'] with H' = floor((H + 2*padding - kh)/stride) + 1,
    plus the optional [C_out] ``bias`` per channel. Differentiable with
    respect to input, kernel and bias.

    The zero-padded input is split into ``stride**2`` phase images: phase
    (a, b) holds the padded pixels (a + stride*r, b + stride*q). Each is
    stored flat with row pitch ``wq = W' + (kw-1)//stride``, so tap (di, dj)
    reads phase (di % stride, dj % stride) at the flat offset ``off =
    (di//stride)*wq + dj//stride``, and its H'*wq-long window is a view. An
    unpadded stride-1 1x1 input is its own phase image. The forward is the
    tap sum ``sum_t K_t @ window_t`` (:func:`_tap_sum`); the ``wq - W'``
    spare columns of each output row read the next row and are dropped.
    The input gradient is the same tap sum per phase, transposed: the output
    gradient, zero in the spare columns, sits in one buffer after ``lead``
    (the largest ``off``) zeros, and each tap of the phase reads it at
    ``lead - off`` with ``K_t^T``; the result is copied back strided, and a
    phase no tap reads keeps zero gradient. The kernel gradient is one
    matmul per tap on the same buffer at ``[lead, lead + H'*wq)``.

    All of this bookkeeping depends only on (H, W, kh, kw, stride, padding),
    so it comes from one cached :func:`_conv_plan` per shape.

    A tap sum whose operands overflow L2 (only ``matcher.feat2`` at the
    default 64x128) runs over contiguous column blocks (:func:`_column_blocks`):
    each block sums its taps in its own accumulator, which is copied into the
    output once, and gives the whole sum's bits, apart from the ragged end
    that :func:`_column_blocks` describes. The kernel gradient then loops
    over the same blocks outside its taps, so the output gradient and the
    phase images are read once per block rather than once per tap. This
    regroups each tap's sum over the columns, so the kernel gradient's low
    bits differ from those of one matmul per tap.

    The tape keeps the input itself, never its phase images: those die once
    the forward tap sum is done, and the kernel vjp rebuilds them with the
    forward's own code into a buffer that lives only while it runs. So a
    padded conv holds no copy of its input, and every conv that reads one
    input (FADE's γ and β convs read the same content map) holds it once.
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
    plan = _conv_plan(h, w, kh, kw, stride, padding)
    h_out, w_out, hq, wq, n, lead, own = plan.h_out, plan.w_out, plan.hq, plan.wq, plan.n, plan.lead, plan.own
    if h_out <= 0 or w_out <= 0:
        raise ValueError(f"conv2d: empty output for input {x.shape} and kernel {kernel.shape}")
    s = stride
    x_data = x.data

    def phase_images():
        """[s, s, C_in, (hq+1)*wq]: the zero-padded input's phase images, each flat; built afresh per call."""
        if own:
            return x_data.reshape(1, 1, c_in, n)
        flat = np.zeros((s, s, c_in, (hq + 1) * wq), dtype=np.float64)
        for (a, b), rows, cols, src in plan.phases:
            flat[a, b].reshape(c_in, hq + 1, wq)[:, rows, cols] = x_data[src]
        return flat

    k_taps = np.ascontiguousarray(kernel.data.transpose(2, 3, 0, 1)).reshape(kh * kw, c_out, c_in)

    flat = phase_images()
    acc = _tap_sum(k_taps, [flat[ab][:, window] for ab, window in plan.taps])
    del flat
    out = acc.reshape(c_out, h_out, wq)[:, :, :w_out]
    out = out + bias.data[:, None, None] if bias is not None else np.ascontiguousarray(out)

    shared = []  # vjp_x hands its gradient buffer to vjp_kernel, which drops it
    kernel_grad = kernel.requires_grad

    def lead_in(g):
        """[C_out, lead + hq*wq]: ``lead`` zeros, then g with zeros in the spare columns, then zeros."""
        if lead == 0:  # then hq == H' and wq == W'
            return g.reshape(c_out, n)
        g_buf = np.zeros((c_out, lead + hq * wq), dtype=np.float64)
        g_buf[:, lead : lead + n].reshape(c_out, h_out, wq)[:, :, :w_out] = g
        return g_buf

    def vjp_x(g):
        g_buf = lead_in(g)
        if kernel_grad:
            shared.append(g_buf)
        if own:
            return _tap_sum(k_taps.transpose(0, 2, 1), [g_buf]).reshape(c_in, h, w)
        dx = np.zeros((c_in, h, w), dtype=np.float64)
        for ts, slices, rows, cols, src in plan.grad_phases:
            windows = [g_buf[:, window] for window in slices]
            phase_grad = _tap_sum(np.take(k_taps, ts, axis=0).transpose(0, 2, 1), windows)
            dx[src] = phase_grad.reshape(c_in, hq, wq)[:, rows, cols]
        return dx

    def vjp_kernel(g):
        g_pad = (shared.pop() if shared else lead_in(g))[:, lead : lead + n]
        flat = phase_images()
        windows = [flat[ab][:, window] for ab, window in plan.taps]
        dk = np.empty((kh * kw, c_out, c_in), dtype=np.float64)
        blocks = _column_blocks(kh * kw, c_out, c_in, n)
        for i, blk in enumerate(blocks):
            g_blk = g_pad[:, blk]
            for dk_tap, window in zip(dk, windows):
                if i == 0:
                    np.matmul(g_blk, window[:, blk].T, out=dk_tap)
                else:
                    dk_tap += g_blk @ window[:, blk].T
        return np.ascontiguousarray(dk.reshape(kh, kw, c_out, c_in).transpose(2, 3, 0, 1))

    if bias is None:
        return _result(out, (x, kernel), (vjp_x, vjp_kernel))
    return _result(out, (x, kernel, bias), (vjp_x, vjp_kernel, lambda g: g.sum(axis=(1, 2))))


# ---------------------------------------------------------------------------
# pooling / resampling
# ---------------------------------------------------------------------------


def _separable(a: Tensor, rows: Array, cols: Array) -> Tensor:
    """``rows · a_c · colsᵀ`` per channel ``a_c`` of a [C,H,W] tensor; its vjp is ``rowsᵀ · g_c · cols``."""
    c, h, w = a.shape
    out = np.matmul(rows, (a.data.reshape(c * h, w) @ cols.T).reshape(c, h, len(cols)))
    return _result(out, (a,), (lambda g: (np.matmul(rows.T, g).reshape(c * h, -1) @ cols).reshape(c, h, w),))


@functools.lru_cache(maxsize=None)
def _box3_matrix(n: int) -> Array:
    """Read-only [n, n] tridiagonal matrix: each row averages its in-range entries i-1, i, i+1."""
    band = np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    band /= band.sum(axis=1, keepdims=True)
    band.flags.writeable = False
    return band


def box_filter3(a: Tensor) -> Tensor:
    """3x3 average pool, stride 1, same size.

    Border windows average only the in-image neighbors (count-normalized),
    so the output of a constant input is that same constant everywhere. A
    window's count is its row count times its column count, so the filter
    is separable: ``B_H a B_W^T`` per channel on :func:`_box3_matrix`.
    """
    if a.ndim != 3:
        raise ValueError(f"box_filter3 expects [C,H,W], got shape {a.shape}")
    _, h, w = a.shape
    return _separable(a, _box3_matrix(h), _box3_matrix(w))


@functools.lru_cache(maxsize=None)
def _avg2_matrix(n: int) -> Array:
    """Read-only [n/2, n] matrix that averages each pair of entries 2i, 2i+1."""
    pool = np.repeat(np.eye(n // 2), 2, axis=1) * 0.5
    pool.flags.writeable = False
    return pool


def downsample_avg2(a: Tensor) -> Tensor:
    """Average-pool 2x2 blocks of a [C,H,W] tensor, halving each spatial dimension."""
    if a.ndim != 3 or a.shape[1] % 2 or a.shape[2] % 2:
        raise ValueError(f"downsample_avg2 needs [C,H,W] with even spatial sizes, got {a.shape}")
    _, h, w = a.shape
    return _separable(a, _avg2_matrix(h), _avg2_matrix(w))


def _lerp_up_axis(x: Array) -> Array:
    """Double axis 0 with weights (0.25, 0.75) / (0.75, 0.25), clamped borders.

    Output o samples the input at (o + 0.5)/2 - 0.5, the half-pixel-centred
    bilinear grid: out[2i] = 0.25 x[i-1] + 0.75 x[i], out[2i+1] = 0.75 x[i]
    + 0.25 x[i+1].
    """
    prev = np.concatenate([x[:1], x[:-1]])
    nxt = np.concatenate([x[1:], x[-1:]])
    out = np.empty((2 * len(x),) + x.shape[1:], dtype=np.float64)
    out[0::2] = 0.75 * x + 0.25 * prev
    out[1::2] = 0.75 * x + 0.25 * nxt
    return out


@functools.lru_cache(maxsize=None)
def _upsample_matrix(n: int, factor: int) -> Array:
    """Read-only [n*factor, n] matrix of log2(factor) :func:`_lerp_up_axis` steps."""
    u = np.eye(n)
    while len(u) < n * factor:
        u = _lerp_up_axis(u)
    u.flags.writeable = False
    return u


def upsample_bilinear2(a: Tensor, factor: int = 2) -> Tensor:
    """Bilinear upsample of a [C,H,W] tensor by a power-of-two ``factor``.

    The result equals log2(factor) repeated 2x steps on the half-pixel-centred
    grid with clamped borders. Each step is linear along one axis, so the
    chain is one matrix per axis: the output is ``Uh a Uw^T`` per channel
    (:func:`_separable`). ``U`` is cached per (size, factor); its entries are
    exact dyadic rationals.
    """
    if a.ndim != 3:
        raise ValueError(f"upsample_bilinear2 expects [C,H,W], got shape {a.shape}")
    if factor < 1 or (factor & (factor - 1)) != 0:
        raise ValueError(f"upsample factor must be a positive power of two, got {factor}")
    _, h, w = a.shape
    return _separable(a, _upsample_matrix(h, factor), _upsample_matrix(w, factor))


# ---------------------------------------------------------------------------
# normalization helpers
# ---------------------------------------------------------------------------


def _moments(a: Tensor, eps: float) -> tuple[Tensor, Tensor, Tensor]:
    """Per-channel mean, the centred input and sqrt(var + eps) of a [C,H,W] tensor."""
    _, h, w = a.shape
    mu = channel_mean(a)
    centered = sub(a, broadcast_chan(mu, h, w))
    return mu, centered, sqrt(addc(channel_mean(mul(centered, centered)), eps))


def instance_norm(a: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-channel zero-mean unit-variance normalization over H,W."""
    _, centered, std = _moments(a, eps)
    return mul_spatial(centered, div(constant(np.ones(a.shape[0])), std))


def channel_stats(a: Tensor, eps: float = 1e-5) -> tuple[Tensor, Tensor]:
    """Per-channel (mean, std) over H,W; std includes ``eps`` under the root."""
    mu, _, std = _moments(a, eps)
    return mu, std


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


def _unit(x: Array) -> Array | None:
    n = np.linalg.norm(x)
    return None if n < 1e-30 else x / n


def power_iteration(kernel: Array, u: Array) -> Array:
    """One power-iteration step on ``kernel`` as an (out-channels x rest) matrix W: the next unit estimate
    unit(W unit(W^T u)) of its top left singular vector, or ``u`` itself where that would divide by zero."""
    mat = kernel.reshape(kernel.shape[0], -1)
    v = _unit(mat.T @ u)
    u_next = None if v is None else _unit(mat @ v)
    return u if u_next is None else u_next


def spectral_normalize(kernel: Tensor, u: Array) -> Tensor:
    """``kernel`` divided by sigma = u^T W v, with W its (out-channels x rest) matrix and v = unit(W^T u).

    ``u`` is the kernel's :func:`power_iteration` estimate. The singular vectors are constants on the tape, so
    gradients see sigma as the linear form u^T W v. A zero kernel is returned unchanged.
    """
    v = _unit(kernel.data.reshape(kernel.shape[0], -1).T @ u)
    if v is None:
        return kernel
    rank1 = np.outer(u, v).reshape(kernel.shape)
    sigma = sum_all(mul(kernel, constant(rank1)))
    return sdiv(kernel, sigma)
