"""Dense tensor arithmetic with reverse-mode differentiation.

Tensors wrap numpy arrays (float32 by default, float64 for gradient
verification) and record their producing operation so that ``backward``
can replay the tape in reverse topological order.  Tensor values are
treated as immutable once created; optimizers mutate leaf ``data``
in place between tape constructions.

Gradients are not copied: a tensor's first gradient is stored as the very
array its consumer passed (cast only when the dtype differs), so two
tensors, and a backward closure's input, may share one ``grad`` array.
Hence nothing writes into a ``grad`` array in place; code that changes a
gradient assigns a new array to ``grad``.

Every op passes its result and its backward closure to ``_node``, which
alone decides whether a node is recorded: only while a tape is recorded
(outside ``no_grad``) and only when some input requires grad.  Otherwise
the op returns a constant tensor.

``backward`` consumes the tape it runs.  Each interior node, once its
closure has run, drops its grad, its parents and its closure (with the
arrays the closure kept), so the graph is freed as the sweep goes and
neither a caller's loss nor a kept interior tensor holds it alive.  Every
``data`` array stays readable.  A spent node's closure is ``_spent``: a
second ``backward`` from the same loss, or from a new loss built on an
interior tensor of a spent graph, raises a StateError.

A kernel writes in place only into arrays it allocated in the same call,
and never into an array its backward closure keeps once the forward pass
has returned.  In-place steps use the ufuncs, operands and order of the
out-of-place expression they replace (at most swapping the operands of a
``*`` or ``+``), and a buffer is first cast to the dtype the out-of-place
step would promote to, so the results are bit-identical to it under the
sum rule.

The sum rule: a sum along an array's last axis is the BLAS product
``a @ ones[n, 1]`` (``_sum_last``), and a sum over the rows of a 2-D array
is ``ones[M] @ a`` (``_sum_rows``), not NumPy's pairwise reduce.  Every
bias and gain gradient, row mean and last-axis sum of the kernels and of
``reduce_sum``, ``reduce_mean``, ``softmax`` and ``log_softmax`` follows
it; other axes keep NumPy's sum.  BLAS adds in another order than the
pairwise sum, so the bits differ from ``a.sum(...)``, within a bound that
tests/test_sum_rule.py states against a float64 sum.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (ConfigError, DimensionError, InputError, NumericError,
                     StateError)

DEFAULT_DTYPE = np.float32
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
# exp(-x * x / 2) underflows to 0 in float64 (and float32) for |x| > 38.6
_PDF_ZERO_BEYOND = 40.0

# P(u), lowest order first: the float32 normal cdf is
# 0.5 * (1 + tanh(x * P(x * x))).  P was fitted (minimax) to SciPy's float64
# erf, the float64 cdf's source before it moved to math.erf; the two erfs
# differ by at most 3 ulp, so the fit holds for either.  P's positive
# leading coefficient saturates tanh for large |x|.
GELU_F32_POLY = (0.79788494, 0.036333084, -3.2594173e-05, -5.5306573e-05,
                 3.964822e-06, -1.3227015e-07, 1.7563779e-09)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


_ONES: dict = {}


def _ones(n: int, dtype) -> np.ndarray:
    """A read-only [n] vector of ones in `dtype`: a slice of one cached
    buffer per dtype, replaced by a longer one when n exceeds it."""
    buf = _ONES.get(dtype)
    if buf is None or buf.shape[0] < n:
        buf = np.ones(n, dtype)
        buf.flags.writeable = False
        _ONES[dtype] = buf
    return buf[:n]


def _sum_last(a: np.ndarray) -> np.ndarray:
    """`a` summed along its last axis, which is kept: a @ ones[n, 1]."""
    return np.matmul(a, _ones(a.shape[-1], a.dtype)[:, None])


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """The rows of 2-D `a` summed: ones[M] @ a, of shape [N]."""
    return np.matmul(_ones(a.shape[0], a.dtype), a)


def _is_last(axis, ndim: int) -> bool:
    """True when `axis` (an int, a tuple or None) names exactly the last of
    `ndim` axes."""
    if type(axis) is tuple:
        axis = axis[0] if len(axis) == 1 else None
    return ndim > 0 and axis in (-1, ndim - 1)


def _sum_kept(a: np.ndarray, axis) -> np.ndarray:
    """`a` summed along `axis` (all axes when None), which is kept: by the
    sum rule when it is a's last axis, else by NumPy's sum."""
    if _is_last(axis, a.ndim):
        return _sum_last(a)
    return a.sum(axis=axis, keepdims=True)


def _spent(grad: np.ndarray) -> None:
    """The backward closure of an interior node that a backward has run."""
    raise StateError("backward() already freed this graph")


class Tensor:
    """A node in the computation graph.

    Leaves with ``requires_grad=True`` accumulate gradients in ``grad``
    after ``backward``.  Interior nodes keep references to their parents
    and a backward closure until a backward runs them.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple = (), _backward: Callable | None = None):
        arr = data if type(data) is np.ndarray else np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff ------------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from this (scalar) tensor; it consumes the
        tape (see the module docstring)."""
        if self.size != 1:
            raise DimensionError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents
                         if p.requires_grad and id(p) not in seen)
        self.grad = np.ones_like(self.data)
        while topo:  # popped, so a node run and spent is referenced no more
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                node.grad = None
                node._parents = ()
                node._backward = _spent

    def zero_grad(self) -> None:
        self.grad = None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return sub(self, _wrap(other, self.dtype))

    def __rsub__(self, other):
        return sub(_wrap(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _wrap(other, self.dtype)
        return mul(self, power(other, -1.0))

    def __rtruediv__(self, other):
        return mul(_wrap(other, self.dtype), power(self, -1.0))

    def __pow__(self, exponent):
        return power(self, exponent)

    def __getitem__(self, index):
        return getitem(self, index)


def _wrap(x, dtype=DEFAULT_DTYPE) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _widened(buf: np.ndarray, other) -> np.ndarray:
    """`buf` cast to the dtype of `buf <op> other`, or `buf` itself when
    that is its dtype: an in-place op on the result promotes as the
    out-of-place op would."""
    return buf.astype(np.result_type(buf, other), copy=False)


def _accum(t: Tensor, g: np.ndarray) -> None:
    g = _unbroadcast(g, t.shape)
    if t.grad is None:
        t.grad = g if g.dtype == t.dtype else g.astype(t.dtype)
    elif g.dtype == t.grad.dtype:
        t.grad = t.grad + g
    else:
        t.grad = t.grad + g.astype(t.grad.dtype)


_recording = True


@contextmanager
def no_grad():
    """Record no tape inside the block: op results have no parents, no
    backward closure and requires_grad=False.  The values are unchanged."""
    global _recording
    outer, _recording = _recording, False
    try:
        yield
    finally:
        _recording = outer


def _node(data: np.ndarray, parents: Sequence[Tensor],
          backward: Callable[[np.ndarray], None]) -> Tensor:
    """The result of an op: a tape node holding the parents that require grad
    and the `backward` closure when a tape is recorded and some parent
    requires grad, else a constant."""
    if _recording:
        live = tuple(p for p in parents if p.requires_grad)
        if live:
            return Tensor(data, requires_grad=True, _parents=live, _backward=backward)
    return Tensor(data)


# -- elementwise ops ---------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b, a.dtype if isinstance(a, Tensor) else DEFAULT_DTYPE)
    def bwd(g):
        if a.requires_grad:
            _accum(a, g)
        if b.requires_grad:
            _accum(b, g)
    return _node(a.data + b.data, (a, b), bwd)


def sub(a, b) -> Tensor:
    """a - b, the value and gradients of add(a, mul(b, -1.0)) in one node."""
    a, b = _wrap(a), _wrap(b, a.dtype if isinstance(a, Tensor) else DEFAULT_DTYPE)
    def bwd(g):
        if a.requires_grad:
            _accum(a, g)
        if b.requires_grad:
            _accum(b, -g)
    return _node(a.data - b.data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a = _wrap(a)
    b = _wrap(b, a.dtype)
    def bwd(g):
        if a.requires_grad:
            _accum(a, g * b.data)
        if b.requires_grad:
            _accum(b, g * a.data)
    return _node(a.data * b.data, (a, b), bwd)


def power(a: Tensor, exponent: float) -> Tensor:
    a = _wrap(a)
    def bwd(g):
        _accum(a, g * exponent * a.data ** (exponent - 1.0))
    return _node(a.data ** exponent, (a,), bwd)


def exp(a: Tensor) -> Tensor:
    a = _wrap(a)
    val = np.exp(a.data)
    def bwd(g):
        _accum(a, g * val)
    return _node(val, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    a = _wrap(a)
    def bwd(g):
        _accum(a, g * (a.data > 0))
    return _node(np.maximum(a.data, 0.0), (a,), bwd)


def erf(x: np.ndarray) -> np.ndarray:
    """The standard library's math.erf of each element of float64 `x`, in a
    new float64 array of x's shape (0-d stays 0-d)."""
    return np.fromiter(map(math.erf, x.flat), np.float64,
                       x.size).reshape(x.shape)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """The standard normal cdf of `x` in a new array of x's dtype: for
    float64 0.5 * (1 + erf(x * (1 / sqrt(2)))) with the standard library's
    math.erf (via `erf`), and for float32 0.5 * (1 + tanh(x * P(x*x))) with
    P = GELU_F32_POLY, which stays within 1e-7 of the float64 value.  Each
    element's value depends on it alone, not on the array's size or
    shape."""
    if x.dtype == np.float64:
        cdf = erf(x * _INV_SQRT2)
    else:
        u = np.asarray(x * x)
        cdf = np.asarray(u * GELU_F32_POLY[-1])
        for c in GELU_F32_POLY[-2:0:-1]:
            cdf += c
            cdf *= u
        cdf += GELU_F32_POLY[0]
        cdf *= x
        np.tanh(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def gelu(a: Tensor) -> Tensor:
    """GELU x * cdf(x) with the normal cdf of `_normal_cdf`: the standard
    library's math.erf for float64, a tanh-of-polynomial form within 1e-7
    of it for float32.  The backward pass uses the exact normal pdf:
    g * (cdf + x * pdf(x)), which is finite for every non-nan x and exactly
    g or 0 for |x| >= 40.  The value at -inf is its limit -0.0."""
    a = _wrap(a)
    x = a.data
    # |x| > 1.8e19 overflows x * x to the saturated cdf, and x = -inf gives
    # -inf * 0 = nan, replaced by the limit: no warning either way
    with np.errstate(over="ignore", invalid="ignore"):
        cdf = _normal_cdf(x)
        val = np.asarray(x * cdf)  # an array even for 0-d x, so copyto works
    np.copyto(val, -0.0, where=x == -np.inf)
    def bwd(g):
        # g * (cdf + x * pdf(x)); the pdf term is exactly 0 beyond |x| = 40
        # in both dtypes, so clipping there changes no bits and keeps x * x
        # from overflowing and inf * 0 out of the tails
        xc = np.clip(x, -_PDF_ZERO_BEYOND, _PDF_ZERO_BEYOND)
        t = np.asarray(-0.5 * xc)
        t *= xc
        np.exp(t, out=t)
        t *= _INV_SQRT2PI
        t *= xc
        t += cdf
        t *= g  # rounds to x's dtype, as _accum would round g * t
        _accum(a, t)
    return _node(val, (a,), bwd)


# -- matmul / shape ops ------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 1 or b.ndim < 1:
        raise DimensionError("matmul requires tensors of rank >= 1")
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise DimensionError(f"matmul inner dims mismatch: {a.shape} x {b.shape}")
    def bwd(g):
        if a.requires_grad:
            _accum(a, np.matmul(g, np.swapaxes(b.data, -1, -2)))
        if b.requires_grad:
            _accum(b, np.matmul(np.swapaxes(a.data, -1, -2), g))
    return _node(np.matmul(a.data, b.data), (a, b), bwd)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           low_rank: tuple | None = None) -> Tensor:
    """x @ weight + bias for x [..., d_in] and weight [d_in, d_out], recorded
    as one tape node; the weight gradient is one [d_in, d_out] GEMM over all
    leading positions.

    With `low_rank=(a, b, scaling)`, a [r, d_in] and b [d_out, r], the node
    adds the low-rank delta scaling * (x @ a.T) @ b.T, with the bits of
    matmul, transpose, mul and add nodes composing it; its closure keeps x
    and the [..., r] product x @ a.T, and the factor gradients are each one
    GEMM over all leading positions."""
    x = _wrap(x)
    xd, wd = x.data, weight.data
    if wd.ndim != 2 or xd.ndim < 1 or xd.shape[-1] != wd.shape[0]:
        raise DimensionError(f"linear shape mismatch: {xd.shape} x {wd.shape}")
    d_in, d_out = wd.shape
    val = np.matmul(xd, wd)
    if bias is not None:
        if bias.data.dtype != val.dtype:
            val = _widened(val, bias.data)
        val += bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)
    if low_rank is not None:
        a, b, scaling = low_rank
        if a.ndim != 2 or a.shape[1] != d_in or b.shape != (d_out, a.shape[0]):
            raise DimensionError(f"low-rank factors {a.shape} and {b.shape} "
                                 f"do not fit a {d_in}x{d_out} linear")
        r = a.shape[0]
        low = np.matmul(xd, a.data.T)
        delta = np.matmul(low, b.data.T)
        delta *= np.asarray(scaling, delta.dtype)
        val = _widened(val, delta)
        val += delta
        parents += (a, b)
    def bwd(g):
        if weight.requires_grad:
            _accum(weight, x.data.reshape(-1, d_in).T @ g.reshape(-1, d_out))
        if bias is not None and bias.requires_grad:
            _accum(bias, _sum_rows(g.reshape(-1, d_out)))
        dx = np.matmul(g, weight.data.T) if x.requires_grad else None
        if low_rank is not None:
            sg = g * np.asarray(scaling, g.dtype)
            d_low = np.matmul(sg, b.data)
            if b.requires_grad:
                _accum(b, sg.reshape(-1, d_out).T @ low.reshape(-1, r))
            if a.requires_grad:
                _accum(a, d_low.reshape(-1, r).T @ x.data.reshape(-1, d_in))
            if x.requires_grad:
                dx_low = np.matmul(d_low, a.data)
                dx = _widened(dx, dx_low)
                dx += dx_low
        if x.requires_grad:
            _accum(x, dx)
    return _node(val, parents, bwd)


def reshape(a: Tensor, shape) -> Tensor:
    a = _wrap(a)
    def bwd(g):
        _accum(a, g.reshape(a.shape))
    return _node(a.data.reshape(shape), (a,), bwd)


def transpose(a: Tensor, axes=None) -> Tensor:
    a = _wrap(a)
    def bwd(g):
        _accum(a, np.transpose(g, None if axes is None else np.argsort(axes)))
    return _node(np.transpose(a.data, axes), (a,), bwd)


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [_wrap(p) for p in parts]
    def bwd(g):
        splits = np.cumsum([p.shape[axis] for p in parts])[:-1]
        for p, piece in zip(parts, np.split(g, splits, axis=axis)):
            if p.requires_grad:
                _accum(p, piece)
    return _node(np.concatenate([p.data for p in parts], axis=axis), parts, bwd)


def stack(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [_wrap(p) for p in parts]
    def bwd(g):
        for i, p in enumerate(parts):
            if p.requires_grad:
                _accum(p, np.take(g, i, axis=axis))
    return _node(np.stack([p.data for p in parts], axis=axis), parts, bwd)


def pad(a: Tensor, pad_width) -> Tensor:
    """Zero padding by one (before, after) pair of widths per axis: the
    value np.pad(a, pad_width) gives, built as zeros and one slice copy."""
    a = _wrap(a)
    widths = [(int(lo), int(hi)) for lo, hi in pad_width]
    if len(widths) != a.ndim or any(lo < 0 or hi < 0 for lo, hi in widths):
        raise DimensionError(f"pad widths {pad_width} for shape {a.shape}: "
                             "one non-negative pair per axis")
    inner = tuple(slice(lo, lo + dim) for (lo, _), dim in zip(widths, a.shape))
    val = np.zeros([lo + dim + hi for (lo, hi), dim in zip(widths, a.shape)],
                   a.dtype)
    val[inner] = a.data
    def bwd(g):
        _accum(a, g[inner])
    return _node(val, (a,), bwd)


def _is_basic(index) -> bool:
    """True for a slice, an int, or a tuple of those: such an index selects
    each element at most once."""
    parts = index if isinstance(index, tuple) else (index,)
    return all(isinstance(i, slice) or
               (isinstance(i, (int, np.integer)) and not isinstance(i, bool))
               for i in parts)


def getitem(a: Tensor, index) -> Tensor:
    a = _wrap(a)
    def bwd(g):
        full = np.zeros_like(a.data)
        if _is_basic(index):
            full[index] = g
        else:  # integer arrays may repeat an index: accumulate
            np.add.at(full, index, g)
        _accum(a, full)
    return _node(a.data[index], (a,), bwd)


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into `weight` by integer id array; an id outside
    [0, rows) raises an InputError."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= weight.shape[0]):
        raise InputError(f"token id outside [0, {weight.shape[0]})")
    return getitem(weight, ids)


# -- reductions --------------------------------------------------------------


def reduce_sum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    """Sum over `axis` (all axes when None), by the sum rule along the last
    axis."""
    a = _wrap(a)
    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.shape))
    val = _sum_kept(a.data, axis)
    return _node(val if keepdims else np.squeeze(val, axis), (a,), bwd)


def reduce_mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    """Mean over `axis` (all axes when None), by the sum rule along the last
    axis."""
    a = _wrap(a)
    def bwd(g):
        count = a.size if axis is None else np.prod(
            [a.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.shape) / count)
    if _is_last(axis, a.ndim):
        val = _row_mean(a.data)
    else:
        val = a.data.mean(axis=axis, keepdims=True)
    return _node(val if keepdims else np.squeeze(val, axis), (a,), bwd)


def reduce_max(a: Tensor, axis=None, keepdims=False) -> Tensor:
    """Max reduction; gradient routes to the first argmax."""
    a = _wrap(a)
    def bwd(g):
        if axis is None:
            mask = np.zeros_like(a.data)
            mask.flat[np.argmax(a.data)] = 1.0
            _accum(a, mask * g)
            return
        idx = np.expand_dims(np.argmax(a.data, axis=axis), axis)
        full = np.zeros_like(a.data)
        gg = g if keepdims else np.expand_dims(g, axis)
        np.put_along_axis(full, idx, gg, axis=axis)
        _accum(a, full)
    return _node(a.data.max(axis=axis, keepdims=keepdims), (a,), bwd)


# -- neural net ops ----------------------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along `axis`, whose sums follow the
    sum rule when it is the last axis."""
    x = _wrap(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    val = e / _sum_kept(e, axis)
    def bwd(g):
        dot = _sum_kept(g * val, axis)
        _accum(x, val * (g - dot))
    return _node(val, (x,), bwd)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along `axis`, whose sums follow the sum rule when it is
    the last axis."""
    x = _wrap(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(_sum_kept(np.exp(shifted), axis))
    val = shifted - lse
    def bwd(g):
        _accum(x, g - np.exp(val) * _sum_kept(g, axis))
    return _node(val, (x,), bwd)


def _row_mean(a: np.ndarray) -> np.ndarray:
    """The mean along a's last axis, kept: a @ ones[n, 1] divided by n in
    place, in a's dtype.  Bit-identical to the out-of-place arithmetic
    under the sum rule, which sums the last axis as a @ ones[n, 1]."""
    m = _sum_last(a)
    m /= a.shape[-1]
    return m


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalization over the last axis with learnable gain/bias, recorded as
    one tape node.  With x_hat = (x - mean) * inv and d = g * gain, the input
    gradient is inv * (d - mean(d) - x_hat * mean(d * x_hat))."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    x_hat = x.data - _row_mean(x.data)
    var = _row_mean(x_hat * x_hat)
    inv = (var + np.asarray(eps, var.dtype)) ** -0.5
    x_hat *= inv
    val = _widened(x_hat * gain.data, bias.data)
    val += bias.data
    def bwd(g):
        dim = g.shape[-1]
        if gain.requires_grad:
            _accum(gain, _sum_rows((g * x_hat).reshape(-1, dim)))
        if bias.requires_grad:
            _accum(bias, _sum_rows(g.reshape(-1, dim)))
        if x.requires_grad:
            d = g * gain.data
            t = d * x_hat
            m2 = _row_mean(t)
            d -= _row_mean(d)
            d = _widened(d, t)
            np.multiply(x_hat, m2, out=t)
            d -= t
            d *= inv
            _accum(x, d)
    return _node(val, (x, gain, bias), bwd)


def _split_heads(x: np.ndarray, heads: int | None) -> np.ndarray:
    """[..., T, heads * d] -> a strided view [..., heads, T, d]; x itself
    when heads is None."""
    if heads is None:
        return x
    return x.reshape(x.shape[:-1] + (heads, -1)).swapaxes(-2, -3)


def _merge_heads(x: np.ndarray, heads: int | None) -> np.ndarray:
    """[..., heads, T, d] -> a new [..., T, heads * d] array; x itself when
    heads is None."""
    if heads is None:
        return x
    x = x.swapaxes(-2, -3)
    return x.reshape(x.shape[:-2] + (-1,))


def attention(q: Tensor, k: Tensor, v: Tensor,
              bias: np.ndarray | None = None, heads: int | None = None) -> Tensor:
    """softmax(q k^T / sqrt(d) + bias) v over the last two axes, recorded as
    one tape node.

    q: [..., Tq, d]; k: [..., Tk, d]; v: [..., Tk, dv]; bias: an additive
    constant (masks) that broadcasts to the scores' shape [..., Tq, Tk]
    without enlarging it, or None; a wider bias dtype promotes the result,
    as scores + bias would.  Only the
    attention weights P are kept for the backward pass, which uses the
    softmax identity dS = P * (dP - rowsum(dP * P)) with dP = g v^T.

    With `heads` = h, q, k and v come in the layout of their projections,
    [..., T, h * d]: the node attends per head on the strided views
    [..., h, T, d], the bias broadcasts to the scores' [..., h, Tq, Tk], and
    the result (and each input gradient) has its heads merged back,
    [..., Tq, h * dv]; the same arithmetic as reshaping and transposing
    around the call, without their tape nodes.

    The scores are shifted by their row's fmax, not max, which changes only
    a NaN's bit pattern: a row holding a NaN is NaN throughout either way.
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]:
        raise DimensionError(
            f"attention shape mismatch: {q.shape}, {k.shape}, {v.shape}")
    if heads is not None and (heads < 1 or q.shape[-1] % heads
                              or v.shape[-1] % heads):
        raise DimensionError(f"attention widths {q.shape[-1]}, {v.shape[-1]} "
                             f"do not split into {heads} heads")
    qd, kd, vd = (_split_heads(a.data, heads) for a in (q, k, v))
    scale = np.asarray(1.0 / np.sqrt(qd.shape[-1]), q.dtype)
    p = np.matmul(qd, kd.swapaxes(-1, -2))
    p *= scale
    if bias is not None:
        p = _widened(p, bias)
        p += bias
    p -= np.fmax.reduce(p, axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= _sum_last(p)
    def bwd(g):
        g = _split_heads(g, heads)
        if v.requires_grad:
            _accum(v, _merge_heads(np.matmul(p.swapaxes(-1, -2), g), heads))
        if not (q.requires_grad or k.requires_grad):
            return
        ds = _widened(np.matmul(g, vd.swapaxes(-1, -2)), p)  # dP
        t = ds * p
        ds -= _sum_last(t)
        ds *= p
        ds *= scale
        if q.requires_grad:
            _accum(q, _merge_heads(np.matmul(ds, kd), heads))
        if k.requires_grad:
            _accum(k, _merge_heads(np.matmul(ds.swapaxes(-1, -2), qd), heads))
    return _node(_merge_heads(np.matmul(p, vd), heads), (q, k, v), bwd)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood of integer `targets` under `logits` [N, K]."""
    targets = np.asarray(targets)
    if logits.ndim != 2:
        raise DimensionError("cross_entropy expects [N, K] logits")
    n, k = logits.shape
    if targets.shape != (n,):
        raise DimensionError("targets length must match logits rows")
    if targets.size and (targets.min() < 0 or targets.max() >= k):
        raise IndexError("target class id out of range")
    logp = log_softmax(logits, axis=-1)
    picked = getitem(logp, (np.arange(n), targets))
    return mul(reduce_mean(picked), -1.0)


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor | None = None,
           dilation: int = 1) -> Tensor:
    """Same-padded dilated 1-D convolution, recorded as one tape node.

    x: [T, C_in]; kernel: [k, C_in, C_out] with odd k.  Output [T, C_out]
    has the same length as the input (zero padding).  The forward pass is
    one matmul of the [T, k*C_in] tap matrix with the flattened kernel; the
    backward pass gives the kernel, bias and input gradients in closed form.
    """
    k = kernel.shape[0]
    if k % 2 == 0:
        raise ConfigError("conv1d kernel length must be odd")
    if x.ndim != 2 or kernel.ndim != 3 or x.shape[1] != kernel.shape[1]:
        raise DimensionError(f"conv1d shape mismatch: {x.shape} vs {kernel.shape}")
    t, c_in = x.shape
    half = (k // 2) * dilation
    # tap i reads x[r + offsets[i]] into row r; rows outside x stay zero
    offsets = [i * dilation - half for i in range(k)]
    if k == 1:
        taps = x.data
    else:
        taps = np.zeros((t, k * c_in), x.dtype)
        for i, off in enumerate(offsets):
            lo, hi = max(0, -off), min(t, t - off)
            if lo < hi:
                taps[lo:hi, i * c_in:(i + 1) * c_in] = x.data[lo + off:hi + off]
    w = kernel.data.reshape(k * c_in, kernel.shape[2])
    val = taps @ w
    if bias is not None:
        val = val + bias.data
    def bwd(g):
        if kernel.requires_grad:
            _accum(kernel, (taps.T @ g).reshape(kernel.shape))
        if bias is not None and bias.requires_grad:
            _accum(bias, _sum_rows(g))
        if x.requires_grad:
            g_taps = g @ w.T  # [T, k*C_in]
            if k == 1:
                _accum(x, g_taps)
                return
            gx = np.zeros((t, c_in), g_taps.dtype)
            for i, off in enumerate(offsets):
                lo, hi = max(0, off), min(t, t + off)
                if lo < hi:
                    gx[lo:hi] += g_taps[lo - off:hi - off, i * c_in:(i + 1) * c_in]
            _accum(x, gx)
    return _node(val, (x, kernel) if bias is None else (x, kernel, bias), bwd)


# -- gradient checking -------------------------------------------------------


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor],
               eps: float | None = None) -> float:
    """Compare reverse-mode gradients of scalar `f` against central differences.

    Returns the maximum relative error over all coordinates of `params`.
    `f` must be deterministic and must read the params' current data.  The
    finite-difference evaluations of `f` record no tape.
    """
    if eps is not None and eps <= 0:
        raise InputError("eps must be positive")
    for p in params:
        p.zero_grad()
    out = f()
    if not np.isfinite(out.data).all():
        raise NumericError("f produced a non-finite value")
    out.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]
    worst = 0.0
    with no_grad():
        for p, a in zip(params, analytic):
            h = eps if eps is not None else (1e-6 if p.dtype == np.float64 else 1e-2)
            flat = p.data.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = float(f().data)
                flat[i] = orig - h
                down = float(f().data)
                flat[i] = orig
                if not (math.isfinite(up) and math.isfinite(down)):
                    raise NumericError("f produced a non-finite value during FD")
                numeric = (up - down) / (2.0 * h)
                ad = float(a.reshape(-1)[i])
                denom = max(abs(ad) + abs(numeric), 1.0)
                worst = max(worst, abs(ad - numeric) / denom)
    return worst
