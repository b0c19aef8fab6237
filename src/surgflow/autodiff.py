"""Dense tensor arithmetic with reverse-mode differentiation.

Tensors wrap numpy arrays (float32 by default, float64 for gradient
verification) and record their producing operation so that ``backward``
can replay the tape in reverse topological order.  Tensor values are
treated as immutable once created; optimizers mutate leaf ``data``
in place between tape constructions.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

from .errors import DimensionError, InputError, NumericError

DEFAULT_DTYPE = np.float32

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


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


class Tensor:
    """A node in the computation graph.

    Leaves with ``requires_grad=True`` accumulate gradients in ``grad``
    after ``backward``.  Interior nodes keep references to their parents
    and a backward closure.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None,
                 _parents: tuple = (), _backward: Callable | None = None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else None)
        if arr.dtype not in (np.float32, np.float64):
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

    def assert_finite(self) -> "Tensor":
        if not np.all(np.isfinite(self.data)):
            raise NumericError("tensor contains NaN or Inf")
        return self

    # -- autodiff ------------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from this (scalar) tensor."""
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
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                node.grad = None  # free interior grads

    def zero_grad(self) -> None:
        self.grad = None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(_wrap(other, self.dtype), -1.0))

    def __rsub__(self, other):
        return add(_wrap(other, self.dtype), mul(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _wrap(other, self.dtype)
        return mul(self, power(other, -1.0))

    def __rtruediv__(self, other):
        return mul(_wrap(other, self.dtype), power(self, -1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __getitem__(self, index):
        return getitem(self, index)

    # -- shape ops -----------------------------------------------------------

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 or isinstance(shape[0], int) else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes or None)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)

    def max(self, axis=None, keepdims=False):
        return reduce_max(self, axis, keepdims)


def _wrap(x, dtype=DEFAULT_DTYPE) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _accum(t: Tensor, g: np.ndarray) -> None:
    g = _unbroadcast(g, t.shape)
    if t.grad is None:
        t.grad = g.astype(t.dtype, copy=True)
    else:
        t.grad = t.grad + g.astype(t.dtype)


def _node(data: np.ndarray, parents: Sequence[Tensor]) -> Tensor:
    req = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req, _parents=tuple(p for p in parents if p.requires_grad))


# -- elementwise ops ---------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b, a.dtype if isinstance(a, Tensor) else DEFAULT_DTYPE)
    out = _node(a.data + b.data, (a, b))
    if out.requires_grad:
        def bwd(g, a=a, b=b):
            if a.requires_grad:
                _accum(a, g)
            if b.requires_grad:
                _accum(b, g)
        out._backward = bwd
    return out


def mul(a, b) -> Tensor:
    a = _wrap(a)
    b = _wrap(b, a.dtype)
    out = _node(a.data * b.data, (a, b))
    if out.requires_grad:
        def bwd(g, a=a, b=b):
            if a.requires_grad:
                _accum(a, g * b.data)
            if b.requires_grad:
                _accum(b, g * a.data)
        out._backward = bwd
    return out


def power(a: Tensor, exponent: float) -> Tensor:
    a = _wrap(a)
    out = _node(a.data ** exponent, (a,))
    if out.requires_grad:
        def bwd(g, a=a):
            _accum(a, g * exponent * a.data ** (exponent - 1.0))
        out._backward = bwd
    return out


def exp(a: Tensor) -> Tensor:
    a = _wrap(a)
    val = np.exp(a.data)
    out = _node(val, (a,))
    if out.requires_grad:
        def bwd(g, a=a, val=val):
            _accum(a, g * val)
        out._backward = bwd
    return out


def log(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = _node(np.log(a.data), (a,))
    if out.requires_grad:
        def bwd(g, a=a):
            _accum(a, g / a.data)
        out._backward = bwd
    return out


def tanh(a: Tensor) -> Tensor:
    a = _wrap(a)
    val = np.tanh(a.data)
    out = _node(val, (a,))
    if out.requires_grad:
        def bwd(g, a=a, val=val):
            _accum(a, g * (1.0 - val * val))
        out._backward = bwd
    return out


def relu(a: Tensor) -> Tensor:
    a = _wrap(a)
    out = _node(np.maximum(a.data, 0.0), (a,))
    if out.requires_grad:
        def bwd(g, a=a):
            _accum(a, g * (a.data > 0))
        out._backward = bwd
    return out


def gelu(a: Tensor) -> Tensor:
    """Exact-erf GELU."""
    a = _wrap(a)
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out = _node(x * cdf, (a,))
    if out.requires_grad:
        def bwd(g, a=a, cdf=cdf):
            x = a.data
            pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
            _accum(a, g * (cdf + x * pdf))
        out._backward = bwd
    return out


# -- matmul / shape ops ------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 1 or b.ndim < 1:
        raise DimensionError("matmul requires tensors of rank >= 1")
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise DimensionError(f"matmul inner dims mismatch: {a.shape} x {b.shape}")
    out = _node(np.matmul(a.data, b.data), (a, b))
    if out.requires_grad:
        def bwd(g, a=a, b=b):
            if a.requires_grad:
                _accum(a, np.matmul(g, np.swapaxes(b.data, -1, -2)))
            if b.requires_grad:
                _accum(b, np.matmul(np.swapaxes(a.data, -1, -2), g))
        out._backward = bwd
    return out


def reshape(a: Tensor, shape) -> Tensor:
    a = _wrap(a)
    out = _node(a.data.reshape(shape), (a,))
    if out.requires_grad:
        def bwd(g, a=a):
            _accum(a, g.reshape(a.shape))
        out._backward = bwd
    return out


def transpose(a: Tensor, axes=None) -> Tensor:
    a = _wrap(a)
    out = _node(np.transpose(a.data, axes), (a,))
    if out.requires_grad:
        inv = None if axes is None else np.argsort(axes)
        def bwd(g, a=a, inv=inv):
            _accum(a, np.transpose(g, inv))
        out._backward = bwd
    return out


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [_wrap(p) for p in parts]
    out = _node(np.concatenate([p.data for p in parts], axis=axis), parts)
    if out.requires_grad:
        sizes = [p.shape[axis] for p in parts]
        splits = np.cumsum(sizes)[:-1]
        def bwd(g, parts=parts, splits=splits, axis=axis):
            for p, piece in zip(parts, np.split(g, splits, axis=axis)):
                if p.requires_grad:
                    _accum(p, piece)
        out._backward = bwd
    return out


def stack(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [_wrap(p) for p in parts]
    out = _node(np.stack([p.data for p in parts], axis=axis), parts)
    if out.requires_grad:
        def bwd(g, parts=parts, axis=axis):
            for i, p in enumerate(parts):
                if p.requires_grad:
                    _accum(p, np.take(g, i, axis=axis))
        out._backward = bwd
    return out


def pad(a: Tensor, pad_width) -> Tensor:
    """Zero padding; pad_width as in np.pad."""
    a = _wrap(a)
    out = _node(np.pad(a.data, pad_width), (a,))
    if out.requires_grad:
        slices = tuple(slice(lo, lo + dim) for (lo, _), dim in zip(pad_width, a.shape))
        def bwd(g, a=a, slices=slices):
            _accum(a, g[slices])
        out._backward = bwd
    return out


def getitem(a: Tensor, index) -> Tensor:
    a = _wrap(a)
    out = _node(a.data[index], (a,))
    if out.requires_grad:
        def bwd(g, a=a, index=index):
            full = np.zeros_like(a.data)
            np.add.at(full, index, g)
            _accum(a, full)
        out._backward = bwd
    return out


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into `weight` by integer id array."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= weight.shape[0]):
        raise IndexError("embedding id out of range")
    return getitem(weight, ids)


# -- reductions --------------------------------------------------------------


def reduce_sum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    a = _wrap(a)
    out = _node(a.data.sum(axis=axis, keepdims=keepdims), (a,))
    if out.requires_grad:
        def bwd(g, a=a, axis=axis, keepdims=keepdims):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(g, a.shape))
        out._backward = bwd
    return out


def reduce_mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    a = _wrap(a)
    out = _node(a.data.mean(axis=axis, keepdims=keepdims), (a,))
    if out.requires_grad:
        count = a.size if axis is None else np.prod(
            [a.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])
        def bwd(g, a=a, axis=axis, keepdims=keepdims, count=count):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(g, a.shape) / count)
        out._backward = bwd
    return out


def reduce_max(a: Tensor, axis=None, keepdims=False) -> Tensor:
    """Max reduction; gradient routes to the first argmax."""
    a = _wrap(a)
    val = a.data.max(axis=axis, keepdims=keepdims)
    out = _node(val, (a,))
    if out.requires_grad:
        def bwd(g, a=a, axis=axis, keepdims=keepdims):
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
        out._backward = bwd
    return out


# -- neural net ops ----------------------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along `axis`."""
    x = _wrap(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    val = e / e.sum(axis=axis, keepdims=True)
    out = _node(val, (x,))
    if out.requires_grad:
        def bwd(g, x=x, val=val, axis=axis):
            dot = (g * val).sum(axis=axis, keepdims=True)
            _accum(x, val * (g - dot))
        out._backward = bwd
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _wrap(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    val = shifted - lse
    out = _node(val, (x,))
    if out.requires_grad:
        def bwd(g, x=x, val=val, axis=axis):
            _accum(x, g - np.exp(val) * g.sum(axis=axis, keepdims=True))
        out._backward = bwd
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalization over the last axis with learnable gain/bias."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = reduce_mean(centered * centered, axis=-1, keepdims=True)
    inv = power(var + eps, -0.5)
    return centered * inv * gain + bias


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
    """Same-padded dilated 1-D convolution.

    x: [T, C_in]; kernel: [k, C_in, C_out] with odd k.  Output [T, C_out]
    has the same length as the input (zero padding).
    """
    from .errors import ConfigError
    k = kernel.shape[0]
    if k % 2 == 0:
        raise ConfigError("conv1d kernel length must be odd")
    if x.ndim != 2 or kernel.ndim != 3 or x.shape[1] != kernel.shape[1]:
        raise DimensionError(f"conv1d shape mismatch: {x.shape} vs {kernel.shape}")
    half = (k // 2) * dilation
    xp = pad(x, ((half, half), (0, 0)))
    t = x.shape[0]
    taps = [getitem(xp, slice(i * dilation, i * dilation + t)) for i in range(k)]
    stacked = concat(taps, axis=1)  # [T, k*C_in]
    w = reshape(kernel, (k * kernel.shape[1], kernel.shape[2]))
    out = matmul(stacked, w)
    if bias is not None:
        out = out + bias
    return out


# -- gradient checking -------------------------------------------------------


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor],
               eps: float | None = None) -> float:
    """Compare reverse-mode gradients of scalar `f` against central differences.

    Returns the maximum relative error over all coordinates of `params`.
    `f` must be deterministic and must read the params' current data.
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
