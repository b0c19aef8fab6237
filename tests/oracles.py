"""Shared brute-force reference implementations used by multiple test modules."""

import numpy as np

from surgflow.autodiff import (Tensor, concat, getitem, matmul, pad,
                               reshape)
from surgflow.errors import ConfigError, DimensionError


def max_empty_rect_area(width, height, boxes):
    """Exhaustive maximal empty rectangle via coordinate compression.

    A maximal empty rectangle can always grow until each side touches a box
    edge or the frame border, so only compressed coordinates need checking.
    """
    xs = sorted({0, width} | {b.x0 for b in boxes} | {b.x1 for b in boxes})
    ys = sorted({0, height} | {b.y0 for b in boxes} | {b.y1 for b in boxes})
    best = 0
    for i, x0 in enumerate(xs):
        for x1 in xs[i + 1:]:
            for j, y0 in enumerate(ys):
                for y1 in ys[j + 1:]:
                    if any(b.intersects(x0, y0, x1, y1) for b in boxes):
                        continue
                    best = max(best, (x1 - x0) * (y1 - y0))
    return best


def brute_similarity(e_t, w_t, e_v, w_v):
    """Nested-loop fine-grained similarity for one text/video pair.

    For each token on one side, find its best-matching token on the other
    side; weight those maxima and average the two directions.
    """
    e_t, w_t = np.asarray(e_t, np.float64), np.asarray(w_t, np.float64)
    e_v, w_v = np.asarray(e_v, np.float64), np.asarray(w_v, np.float64)
    t2v = 0.0
    for i in range(e_t.shape[0]):
        best = -np.inf
        for j in range(e_v.shape[0]):
            best = max(best, float(e_t[i] @ e_v[j]))
        t2v += w_t[i] * best
    v2t = 0.0
    for j in range(e_v.shape[0]):
        best = -np.inf
        for i in range(e_t.shape[0]):
            best = max(best, float(e_v[j] @ e_t[i]))
        v2t += w_v[j] * best
    return 0.5 * (t2v + v2t)


def unfused_conv1d(x: Tensor, kernel: Tensor, bias: Tensor | None = None,
                   dilation: int = 1) -> Tensor:
    """Same-padded dilated 1-D convolution composed from tape ops (pad, one
    getitem per tap, concat, reshape, matmul, bias add): the multi-node
    formulation that autodiff.conv1d computes as a single node."""
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


def left_edge_rasterize(timeline, fps=1.0):
    """Left-edge rasterisation: frame i takes the label at i / fps."""
    labels = []
    duration = timeline.duration
    n = int(round(duration * fps))
    for i in range(n):
        t = i / fps
        labels.append(timeline.label_at(t))
    return labels
