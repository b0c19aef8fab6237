"""Optimization: AdamW, cosine-annealed LR with linear warmup, gradient
clipping, and `train`, the one training loop built from them."""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Tuple

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, NumericError
from .rng import SessionRng


# the gradient-norm bound and decoupled weight decay of every training run
CLIP_NORM = 5.0
WEIGHT_DECAY = 0.01

# Elements per group of `_grad_groups`: a group's gathered gradients,
# weights and scratch stay in cache (measured sweep: see CHANGES.md).
_GROUP_SIZE = 32768


def _grad_groups(params: Dict[str, Tensor]):
    """Yield lists of consecutive (name, tensor, size) items of `params`, in
    order, whose tensors have a grad and share a dtype: each list holds at
    most `_GROUP_SIZE` elements in all, or a single larger tensor.  A tensor
    without a grad ends a group."""
    group, total, dtype = [], 0, None
    for name, p in params.items():
        data = p.data
        if group and (p.grad is None or data.dtype != dtype
                      or total + data.size > _GROUP_SIZE):
            yield group
            group, total = [], 0
        if p.grad is not None:
            group.append((name, p, data.size))
            total += data.size
            dtype = data.dtype
    if group:
        yield group


def clip_global_norm(params: Dict[str, Tensor],
                     max_norm: float = CLIP_NORM) -> float:
    """Scale all gradients so their global L2 norm is at most `max_norm`.

    Returns the pre-clipping norm: the square root of the sum, in order, of
    one float64 sum of squares per group of `_grad_groups`.  A group's
    grads are read in memory order into one float64 scratch array, squared
    in place and summed by NumPy's pairwise `np.add.reduce`.  (A BLAS dot
    product would split the sum across threads, so its bits would depend
    on the thread count.)
    """
    total = 0.0
    for group in _grad_groups(params):
        sq = np.concatenate([p.grad.ravel(order="K") for _, p, _ in group],
                            dtype=np.float64)
        np.multiply(sq, sq, out=sq)
        total += float(np.add.reduce(sq))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * np.asarray(scale, dtype=p.grad.dtype)
    return norm


class CosineWarmupSchedule:
    """Linear warmup to lr_max, then cosine annealing to lr_min.

    lr(step) for step < warmup_steps ramps linearly with
    lr(0) = lr_max / warmup_steps and lr(warmup_steps) = lr_max;
    lr(total_steps) = lr_min.
    """

    def __init__(self, lr_max: float, lr_min: float, warmup_steps: int,
                 total_steps: int):
        if warmup_steps < 1 or total_steps <= warmup_steps:
            raise ConfigError("need 1 <= warmup_steps < total_steps")
        if lr_min > lr_max:
            raise ConfigError("lr_min must not exceed lr_max")
        self.lr_max = lr_max
        self.lr_min = lr_min
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps

    def lr(self, step: int) -> float:
        if step < self.warmup_steps:
            return self.lr_max * (step + 1) / self.warmup_steps
        progress = (step - self.warmup_steps) / (self.total_steps - self.warmup_steps)
        progress = min(progress, 1.0)
        return self.lr_min + 0.5 * (self.lr_max - self.lr_min) * (
            1.0 + math.cos(math.pi * progress))


class AdamW:
    """Decoupled weight decay Adam over a name -> Tensor parameter dict.

    The moments live in one flat `m` and one flat `v` array per dtype, in
    parameter order; `_m[name]` and `_v[name]` are shaped views into them.
    `step` runs over the groups of `_grad_groups`: it gathers a group's
    grads and weights into flat arrays, updates the moments in place with
    scratch the size of the group, and copies the new weights back into
    each parameter's `data`.  It never writes into a `grad` array, which
    autodiff may share between tensors; the gathered copy of the grads
    becomes the update once the moments have read it.

    The moments are the true (biased) ones.  The bias corrections bc1 and
    bc2 are folded into two scalars, each taken in float64 and cast once:
    lr m_hat / (sqrt(v_hat) + eps) is step_size m / (sqrt(v) + eps_hat)
    with step_size = lr sqrt(bc2) / bc1 and eps_hat = eps sqrt(bc2).  The
    decoupled decay lr wd w is added to the update.  That is 14 passes over
    a group's elements.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: Dict[str, Tensor], lr: float = 1e-3,
                 weight_decay: float = WEIGHT_DECAY):
        self.params = {n: p for n, p in params.items() if p.requires_grad}
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        # each tensor's offset into the flat moments of its dtype
        self._offset: Dict[str, int] = {}
        sizes: Dict[np.dtype, int] = {}
        for name, p in self.params.items():
            self._offset[name] = sizes.get(p.dtype, 0)
            sizes[p.dtype] = self._offset[name] + p.size
        self._flat_m = {dt: np.zeros(n, dt) for dt, n in sizes.items()}
        self._flat_v = {dt: np.zeros(n, dt) for dt, n in sizes.items()}
        self._m, self._v = {}, {}
        for name, p in self.params.items():
            span = slice(self._offset[name], self._offset[name] + p.size)
            self._m[name] = self._flat_m[p.dtype][span].reshape(p.shape)
            self._v[name] = self._flat_v[p.dtype][span].reshape(p.shape)

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        root_bc2 = math.sqrt(1.0 - b2 ** self.t)
        step_size = self.lr * root_bc2 / (1.0 - b1 ** self.t)
        eps_hat = self.eps * root_bc2
        decay = self.lr * self.weight_decay
        for group in _grad_groups(self.params):
            ps = [p for _, p, _ in group]
            dtype = ps[0].data.dtype
            start = self._offset[group[0][0]]
            span = slice(start, start + sum(size for _, _, size in group))
            m, v = self._flat_m[dtype][span], self._flat_v[dtype][span]
            g = np.concatenate([p.grad for p in ps], axis=None, dtype=dtype,
                               casting="same_kind")
            w = np.concatenate([p.data for p in ps], axis=None)
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
            s = np.multiply(g, 1.0 - b1)
            m *= b1
            m += s
            np.multiply(g, 1.0 - b2, out=s)
            s *= g
            v *= b2
            v += s
            # w -= step_size m / (sqrt(v) + eps_hat) + decay w, with the
            # update in g
            np.sqrt(v, out=s)
            s += np.asarray(eps_hat, dtype)
            np.divide(m, s, out=g)
            g *= np.asarray(step_size, dtype)
            np.multiply(w, np.asarray(decay, dtype), out=s)
            g += s
            w -= g
            start = 0
            for _, p, size in group:
                np.copyto(p.data, w[start:start + size].reshape(p.data.shape))
                start += size

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


def train(params: Dict[str, Tensor], n_items: int, batch_size: int,
          loss_of: Callable[[np.ndarray], Tuple[Tensor, dict]], cfg,
          rng: SessionRng, max_steps: int | None = None) -> List[dict]:
    """Train `params` on shuffled epochs of `n_items` items in batches.

    `cfg` supplies epochs, lr_max and lr_min.  The rate warms up linearly
    over the first epoch, then cosine-decays to lr_min at the last step; a
    single-step run uses lr_max.  Each step clips the gradients to a global
    norm of CLIP_NORM and takes one AdamW step with WEIGHT_DECAY.
    `loss_of(indices)` returns the batch loss and a row of figures; the
    result has one {"step", "lr", **row, "grad_norm", "clipped"} per step,
    with the pre-clip gradient norm and whether clipping scaled the
    gradients.  Raises NumericError naming the step, before any update, when
    the loss or the pre-clip gradient norm is not finite.  Raises
    ConfigError, before the first step, when epochs, batch_size or max_steps
    is below 1.
    """
    for name, value in (("epochs", cfg.epochs), ("batch_size", batch_size),
                        ("max_steps", max_steps)):
        if value is not None and value < 1:
            raise ConfigError(f"{name} must be at least 1, got {value}")
    steps_per_epoch = math.ceil(n_items / batch_size)
    total = cfg.epochs * steps_per_epoch
    if max_steps is not None:
        total = min(total, max_steps)
    schedule = (CosineWarmupSchedule(cfg.lr_max, cfg.lr_min,
                                     warmup_steps=min(steps_per_epoch, total - 1),
                                     total_steps=total)
                if total > 1 else None)
    opt = AdamW(params, lr=cfg.lr_max)
    rows: List[dict] = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n_items)
        for start in range(0, n_items, batch_size):
            step = len(rows)
            opt.zero_grad()
            loss, row = loss_of(order[start:start + batch_size])
            loss.backward()
            value = float(loss.data)
            norm = clip_global_norm(params)
            if not (math.isfinite(value) and math.isfinite(norm)):
                raise NumericError(f"step {step}: non-finite loss ({value}) "
                                   f"or gradient norm ({norm})")
            opt.lr = schedule.lr(step) if schedule else cfg.lr_max
            opt.step()
            rows.append({"step": step, "lr": opt.lr, **row, "grad_norm": norm,
                         "clipped": norm > CLIP_NORM and norm > 0})
            if len(rows) >= total:
                return rows
    return rows
