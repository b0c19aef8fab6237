"""Optimization: AdamW, cosine-annealed LR with linear warmup, gradient clipping."""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, NumericError


def clip_global_norm(params: Dict[str, Tensor], max_norm: float = 5.0) -> float:
    """Scale all gradients so their global L2 norm is at most `max_norm`.

    Returns the pre-clipping norm.
    """
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * np.asarray(scale, dtype=p.grad.dtype)
    return norm


def check_finite_step(step: int, loss: float, grad_norm: float) -> None:
    """Stop a training loop before it updates weights from a non-finite
    loss or pre-clip gradient norm."""
    if not (math.isfinite(loss) and math.isfinite(grad_norm)):
        raise NumericError(f"step {step}: non-finite loss ({loss}) or "
                           f"gradient norm ({grad_norm})")


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
    """Decoupled weight decay Adam over a name -> Tensor parameter dict."""

    def __init__(self, params: Dict[str, Tensor], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.01):
        self.params = {n: p for n, p in params.items() if p.requires_grad}
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = {n: np.zeros_like(p.data) for n, p in self.params.items()}
        self._v = {n: np.zeros_like(p.data) for n, p in self.params.items()}

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad.astype(p.dtype)
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data = p.data - np.asarray(self.lr, p.dtype) * (
                update + self.weight_decay * p.data)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()
