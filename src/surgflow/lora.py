"""Low-rank adapters for attention query/value projections.

Forward through an adapted projection computes W x + (alpha/r) B A x with
A [r, d_in], B [d_out, r]; B starts at zero so attaching is output-neutral.
An enabled, unmerged adapter is one `autodiff.linear` tape node (its
`low_rank` form), whose closure keeps only x and the [..., r] product A x.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, StateError
from .nn import Linear, Module, MultiHeadAttention
from .rng import SessionRng


class LoraLinear(Module):
    """A frozen base projection plus a trainable low-rank delta."""

    def __init__(self, base: Linear, r: int, alpha: float, rng: SessionRng):
        d_in, d_out = base.d_in, base.d_out
        if r < 1 or r > min(d_in, d_out):
            raise ConfigError(f"rank {r} invalid for {d_in}x{d_out} projection")
        self.base = base
        base.weight.requires_grad = False
        base.bias.requires_grad = False
        self.rank = r
        self.alpha = alpha
        self.lora_a = Tensor(rng.normal(0.01, (r, d_in)), requires_grad=True)
        self.lora_b = Tensor(np.zeros((d_out, r), np.float32), requires_grad=True)
        self.enabled = True
        self.merged = False

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank

    def __call__(self, x: Tensor) -> Tensor:
        if not self.enabled or self.merged:
            return self.base(x)
        return ad.linear(x, self.base.weight, self.base.bias,
                         low_rank=(self.lora_a, self.lora_b, self.scaling))

    def merge(self) -> None:
        if self.merged:
            raise StateError("adapter already merged")
        if not self.enabled:
            raise StateError("cannot merge a disabled adapter")
        delta = self.lora_a.data.T @ self.lora_b.data.T  # (B A)^T
        self.base.weight.data = self.base.weight.data + self.scaling * delta
        self.merged = True


def attach(model: Module, r: int = 8, alpha: float | None = None,
           seed: int = 0) -> List[LoraLinear]:
    """Wrap query and value projections of every attention layer.

    Base projections are frozen; returns the created adapters.
    """
    attn_layers = [m for m in model.modules()
                   if isinstance(m, MultiHeadAttention)]
    if not attn_layers:
        raise ConfigError("model has no attention layers")
    if alpha is None:
        alpha = float(r)
    if not (math.isfinite(alpha) and alpha > 0):
        raise ConfigError(f"alpha must be finite and positive, not {alpha}")
    rng = SessionRng(seed)
    adapters = []
    for layer in attn_layers:
        for slot in ("w_q", "w_v"):
            base = getattr(layer, slot)
            if isinstance(base, LoraLinear):
                raise StateError("adapters already attached")
            adapter = LoraLinear(base, r, alpha, rng)
            setattr(layer, slot, adapter)
            adapters.append(adapter)
    return adapters


def iter_adapters(model: Module) -> List[LoraLinear]:
    return [m for m in model.modules() if isinstance(m, LoraLinear)]


def set_enabled(model: Module, enabled: bool) -> None:
    for adapter in iter_adapters(model):
        adapter.enabled = enabled


def adapter_parameter_count(model: Module) -> int:
    return sum(a.lora_a.size + a.lora_b.size for a in iter_adapters(model))


_PREFIX = "lora."
_FACTOR = ".lora_"  # in the parameter name of every adapter factor only


def freeze_base(model: Module) -> None:
    """Freeze everything except adapter factors."""
    params = model.parameters()
    if not any(_FACTOR in name for name in params):
        raise StateError("no adapters attached")
    for name, p in params.items():
        p.requires_grad = _FACTOR in name


def adapter_parameters(model: Module) -> Dict[str, Tensor]:
    """The adapter factors of `model` under their checkpoint names, each
    parameter name with a "lora." prefix."""
    return {f"{_PREFIX}{k}": p for k, p in model.parameters().items()
            if _FACTOR in k}


def merge(model: Module) -> None:
    """Fold every adapter into its base weight; forward then uses base only."""
    adapters = iter_adapters(model)
    if not adapters:
        raise StateError("no adapters attached")
    for a in adapters:
        a.merge()
