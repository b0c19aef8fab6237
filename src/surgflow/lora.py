"""Low-rank adapters for attention query/value projections.

Forward through an adapted projection computes W x + (alpha/r) B A x with
A [r, d_in], B [d_out, r]; B starts at zero so attaching is output-neutral.
"""

from __future__ import annotations

from typing import List

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
        if base.bias is not None:
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

    def delta(self) -> Tensor:
        """The additive weight update (alpha/r) * (B A)^T, shaped like base.weight."""
        return self.scaling * ad.matmul(ad.transpose(self.lora_a),
                                        ad.transpose(self.lora_b))

    def __call__(self, x: Tensor) -> Tensor:
        out = self.base(x)
        if self.enabled and not self.merged:
            low = ad.matmul(x, ad.transpose(self.lora_a))
            out = out + self.scaling * ad.matmul(low, ad.transpose(self.lora_b))
        return out

    def merge(self) -> None:
        if self.merged:
            raise StateError("adapter already merged")
        if not self.enabled:
            raise StateError("cannot merge a disabled adapter")
        self.base.weight.data = self.base.weight.data + self.delta().data
        self.merged = True

    # Linear interface used by attention
    @property
    def d_in(self) -> int:
        return self.base.d_in

    @property
    def d_out(self) -> int:
        return self.base.d_out


def _attention_modules(model: Module) -> List[MultiHeadAttention]:
    seen: set = set()
    out = []
    for mod in model.modules():
        if isinstance(mod, MultiHeadAttention) and id(mod) not in seen:
            seen.add(id(mod))
            out.append(mod)
    return out


def attach(model: Module, r: int = 8, alpha: float | None = None,
           seed: int = 0) -> List[LoraLinear]:
    """Wrap query and value projections of every attention layer.

    Base projections are frozen; returns the created adapters.
    """
    attn_layers = _attention_modules(model)
    if not attn_layers:
        raise ConfigError("model has no attention layers")
    if alpha is None:
        alpha = float(r)
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


def freeze_base(model: Module) -> None:
    """Freeze everything except adapter factors."""
    adapter_params = set()
    for a in iter_adapters(model):
        adapter_params.add(id(a.lora_a))
        adapter_params.add(id(a.lora_b))
    if not adapter_params:
        raise StateError("no adapters attached")
    for p in model.parameters().values():
        p.requires_grad = id(p) in adapter_params


_PREFIX = "lora."


def adapter_checkpoint(model: Module) -> dict:
    """The adapter factors of `model` as a "lora."-prefixed checkpoint; the
    inverse of load_adapter_checkpoint."""
    return {f"{_PREFIX}{k}": v for k, v in model.state_dict().items()
            if ".lora_" in k}


def load_adapter_checkpoint(model: Module, entries: dict) -> None:
    """Load a "lora."-prefixed adapter checkpoint into an adapted model."""
    params = model.parameters()
    for key, value in entries.items():
        if not key.startswith(_PREFIX):
            raise StateError(f"not an adapter entry: {key}")
        name = key[len(_PREFIX):]
        if name not in params:
            raise KeyError(f"adapter parameter {name} not found in model")
        params[name].data = np.asarray(value, params[name].dtype).copy()


def merge(model: Module) -> None:
    """Fold every adapter into its base weight; forward then uses base only."""
    adapters = iter_adapters(model)
    if not adapters:
        raise StateError("no adapters attached")
    for a in adapters:
        a.merge()
