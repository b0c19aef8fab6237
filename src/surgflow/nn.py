"""Small neural-network layer library on top of the autodiff core."""

from __future__ import annotations

from typing import Dict, Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InputError, require_keys
from .rng import SessionRng


class Module:
    """Base class; collects parameters from Tensor/Module/list attributes.

    Attributes whose name starts with an underscore are skipped, which is
    how weight-shared references avoid double registration.
    """

    def _members(self) -> Iterator[tuple]:
        """(name, value) of each public Tensor or Module attribute, and
        (`name.i`, module) of each Module in a list or tuple attribute."""
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            if isinstance(value, (Tensor, Module)):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{i}", item

    def parameters(self, prefix: str = "") -> Dict[str, Tensor]:
        out: Dict[str, Tensor] = {}
        for name, value in self._members():
            if isinstance(value, Tensor):
                out[prefix + name] = value
            else:
                out.update(value.parameters(f"{prefix}{name}."))
        return out

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all submodules (shared refs excluded)."""
        yield self
        for _, value in self._members():
            if isinstance(value, Module):
                yield from value.modules()

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {n: p.data.copy() for n, p in self.parameters().items()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        load_parameters(self.parameters(), state)


def load_parameters(params: Dict[str, Tensor], state: Dict[str, np.ndarray],
                    source="state dict") -> None:
    """Copy `state` into `params` when it holds exactly their names, each
    with its parameter's shape; otherwise raise an InputError naming
    `source` and assign nothing.  Every checkpoint is loaded by this rule."""
    require_keys(source, state, params)
    wrong = [f"{name} {np.shape(state[name])} != {p.shape}"
             for name, p in params.items() if np.shape(state[name]) != p.shape]
    if wrong:
        raise InputError(f"{source}: wrong shapes: " + ", ".join(wrong[:5]))
    for name, p in params.items():
        p.data = np.asarray(state[name], dtype=p.dtype).copy()


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: SessionRng):
        scale = 1.0 / np.sqrt(d_in)
        self.weight = Tensor(rng.normal(scale, (d_in, d_out)), requires_grad=True)
        self.bias = Tensor(np.zeros(d_out, np.float32), requires_grad=True)

    @property
    def d_in(self) -> int:
        return self.weight.shape[0]

    @property
    def d_out(self) -> int:
        return self.weight.shape[1]

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim, np.float32), requires_grad=True)
        self.shift = Tensor(np.zeros(dim, np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gain, self.shift)


class MultiHeadAttention(Module):
    """Multi-head attention; query/value projections are LoRA targets."""

    def __init__(self, dim: int, n_heads: int, rng: SessionRng):
        if dim % n_heads:
            raise ValueError("dim must be divisible by n_heads")
        self.n_heads = n_heads
        self.w_q = Linear(dim, dim, rng)
        self.w_k = Linear(dim, dim, rng)
        self.w_v = Linear(dim, dim, rng)
        self.w_o = Linear(dim, dim, rng)

    def keys_values(self, keyval: Tensor) -> tuple:
        """Keys and values [B, Tk, C] of keyval [B, Tk, C], heads unsplit."""
        return self.w_k(keyval), self.w_v(keyval)

    def __call__(self, query: Tensor, keyval: Tensor | None = None,
                 attn_mask: np.ndarray | None = None,
                 key_pad: np.ndarray | None = None,
                 kv: tuple | None = None) -> Tensor:
        """query [B, Tq, C] attends to keyval [B, Tk, C], or to `kv`, its
        keys and values from `keys_values`; the heads are split and merged
        inside the one attention node.

        attn_mask: additive [Tq, Tk] (e.g. causal); key_pad: boolean
        [B, Tk], True at padded keys.
        """
        q = self.w_q(query)
        k, v = self.keys_values(keyval) if kv is None else kv
        bias = attn_mask
        if key_pad is not None:
            pad = np.where(key_pad, -1e9, 0.0)[:, None, None, :].astype(np.float32)
            bias = pad if bias is None else bias + pad
        return self.w_o(ad.attention(q, k, v, bias, heads=self.n_heads))


class FeedForward(Module):
    def __init__(self, dim: int, hidden: int, rng: SessionRng):
        self.fc1 = Linear(dim, hidden, rng)
        self.fc2 = Linear(hidden, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(ad.gelu(self.fc1(x)))


class TransformerBlock(Module):
    """Pre-norm self-attention + feed-forward block."""

    def __init__(self, dim: int, n_heads: int, ff_mult: int, rng: SessionRng):
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, n_heads, rng)
        self.ln2 = LayerNorm(dim)
        self.ff = FeedForward(dim, dim * ff_mult, rng)

    def __call__(self, x: Tensor, attn_mask=None, key_pad=None) -> Tensor:
        normed = self.ln1(x)
        x = x + self.attn(normed, normed, attn_mask=attn_mask, key_pad=key_pad)
        return x + self.ff(self.ln2(x))


def causal_mask(t: int) -> np.ndarray:
    """Additive lower-triangular mask [t, t]."""
    mask = np.full((t, t), -1e9, np.float32)
    return np.triu(mask, k=1)
