"""Small neural-network layer library on top of the autodiff core."""

from __future__ import annotations

from typing import Dict, Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .rng import SessionRng


class Module:
    """Base class; collects parameters from Tensor/Module/list attributes.

    Attributes whose name starts with an underscore are skipped, which is
    how weight-shared references avoid double registration.
    """

    def parameters(self, prefix: str = "") -> Dict[str, Tensor]:
        out: Dict[str, Tensor] = {}
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            key = f"{prefix}{name}"
            if isinstance(value, Tensor):
                out[key] = value
            elif isinstance(value, Module):
                out.update(value.parameters(f"{key}."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.update(item.parameters(f"{key}.{i}."))
        return out

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all submodules (shared refs excluded)."""
        yield self
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {n: p.data.copy() for n, p in self.parameters().items()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        params = self.parameters()
        missing = set(params) - set(state)
        if missing:
            raise KeyError(f"missing parameters in state dict: {sorted(missing)[:5]}")
        unexpected = set(state) - set(params)
        if unexpected:
            raise KeyError(f"unexpected keys in state dict: {sorted(unexpected)[:5]}")
        for name, p in params.items():
            arr = np.asarray(state[name], dtype=p.dtype)
            if arr.shape != p.shape:
                raise ValueError(f"{name}: shape {arr.shape} != {p.shape}")
            p.data = arr.copy()


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: SessionRng, bias: bool = True):
        scale = 1.0 / np.sqrt(d_in)
        self.weight = Tensor(rng.normal(scale, (d_in, d_out)), requires_grad=True)
        self.bias = Tensor(np.zeros(d_out, np.float32), requires_grad=True) if bias else None

    @property
    def d_in(self) -> int:
        return self.weight.shape[0]

    @property
    def d_out(self) -> int:
        return self.weight.shape[1]

    def __call__(self, x: Tensor) -> Tensor:
        out = ad.matmul(x, self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        self.gain = Tensor(np.ones(dim, np.float32), requires_grad=True)
        self.shift = Tensor(np.zeros(dim, np.float32), requires_grad=True)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gain, self.shift, self.eps)


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

    def __call__(self, query: Tensor, keyval: Tensor,
                 attn_mask: np.ndarray | None = None,
                 key_pad: np.ndarray | None = None) -> Tensor:
        """query [B, Tq, C], keyval [B, Tk, C].

        attn_mask: additive [Tq, Tk] (e.g. causal); key_pad: boolean
        [B, Tk], True at padded keys.
        """
        b, tq, c = query.shape
        tk = keyval.shape[1]
        h = self.n_heads
        dh = c // h

        def split(x: Tensor, t: int) -> Tensor:
            return ad.transpose(ad.reshape(x, (b, t, h, dh)), (0, 2, 1, 3))

        q = split(self.w_q(query), tq)
        k = split(self.w_k(keyval), tk)
        v = split(self.w_v(keyval), tk)
        scores = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
        bias = np.zeros((b, 1, tq, tk), np.float32)
        if attn_mask is not None:
            bias = bias + attn_mask[None, None, :, :]
        if key_pad is not None:
            bias = bias + np.where(key_pad, -1e9, 0.0)[:, None, None, :].astype(np.float32)
        if attn_mask is not None or key_pad is not None:
            scores = scores + Tensor(bias)
        attn = ad.softmax(scores, axis=-1)
        out = ad.matmul(attn, v)
        out = ad.reshape(ad.transpose(out, (0, 2, 1, 3)), (b, tq, c))
        return self.w_o(out)


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
