"""Seeded random number generation, owned per session (no global state)."""

from __future__ import annotations

import numpy as np


class SessionRng:
    """A seeded generator owned by one training/generation session.

    Child generators are derived deterministically so per-video or
    per-epoch work can be parallelized without shared state.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._rng = np.random.Generator(np.random.PCG64(self.seed))

    def child(self, stream: int) -> "SessionRng":
        derived = np.random.SeedSequence([self.seed, int(stream)]).generate_state(1)[0]
        return SessionRng(int(derived))

    def normal(self, scale: float, shape, dtype=np.float32) -> np.ndarray:
        return self._rng.normal(0.0, scale, size=shape).astype(dtype)

    def uniform(self, low: float, high: float, shape=None, dtype=np.float32):
        out = self._rng.uniform(low, high, size=shape)
        return out.astype(dtype) if shape is not None else float(out)

    def integers(self, low: int, high: int, size=None):
        return self._rng.integers(low, high, size=size)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self._rng.choice(n, size=size, replace=replace)

    def permutation(self, n: int) -> np.ndarray:
        return self._rng.permutation(n)
