import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from surgflow.models import (CAPTION_PROMPT, MGA_PROMPT, ModelConfig,
                             Stage1Model)
from surgflow.rng import SessionRng
from surgflow.vocab import Vocabulary

# Property tests draw the same examples on every run, and have no deadline
# because interpreter speed varies between runs on a shared machine.
settings.register_profile("surgflow", derandomize=True, deadline=None,
                          database=None, max_examples=200)
settings.load_profile("surgflow")

TINY_TEXTS = [
    "a small red square moves",
    "a blue probe crosses the frame",
    "nothing is happening here",
]


def make_tiny_model(seed: int = 0, n_layers: int = 1) -> Stage1Model:
    cfg = ModelConfig(dim=8, n_layers=n_layers, n_heads=2, ff_mult=2, n_frames=2,
                      frame_size=8, patch_size=4, max_text_len=16,
                      contrast_dim=4)
    vocab = Vocabulary.build(TINY_TEXTS + [MGA_PROMPT, CAPTION_PROMPT])
    return Stage1Model(cfg, vocab, SessionRng(seed))


def tiny_clips(rng: SessionRng, n: int, frames: int = 3):
    return [rng.uniform(0.0, 1.0, (frames, 8, 8, 3), np.float32)
            for _ in range(n)]


def traced_bytes(fn):
    """(bytes still allocated, peak bytes) of `fn()` under tracemalloc,
    counted from its start, and what `fn` returned."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return current - base, peak - base, out


@pytest.fixture
def tiny_model():
    return make_tiny_model()
