"""Two-stage surgical workflow understanding: a short-range video-language
model feeding long-range temporal segmentation, with corpus tooling,
evaluation metrics, and a command-line harness."""

__version__ = "0.1.0"

import ctypes

from .errors import (ConfigError, DimensionError, InputError, NumericError,
                     StateError, SurgflowError, VocabError)

__all__ = [
    "__version__",
    "SurgflowError", "DimensionError", "ConfigError", "InputError",
    "VocabError", "StateError", "NumericError",
]


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 32 MiB (the most its dynamic rule
    reaches) and its trim threshold at 64 MiB (twice that, as the rule would
    set it).  Left dynamic, both rise only after the process frees a large
    block, so whether the hot path's 1-4 MiB temporaries come from fresh
    mmapped pages on every step would depend on what was freed earlier.
    A no-op where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # from glibc's malloc.h
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)


_pin_malloc_thresholds()
