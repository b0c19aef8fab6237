"""Importing surgflow pins glibc's mmap and trim thresholds, so the hot
path's megabyte temporaries are reused from the heap instead of being
mapped afresh, page-faulting on every step."""

import ctypes
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CHURN = """
import resource, sys
sys.path.insert(0, sys.argv[1])
import surgflow
import numpy as np
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    arrays = [np.ones((256, 1024), np.float32) for _ in range(8)]  # 1 MiB each
    del arrays
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_megabyte_churn_reuses_heap_pages():
    """20 rounds of eight 1 MiB arrays: about 2,000 minor faults with the
    pin, about 40,000 when every array is a fresh mmap."""
    out = subprocess.run([sys.executable, "-c", CHURN, str(SRC)],
                         capture_output=True, text=True, check=True)
    assert int(out.stdout) < 8000
