"""Shared pieces of the benchmark: sample statistics, the correctness
ledger, input digests and determinism records, and helpers that turn the
synthetic corpus into what the workloads feed the library."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from surgflow import pipeline as pl
from surgflow.models import CAPTION_PROMPT, MGA_PROMPT
from surgflow.synthetic import IDLE
from surgflow.vocab import Vocabulary

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"

# Tail percentiles, lowest first.  A tail metric takes the highest rung
# that leaves at least TAIL_BEYOND samples above it.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10

# Set-up runs this many times per workload run; setup_s is their median.
SETUP_REPEATS = 3

# The interpreter's speed on the 2-vCPU sandbox this was tuned on drifts by
# about 1.35x for seconds at a time, with CPU time following wall time, so a
# 20 s run's raw medians depend on the state the run happened to get.  The
# workloads are interpreter-bound, so a fixed pure-Python loop is timed just
# before and just after each timed operation, and the operation's time is
# scaled by CAL_REF_S over the mean of the two: timings are reported at the
# interpreter speed at which the loop takes CAL_REF_S, the slower of the two
# usual states there.  Over 20 s windows this cut the spread of every
# workload's median step time 3-4x.
CAL_REF_S = 170e-6
CAL_LOOP = 2000


# -- statistics ----------------------------------------------------------------


def percentile(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, np.float64), q))


def tail_rung(count: int) -> float | None:
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond it
    among `count` samples, or None when even the median has fewer."""
    best = None
    for q in TAIL_LADDER:
        if count * (100.0 - q) >= 100.0 * TAIL_BEYOND - 1e-6:
            best = q
    return best


def calibration_s() -> float:
    """Fastest of three runs of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(CAL_LOOP):
            acc += i * i
        best = min(best, perf_counter() - t0)
    return best


class Stopwatch:
    """Seconds taken by each timed operation: `raw` as measured, `samples`
    scaled to the reference interpreter speed (see CAL_REF_S) by the mean
    of calibrations taken just before and just after the operation."""

    def __init__(self):
        self.raw: list[float] = []
        self.samples: list[float] = []
        self.scale = 1.0
        self._before = 0.0
        self._t0 = 0.0

    def start(self) -> None:
        self._before = calibration_s()
        self._t0 = perf_counter()

    def stop(self, exclude: float = 0.0) -> float:
        """End the operation; `exclude` seconds inside it are not counted."""
        dt = perf_counter() - self._t0 - exclude
        self.scale = 2.0 * CAL_REF_S / (self._before + calibration_s())
        self.record(dt, self.scale)
        return dt

    def record(self, dt: float, scale: float) -> None:
        self.raw.append(dt)
        self.samples.append(dt * scale)

    def __len__(self) -> int:
        return len(self.samples)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- correctness ledger ------------------------------------------------------------


class Ledger:
    """Counts every checked operation as attempted, succeeded or failed.

    An operation fails when it raises or when any check inside it fails;
    the first few failure messages are kept for the report.
    """

    MAX_MESSAGES = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._label = None
        self._ok = True

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed

    def _note(self, text: str) -> None:
        if len(self.messages) < self.MAX_MESSAGES:
            self.messages.append(text)

    @contextmanager
    def operation(self, label: str):
        """One operation; an exception inside it is recorded, not raised."""
        outer = (self._label, self._ok)
        self._label, self._ok = label, True
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # an operation boundary: record and go on
            self._ok = False
            self._note(f"{label}: {type(exc).__name__}: {exc}")
        finally:
            if not self._ok:
                self.failed += 1
            self._label, self._ok = outer

    def check(self, cond: bool, what: str) -> bool:
        """Record a failed condition against the current operation."""
        if not cond:
            self._ok = False
            self._note(f"{self._label}: {what}")
        return bool(cond)

    def check_finite(self, value, what: str) -> bool:
        return self.check(bool(np.all(np.isfinite(value))), f"{what} is not finite")


def check_covers(ledger: Ledger, timeline: pl.PhaseTimeline, duration: float,
                 what: str) -> None:
    """The timeline tiles [0, duration) with no gap or overlap."""
    segs = timeline.segments
    if not ledger.check(bool(segs), f"{what}: empty timeline"):
        return
    ledger.check(abs(segs[0].start_s) < 1e-9, f"{what}: starts at {segs[0].start_s}")
    for a, b in zip(segs, segs[1:]):
        if not ledger.check(abs(b.start_s - a.end_s) < 1e-9,
                            f"{what}: gap or overlap at {a.end_s}"):
            break
    ledger.check(abs(segs[-1].end_s - duration) < 1e-6,
                 f"{what}: ends at {segs[-1].end_s}, video lasts {duration}")


def check_captions(ledger: Ledger, captions, timeline: pl.PhaseTimeline,
                   what: str) -> None:
    """Each caption lasts at most 10 s and lies inside one non-idle segment."""
    for c in captions:
        ledger.check(0.0 < c.end_s - c.start_s <= 10.0 + 1e-6,
                     f"{what}: caption {c.start_s}-{c.end_s} longer than 10 s")
        inside = any(seg.label != IDLE and seg.start_s - 1e-9 <= c.start_s
                     and c.end_s <= seg.end_s + 1e-9 for seg in timeline.segments)
        ledger.check(inside, f"{what}: caption {c.start_s}-{c.end_s} outside a "
                             "non-idle predicted segment")


# -- corpus helpers ------------------------------------------------------------


def build_vocab(meta: dict, manifest: list) -> Vocabulary:
    texts = [r["text"] for r in manifest]
    texts += list(meta["prototypes"].values())
    texts += [MGA_PROMPT, CAPTION_PROMPT]
    return Vocabulary.build(texts)


def ground_truth(corpus: Path, video_id: str) -> pl.PhaseTimeline:
    return pl.PhaseTimeline.from_dict(
        pl.read_json(corpus / "timelines" / f"{video_id}.json")).fill_gaps(IDLE)


def second_labels(timeline: pl.PhaseTimeline, classes, length: int) -> np.ndarray:
    """Class index of each one-second clip, sampled at the clip midpoint."""
    end = timeline.duration - 1e-6
    return np.array([classes.index(timeline.label_at(min(i + 0.5, end)))
                     for i in range(length)], np.int64)


# -- digests and determinism records -------------------------------------------


class Digest:
    """SHA-256 over the generated inputs, fed in a fixed order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add_bytes(self, data: bytes) -> None:
        self._h.update(len(data).to_bytes(8, "little"))
        self._h.update(data)

    def add_array(self, arr) -> None:
        arr = np.ascontiguousarray(arr)
        self.add_bytes(str((arr.dtype.str, arr.shape)).encode())
        self.add_bytes(arr.tobytes())

    def add_file(self, path: Path) -> None:
        self.add_bytes(Path(path).read_bytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def code_hash() -> str:
    """Hash of the library and benchmark sources, to key determinism records."""
    h = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def compare_record(workload: str, seed: int, record: dict) -> list[str]:
    """Compare with the stored record of the same code and seed, store the
    new one, and return the differences (empty when none or no record)."""
    records = STATE_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{workload}-seed{seed}.json"
    diffs = []
    if path.exists():
        old = json.loads(path.read_text())
        if old.get("code") == record["code"]:
            for key in ("inputs", "quality"):
                if old.get(key) != record[key]:
                    diffs.append(f"{key}: {old.get(key)} != {record[key]}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return diffs


def environment() -> dict:
    """Versions and CPU facts recorded beside the numbers."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
