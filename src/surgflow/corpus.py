"""Corpus construction tooling: validity filtering of presentation-style
videos, text-free crop search, transcript clip splitting, and
label-to-language projection."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import InputError
from .rng import SessionRng
from .serialization import unit_frames
from .timeline import to_frames

NOISE_DELTA = 10.0 / 255.0


@dataclass(frozen=True)
class TextBox:
    """Axis-aligned pixel rectangle (x0, y0) inclusive to (x1, y1) exclusive."""
    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        if self.x0 >= self.x1 or self.y0 >= self.y1:
            raise InputError(f"degenerate box: {self}")

    def intersects(self, x0: int, y0: int, x1: int, y1: int) -> bool:
        return not (x1 <= self.x0 or self.x1 <= x0 or
                    y1 <= self.y0 or self.y1 <= y0)


@dataclass
class TranscriptWord:
    text: str
    start_s: float
    end_s: float
    sentence_final: bool = field(default=None)

    def __post_init__(self):
        if self.start_s > self.end_s:
            raise InputError(f"word span reversed: {self}")
        if self.sentence_final is None:
            self.sentence_final = self.text.rstrip().endswith((".", "?", "!"))


@dataclass
class ClipSpan:
    start_s: float
    end_s: float
    text: str


def detect_static(frame: np.ndarray, prev_frame: np.ndarray) -> bool:
    """A frame is valid only when at least half its pixels differ from the
    previous frame by more than NOISE_DELTA (max over channels), both read
    as intensities by `unit_frames`."""
    if frame.shape != prev_frame.shape:
        raise InputError("frame shapes differ")
    diff = np.abs(unit_frames(frame) - unit_frames(prev_frame))
    if diff.ndim == 3:
        diff = diff.max(axis=-1)
    return float(np.mean(diff > NOISE_DELTA)) >= 0.5


def _expand(x0: int, y0: int, x1: int, y1: int, width: int, height: int,
            boxes: Sequence[TextBox], order: Sequence[int]) -> tuple:
    """Greedily expand each side in `order` (0 left, 1 right, 2 top,
    3 bottom) up to the nearest edge of a box that overlaps the rectangle
    across that side, or to the frame."""
    lo, hi, size = [x0, y0], [x1, y1], (width, height)
    spans = [((b.x0, b.x1), (b.y0, b.y1)) for b in boxes]
    for side in order:
        axis, upper = divmod(int(side), 2)
        across = 1 - axis
        edges = [s[axis] for s in spans
                 if s[across][0] < hi[across] and lo[across] < s[across][1]]
        if upper:
            hi[axis] = min([size[axis]] + [a for a, _ in edges if a >= hi[axis]])
        else:
            lo[axis] = max([0] + [b for _, b in edges if b <= lo[axis]])
    return lo[0], lo[1], hi[0], hi[1]


def crop_search(width: int, height: int, boxes: Sequence[TextBox],
                min_size: int = 224, seed: int = 0) -> Optional[TextBox]:
    """Stochastic greedy search for a maximal-area crop avoiding all boxes.

    Seeds a random text-free pixel, greedily expands each side in random
    order, and keeps the best rectangle over 256 restarts.  Returns
    None (non-valid) when the best crop is smaller than `min_size` in
    either dimension.
    """
    for b in boxes:
        if b.x0 < 0 or b.y0 < 0 or b.x1 > width or b.y1 > height:
            raise InputError(f"box outside frame: {b}")
    if not boxes:
        best = (0, 0, width, height)
    else:
        rng = SessionRng(seed)
        best = None
        best_area = -1
        for _ in range(256):
            for _ in range(32):
                x = int(rng.integers(0, width))
                y = int(rng.integers(0, height))
                if not any(b.intersects(x, y, x + 1, y + 1) for b in boxes):
                    break
            else:
                continue
            order = rng.permutation(4)
            rect = _expand(x, y, x + 1, y + 1, width, height, boxes, order)
            area = (rect[2] - rect[0]) * (rect[3] - rect[1])
            if area > best_area:
                best_area = area
                best = rect
        if best is None:
            return None
    x0, y0, x1, y1 = best
    if x1 - x0 < min_size or y1 - y0 < min_size:
        return None
    return TextBox(x0, y0, x1, y1)


def median_filter_validity(signal: np.ndarray, fps: float) -> np.ndarray:
    """Sliding boolean median with edge replication over a window of 3
    seconds in whole frames, forced odd."""
    if fps <= 0:
        raise InputError("fps must be positive")
    signal = np.asarray(signal, bool)
    w = to_frames(3.0, fps)
    if w % 2 == 0:
        w += 1
    if w <= 1 or len(signal) == 0:
        return signal.copy()
    half = w // 2
    padded = np.pad(signal, half, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, w)
    return windows.sum(axis=1) * 2 > w


def split_clips(words: Sequence[TranscriptWord],
                min_s: float = 2.0) -> List[ClipSpan]:
    """Split transcripts into clips after sentence-final punctuation,
    dropping clips shorter than `min_s` seconds."""
    for a, b in zip(words, words[1:]):
        if b.start_s < a.start_s:
            raise InputError("transcript words must be ordered")
    clips = []
    current: List[TranscriptWord] = []
    for word in words:
        current.append(word)
        if word.sentence_final:
            clips.append(current)
            current = []
    if current:
        clips.append(current)
    out = []
    for group in clips:
        start, end = group[0].start_s, group[-1].end_s
        if end - start >= min_s:
            text = " ".join(w.text for w in group)
            out.append(ClipSpan(start, end, text))
    return out


TEMPLATES = {
    "cataract_tool_phase": ("The surgeon is using a {TOOL} during the {PHASE} "
                            "phase of cataract surgery."),
    "triplet": "The surgeon is using a {TOOL} to {VERB} the {TARGET}.",
    "phase_only": "The surgeon is in the {PHASE} phase of cataract surgery.",
}


def project_labels(record: Dict[str, object], template_id: str) -> str:
    """Fill a template with the record's label fields; multi-tool records
    join tools with "and"."""
    if template_id not in TEMPLATES:
        raise InputError(f"unknown template: {template_id}")
    template = TEMPLATES[template_id]
    slots = set(re.findall(r"{(\w+)}", template))
    values = {}
    for slot in slots:
        key = slot.lower()
        if key == "tool" and "tools" in record:
            tools = record["tools"]
            if not tools:
                raise InputError("record has empty tools list")
            values[slot] = " and ".join(tools)
            continue
        if key not in record or record[key] in (None, "", []):
            raise InputError(f"record missing slot: {slot}")
        value = record[key]
        values[slot] = " and ".join(value) if isinstance(value, list) else str(value)
    return template.format(**values)

