"""The one time axis of every stage: phase timelines, the seconds-to-frames
rule, the frame-sampling rule, and run-length merging of clip labels."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .errors import InputError

IDLE = "idle"           # the label of any time no phase segment covers
CLIP_SECONDS = 1.0      # stage 2 sees one clip, one feature row, per second
CAPTION_SECONDS = 10.0  # the longest span one caption covers


@dataclass
class Segment:
    start_s: float
    end_s: float
    label: str


class PhaseTimeline:
    """Ordered, non-overlapping labeled segments with start/end seconds."""

    def __init__(self, segments: Sequence[Segment]):
        segments = sorted(segments, key=lambda s: s.start_s)
        for seg in segments:
            if seg.end_s <= seg.start_s:
                raise InputError(f"segment has non-positive span: {seg}")
        for a, b in zip(segments, segments[1:]):
            if b.start_s < a.end_s - 1e-9:
                raise InputError(f"overlapping segments: {a} / {b}")
        self.segments = list(segments)

    @property
    def duration(self) -> float:
        return self.segments[-1].end_s if self.segments else 0.0

    def label_at(self, t: float) -> str:
        """The label at time t: IDLE in a gap, the last label past the end."""
        for seg in self.segments:
            if seg.start_s <= t < seg.end_s:
                return seg.label
        return self.segments[-1].label if t >= self.duration > 0 else IDLE

    def fill_gaps(self, idle_label: str) -> "PhaseTimeline":
        """The same timeline with every gap an explicit idle segment."""
        ends = [0.0] + [s.end_s for s in self.segments]
        return PhaseTimeline(self.segments + [
            Segment(end, s.start_s, idle_label)
            for end, s in zip(ends, self.segments) if s.start_s > end + 1e-9])

    def to_dict(self, video_id: str) -> dict:
        return {"video_id": video_id, "fps": 1.0,
                "segments": [{"start_s": s.start_s, "end_s": s.end_s,
                              "label": s.label} for s in self.segments]}

    @classmethod
    def from_dict(cls, payload: dict) -> "PhaseTimeline":
        return cls([Segment(s["start_s"], s["end_s"], s["label"])
                    for s in payload["segments"]])


def runs(labels: Sequence) -> List[Tuple[object, int, int]]:
    """Run-length segments as (label, start, end) with end exclusive."""
    labels = list(labels)
    out = []
    start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[start]:
            out.append((labels[start], start, i))
            start = i
    return out


def merge_labels(labels: Sequence[str], clip_seconds: float) -> PhaseTimeline:
    """Run-length merge of per-clip labels into a timeline."""
    return PhaseTimeline([Segment(a * clip_seconds, b * clip_seconds, label)
                          for label, a, b in runs(labels)])


def sample(timeline: PhaseTimeline, n: int, fps: float) -> List[str]:
    """The label of each frame 0..n-1 at `fps`, read at the frame's midpoint
    (i + 0.5) / fps; when every boundary is a multiple of 1/fps it equals the
    label at the frame's left edge."""
    return [timeline.label_at((i + 0.5) / fps) for i in range(n)]


def to_frames(seconds: float, fps: float) -> int:
    """The frame nearest `seconds`; a duration's frame count."""
    return int(round(seconds * fps))


def frame_span(start_s: float, end_s: float, fps: float,
               n_frames: int) -> Tuple[int, int]:
    """Frames [lo, hi) of [start_s, end_s) in a video of n_frames: bounds
    round to the nearest frame, clamped so the span is one frame or more and
    inside the video; a span starting outside the video raises."""
    if not 0 <= start_s < n_frames / fps:
        raise InputError(f"span [{start_s}, {end_s}) s starts outside a "
                         f"video of {n_frames} frames at {fps} fps")
    lo = min(to_frames(start_s, fps), n_frames - 1)
    return lo, min(max(lo + 1, to_frames(end_s, fps)), n_frames)
