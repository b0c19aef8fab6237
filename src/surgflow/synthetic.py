"""Procedurally generated stand-in corpus: short videos of moving colored
patterns, one distinct pattern per phase, with paired template captions and
ground-truth timelines."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .corpus import project_labels
from .errors import ConfigError
from .pipeline import PhaseTimeline, Segment
from .rng import SessionRng
from .serialization import write_frame_grid

IDLE = "idle"


@dataclass(frozen=True)
class PhasePattern:
    name: str
    color: tuple          # background RGB in [0, 1]
    tool: str
    speed: int            # tool-square pixels per frame


DEFAULT_PHASES = [
    PhasePattern("incision", (0.85, 0.15, 0.15), "keratome", 1),
    PhasePattern("rhexis", (0.15, 0.80, 0.20), "forceps", 2),
    PhasePattern("phaco", (0.15, 0.25, 0.90), "probe", 3),
    PhasePattern("irrigation", (0.90, 0.85, 0.10), "cannula", 1),
    PhasePattern("lens", (0.80, 0.15, 0.85), "injector", 2),
]


@dataclass
class SyntheticSpec:
    phases: List[PhasePattern] = field(default_factory=lambda: list(DEFAULT_PHASES))
    frame_size: int = 32
    fps: int = 8
    phase_seconds: tuple = (4, 8)        # inclusive integer range
    idle_seconds: tuple = (2, 4)
    idle_gap_prob: float = 0.6
    noise: float = 0.02
    seed: int = 0

    def __post_init__(self):
        names = [p.name for p in self.phases]
        if len(set(names)) != len(names):
            raise ConfigError("phase names must be distinct")
        if IDLE in names:
            raise ConfigError(f"{IDLE!r} is reserved for gaps")

    @property
    def class_names(self) -> List[str]:
        """All stage-2 classes, idle included, in sorted order."""
        return sorted([p.name for p in self.phases] + [IDLE])


def shift_colors(spec: SyntheticSpec) -> SyntheticSpec:
    """A color-remapped target domain: channels rolled and inverted."""
    shifted = [PhasePattern(p.name,
                            tuple(1.0 - c for c in (p.color[2], p.color[0], p.color[1])),
                            p.tool, p.speed)
               for p in spec.phases]
    return SyntheticSpec(shifted, spec.frame_size, spec.fps, spec.phase_seconds,
                         spec.idle_seconds, spec.idle_gap_prob, spec.noise,
                         spec.seed)


def caption_for(spec: SyntheticSpec, phase: str) -> str:
    for p in spec.phases:
        if p.name == phase:
            return project_labels({"tools": [p.tool], "phase": p.name},
                                  "cataract_tool_phase")
    return project_labels({"phase": IDLE}, "phase_only")


def prototype_sentences(spec: SyntheticSpec) -> Dict[str, str]:
    """Zero-shot prototypes: the phase-only projection template per class."""
    return {name: project_labels({"phase": name}, "phase_only")
            for name in spec.class_names}


def _render_phase(pattern: Optional[PhasePattern], n_frames: int, size: int,
                  noise: float, rng: SessionRng, frame_offset: int) -> np.ndarray:
    frames = np.empty((n_frames, size, size, 3), np.float32)
    if pattern is None:
        base = np.full((size, size, 3), 0.5, np.float32)
    else:
        base = np.broadcast_to(np.asarray(pattern.color, np.float32),
                               (size, size, 3)).copy()
    square = max(size // 8, 2)
    span = size - square
    for i in range(n_frames):
        frame = base.copy()
        if pattern is not None:
            # tool square bounces along the diagonal at the phase's speed
            pos = (frame_offset + i) * pattern.speed % (2 * span)
            pos = pos if pos <= span else 2 * span - pos
            frame[pos:pos + square, pos:pos + square] = 1.0
        frame += rng.normal(noise, (size, size, 3))
        frames[i] = np.clip(frame, 0.0, 1.0)
    return frames


@dataclass
class SyntheticVideo:
    video_id: str
    frames: np.ndarray
    timeline: PhaseTimeline
    clip_records: List[dict]


def generate_video(spec: SyntheticSpec, video_id: str,
                   rng: SessionRng) -> SyntheticVideo:
    """One video: every phase once, in order, with optional idle gaps.

    Durations are integer seconds so one-second clips never straddle a
    phase boundary.
    """
    schedule = []
    for i, pattern in enumerate(spec.phases):
        if rng.uniform(0.0, 1.0) < spec.idle_gap_prob:
            schedule.append((None, int(rng.integers(spec.idle_seconds[0],
                                                    spec.idle_seconds[1] + 1))))
        schedule.append((pattern, int(rng.integers(spec.phase_seconds[0],
                                                   spec.phase_seconds[1] + 1))))
    chunks = []
    segments = []
    records = []
    t = 0
    for pattern, seconds in schedule:
        n_frames = seconds * spec.fps
        chunks.append(_render_phase(pattern, n_frames, spec.frame_size,
                                    spec.noise, rng, t * spec.fps))
        name = IDLE if pattern is None else pattern.name
        segments.append(Segment(float(t), float(t + seconds), name))
        for sec in range(t, t + seconds):
            records.append({
                "video": video_id,
                "start_s": float(sec),
                "end_s": float(sec + 1),
                "text": caption_for(spec, name),
                "phase": name,
                "tools": [] if pattern is None else [pattern.tool],
            })
        t += seconds
    return SyntheticVideo(video_id, np.concatenate(chunks),
                          PhaseTimeline(segments), records)


def generate_corpus(spec: SyntheticSpec, n_videos: int, out_dir) -> dict:
    """Write videos, ground-truth timelines, a clip manifest, and corpus
    metadata under `out_dir`.  Fully determined by spec.seed."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "videos").mkdir(exist_ok=True)
    (out / "timelines").mkdir(exist_ok=True)
    root = SessionRng(spec.seed)
    manifest_rows = []
    video_ids = []
    for i in range(n_videos):
        video = generate_video(spec, f"video_{i:03d}", root.child(i))
        write_frame_grid(out / "videos" / f"{video.video_id}.wlfg", video.frames)
        with open(out / "timelines" / f"{video.video_id}.json", "w") as fh:
            json.dump(video.timeline.to_dict(video.video_id), fh, indent=2)
        manifest_rows.extend(video.clip_records)
        video_ids.append(video.video_id)
    with open(out / "manifest.jsonl", "w", encoding="utf-8") as fh:
        for row in manifest_rows:
            fh.write(json.dumps(row) + "\n")
    meta = {
        "fps": spec.fps,
        "frame_size": spec.frame_size,
        "seed": spec.seed,
        "n_videos": n_videos,
        "video_ids": video_ids,
        "class_names": spec.class_names,
        "phases": [{"name": p.name, "tool": p.tool, "color": list(p.color),
                    "speed": p.speed} for p in spec.phases],
        "prototypes": prototype_sentences(spec),
        "captions": {p.name: caption_for(spec, p.name) for p in spec.phases}
        | {IDLE: caption_for(spec, IDLE)},
    }
    with open(out / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
    return meta


def corpus_texts(meta: dict) -> List[str]:
    """Every caption plus prototypes; the vocabulary source."""
    return sorted(set(meta["captions"].values()) | set(meta["prototypes"].values()))
