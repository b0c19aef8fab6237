"""Procedural stand-in corpus: determinism, structure, and caption pairing."""

import dataclasses
import json

import numpy as np
import pytest

from surgflow.errors import ConfigError
from surgflow.pipeline import PhaseTimeline
from surgflow.rng import SessionRng
from surgflow.serialization import read_frame_grid, read_video
from surgflow.synthetic import (DEFAULT_PHASES, PhasePattern, SyntheticSpec,
                                caption_for, generate_corpus,
                                generate_video, prototype_sentences,
                                shift_colors)


class TestSpec:
    def test_class_names_sorted_with_idle(self):
        spec = SyntheticSpec()
        names = spec.class_names
        assert names == sorted(names)
        assert "idle" in names
        assert len(names) == len(DEFAULT_PHASES) + 1

    def test_duplicate_phase_names_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(phases=[DEFAULT_PHASES[0], DEFAULT_PHASES[0]])

    def test_idle_name_reserved(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(phases=[PhasePattern("idle", (0, 0, 0), "none", 1)])

    def test_shift_colors_keeps_everything_but_colors(self):
        spec = SyntheticSpec()
        shifted = shift_colors(spec)
        assert [p.name for p in shifted.phases] == [p.name for p in spec.phases]
        assert [p.tool for p in shifted.phases] == [p.tool for p in spec.phases]
        assert all(a.color != b.color
                   for a, b in zip(spec.phases, shifted.phases))
        assert shifted.seed == spec.seed

    def test_shift_colors_keeps_every_other_field(self):
        spec = SyntheticSpec(frame_size=16, fps=4, phase_seconds=(2, 3),
                             idle_seconds=(1, 2), idle_gap_prob=0.3,
                             noise=0.05, seed=9)
        shifted = shift_colors(spec)
        for f in dataclasses.fields(spec):
            if f.name != "phases":
                assert getattr(shifted, f.name) == getattr(spec, f.name), f.name


class TestText:
    def test_phase_caption_uses_tool_template(self):
        text = caption_for(SyntheticSpec(), "incision")
        assert text == ("The surgeon is using a keratome during the incision "
                        "phase of cataract surgery.")

    def test_idle_caption_has_no_tool(self):
        text = caption_for(SyntheticSpec(), "idle")
        assert text == "The surgeon is in the idle phase of cataract surgery."

    def test_prototypes_embed_class_names(self):
        protos = prototype_sentences(SyntheticSpec())
        assert set(protos) == set(SyntheticSpec().class_names)
        for name, sentence in protos.items():
            assert name in sentence


class TestVideo:
    def test_structure(self):
        spec = SyntheticSpec(seed=1)
        video = generate_video(spec, "v0", SessionRng(1))
        duration = video.timeline.duration
        assert video.frames.shape == (int(duration) * spec.fps, 32, 32, 3)
        assert video.frames.dtype == np.uint8
        # every phase appears exactly once, in declaration order
        phase_segs = [s.label for s in video.timeline.segments
                      if s.label != "idle"]
        assert phase_segs == [p.name for p in spec.phases]
        # clip records tile the video in one-second steps
        assert len(video.clip_records) == int(duration)
        for i, rec in enumerate(video.clip_records):
            assert rec["start_s"] == float(i) and rec["end_s"] == float(i + 1)
            assert rec["text"] == caption_for(spec, rec["phase"])

    def test_integer_second_boundaries(self):
        video = generate_video(SyntheticSpec(seed=2), "v0", SessionRng(2))
        for seg in video.timeline.segments:
            assert seg.start_s == int(seg.start_s)
            assert seg.end_s == int(seg.end_s)

    def test_clips_never_straddle_phase_boundaries(self):
        video = generate_video(SyntheticSpec(seed=3), "v0", SessionRng(3))
        for rec in video.clip_records:
            mid_label = video.timeline.label_at(rec["start_s"] + 0.5)
            assert rec["phase"] == mid_label


class TestCorpus:
    def test_generation_is_byte_deterministic(self, tmp_path):
        spec = SyntheticSpec(seed=7)
        meta_a = generate_corpus(spec, 2, tmp_path / "a")
        meta_b = generate_corpus(SyntheticSpec(seed=7), 2, tmp_path / "b")
        assert meta_a == meta_b
        for rel in ["manifest.jsonl", "meta.json",
                    "videos/video_000.wlfg", "videos/video_001.wlfg",
                    "timelines/video_000.json"]:
            assert (tmp_path / "a" / rel).read_bytes() == \
                   (tmp_path / "b" / rel).read_bytes()

    def test_different_seed_changes_pixels(self, tmp_path):
        generate_corpus(SyntheticSpec(seed=1), 1, tmp_path / "a")
        generate_corpus(SyntheticSpec(seed=2), 1, tmp_path / "b")
        a = read_frame_grid(tmp_path / "a" / "videos" / "video_000.wlfg")
        b = read_frame_grid(tmp_path / "b" / "videos" / "video_000.wlfg")
        assert a.shape != b.shape or not np.allclose(a, b)

    def test_artifact_consistency(self, tmp_path):
        spec = SyntheticSpec(seed=5)
        meta = generate_corpus(spec, 3, tmp_path)
        assert meta["video_ids"] == ["video_000", "video_001", "video_002"]
        manifest = [json.loads(l) for l in
                    (tmp_path / "manifest.jsonl").read_text().splitlines()]
        assert {r["video"] for r in manifest} == set(meta["video_ids"])
        for vid in meta["video_ids"]:
            frames, fps = read_video(tmp_path / "videos" / f"{vid}.wlfg")
            assert fps == meta["fps"]
            tl = PhaseTimeline.from_dict(json.loads(
                (tmp_path / "timelines" / f"{vid}.json").read_text()))
            assert len(frames) == int(tl.duration) * meta["fps"]
            n_records = sum(1 for r in manifest if r["video"] == vid)
            assert n_records == int(tl.duration)
        assert all(r["text"] in set(meta["captions"].values())
                   for r in manifest)
