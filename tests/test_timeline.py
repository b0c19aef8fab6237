"""The time axis: frame spans, one-second clips, the one sampling rule shared
by training labels and evaluation, gap handling, evaluation lengths, and the
import layering that keeps the timeline module light."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import surgflow
from conftest import make_tiny_model
from oracles import left_edge_rasterize
from surgflow.errors import InputError
from surgflow.metrics import evaluate_timelines
from surgflow.objectives import ClipStore
from surgflow.pipeline import labels_for, partition, zero_shot
from surgflow.rng import SessionRng
from surgflow.serialization import write_frame_grid
from surgflow.timeline import (IDLE, PhaseTimeline, Segment, frame_span,
                               merge_labels, runs, sample, to_frames)

LABELS = ["A", "B", "C", None]      # None leaves a gap


def build_timeline(pieces, fps=1.0):
    """Consecutive pieces of (frames, label) at fps; a None label is a gap."""
    segments, t = [], 0.0
    for length, label in pieces:
        if label is not None:
            segments.append(Segment(t / fps, (t + length) / fps, label))
        t += length
    return PhaseTimeline(segments)


fractional_pieces = st.lists(
    st.tuples(st.floats(0.05, 4.0), st.sampled_from(LABELS)),
    min_size=1, max_size=8)
grid_pieces = st.lists(
    st.tuples(st.integers(1, 20), st.sampled_from(LABELS)),
    min_size=1, max_size=8)


class TestFrameSpan:
    @given(n_frames=st.integers(1, 400), fps=st.floats(1.0, 60.0))
    def test_partition_clips_nonempty_and_in_range(self, n_frames, fps):
        clips = partition(n_frames / fps, 1.0, fps)
        assert clips[0].start_frame == 0
        assert clips[-1].end_frame == n_frames
        for clip in clips:
            assert 0 <= clip.start_frame < clip.end_frame <= n_frames

    def test_non_integer_fps_keeps_last_frame(self):
        clips = partition(300 / 29.97, 1.0, 29.97)
        assert len(clips) == 11
        assert (clips[-1].start_frame, clips[-1].end_frame) == (299, 300)

    def test_rounds_to_nearest_frame(self):
        assert frame_span(1.0, 2.0, 8.0, 40) == (8, 16)
        assert frame_span(0.0, 0.01, 8.0, 40) == (0, 1)
        assert frame_span(4.9, 6.0, 8.0, 40) == (39, 40)

    @pytest.mark.parametrize("start_s", [5.0, 7.5, -1.0])
    def test_span_outside_video_raises(self, start_s):
        with pytest.raises(InputError, match="40 frames"):
            frame_span(start_s, start_s + 1.0, 8.0, 40)

    def test_zero_shot_at_non_integer_fps(self):
        frames = SessionRng(6).uniform(0, 1, (300, 8, 8, 3))
        protos = {"moving": "a small red square moves",
                  "still": "nothing is happening here"}
        tl = zero_shot(frames, make_tiny_model(), protos, 29.97)
        assert tl.duration == 300 / 29.97

    def test_clip_store_record_past_end_raises(self, tmp_path):
        write_frame_grid(tmp_path / "v.wlfg",
                         np.zeros((32, 4, 4, 3), np.uint8), 8.0)
        store = ClipStore(tmp_path, 8.0)
        assert len(store.clip({"video": "v", "start_s": 3.0,
                               "end_s": 4.0})) == 8
        with pytest.raises(InputError):
            store.clip({"video": "v", "start_s": 4.0, "end_s": 5.0})

    def test_clip_store_holds_grids_to_its_rate(self, tmp_path):
        """`read` refuses a grid at another rate and caches nothing; `video`
        caches what `read` returns."""
        for vid, fps in (("v8", 8.0), ("v4", 4.0)):
            write_frame_grid(tmp_path / f"{vid}.wlfg",
                             np.zeros((32, 4, 4, 3), np.uint8), fps)
        store = ClipStore(tmp_path, 8.0)
        assert store.read("v8") is not store.read("v8")
        assert store.video("v8") is store.video("v8")
        for read in (store.read, store.video):
            with pytest.raises(InputError, match=re.escape(
                    f"{tmp_path / 'v4.wlfg'}: frame rate 4 differs from the "
                    "corpus fps 8")):
                read("v4")


class TestSampling:
    @given(pieces=fractional_pieces)
    def test_training_labels_equal_evaluation_frames(self, pieces):
        gt = build_timeline(pieces)
        frames = sample(gt, to_frames(gt.duration, 1.0), 1.0)
        classes = sorted({"A", "B", "C", IDLE})
        got = labels_for(gt, classes, len(frames))
        assert [classes[k] for k in got] == frames

    @given(pieces=grid_pieces, fps=st.floats(1.0, 60.0))
    def test_grid_boundaries_match_left_edges(self, pieces, fps):
        tl = build_timeline(pieces, fps)
        n = to_frames(tl.duration, fps)
        assert sample(tl, n, fps) == left_edge_rasterize(tl, fps)

    def test_midpoint_of_fractional_boundary(self):
        tl = PhaseTimeline([Segment(0.0, 1.4, "A"), Segment(1.4, 3.0, "B")])
        assert sample(tl, to_frames(tl.duration, 1.0), 1.0) == ["A", "B", "B"]
        assert left_edge_rasterize(tl, 1.0) == ["A", "A", "B"]
        tl = PhaseTimeline([Segment(0.0, 1.6, "A"), Segment(1.6, 3.0, "B")])
        assert sample(tl, to_frames(tl.duration, 1.0), 1.0) == \
               left_edge_rasterize(tl, 1.0) == ["A", "A", "B"]

    def test_gap_in_prediction_reads_idle(self):
        pred = PhaseTimeline([Segment(0, 2, "A"), Segment(3, 5, "B")])
        assert sample(pred, to_frames(pred.duration, 1.0), 1.0) == \
               ["A", "A", IDLE, "B", "B"]
        assert pred.label_at(2.5) == IDLE
        gt = merge_labels(["A", "A", IDLE, "B", "B"], 1.0)
        report = evaluate_timelines({"v": pred}, {"v": gt})
        assert report.aggregate["accuracy"] == 100.0

    def test_past_the_end_reads_last_label(self):
        tl = PhaseTimeline([Segment(1, 2, "A")])
        assert sample(tl, 4, 1.0) == [IDLE, "A", "A", "A"]

    def test_runs_and_merge_labels(self):
        assert runs([]) == []
        assert runs("AAB") == [("A", 0, 2), ("B", 2, 3)]
        tl = merge_labels(["A", "A", "B"], 2.0)
        assert [(s.start_s, s.end_s, s.label) for s in tl.segments] == \
               [(0.0, 4.0, "A"), (4.0, 6.0, "B")]


class TestEvaluateLengths:
    def test_longer_prediction_raises(self):
        pred = {"v7": merge_labels(["A"] * 50, 1.0)}
        gt = {"v7": merge_labels(["A"] * 5, 1.0)}
        with pytest.raises(InputError, match=r"v7.*50.*5"):
            evaluate_timelines(pred, gt)

    def test_shorter_prediction_raises(self):
        pred = {"v": merge_labels(["A"] * 3, 1.0)}
        gt = {"v": merge_labels(["A"] * 5, 1.0)}
        with pytest.raises(InputError):
            evaluate_timelines(pred, gt)

    @pytest.mark.parametrize("n_pred", [4, 6])
    def test_one_frame_difference_is_scored_on_ground_truth(self, n_pred):
        gt = {"v": merge_labels(["A"] * 3 + ["B"] * 2, 1.0)}
        pred = {"v": merge_labels(["A"] * 3 + ["B"] * (n_pred - 3), 1.0)}
        report = evaluate_timelines(pred, gt)
        assert report.aggregate["accuracy"] == 100.0


class TestLayering:
    @pytest.mark.parametrize("module, absent", [
        ("surgflow.synthetic", ("surgflow.pipeline", "surgflow.autodiff")),
        ("surgflow.metrics", ("surgflow.pipeline",)),
    ])
    def test_import_does_not_load(self, module, absent):
        code = (f"import sys, {module}; "
                f"print([m for m in {absent!r} if m in sys.modules])")
        src = str(Path(surgflow.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, cwd=src,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"
