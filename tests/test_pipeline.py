"""Pipeline orchestration: clip partitioning, timelines, feature extraction,
zero-shot prediction, dense captioning, the PCA export, and model bundles."""

import numpy as np
import pytest

from conftest import make_tiny_model
from surgflow import lora
from surgflow.errors import ConfigError, InputError, StateError
from surgflow.pipeline import (Caption, PhaseTimeline, Segment,
                               captions_to_dict, dense_caption,
                               extract_features, load_stage1_bundle,
                               load_temporal_bundle, merge_labels, partition,
                               pca_export, read_json, save_lora_bundle,
                               save_stage1_bundle, save_temporal_bundle,
                               write_json, zero_shot)
from surgflow.rng import SessionRng
from surgflow.serialization import write_checkpoint
from surgflow.temporal import (FramePrediction, TemporalConfig,
                               build_temporal_model)


class TestPartition:
    def test_60s_into_10s_clips(self):
        part = partition(60.0, 10.0, fps=8.0)
        assert len(part) == 6
        assert part.clips[-1].end_s == 60.0

    def test_65s_keeps_partial_tail(self):
        part = partition(65.0, 10.0, fps=8.0)
        assert len(part) == 7
        tail = part.clips[-1]
        assert tail.start_s == 60.0 and tail.end_s == 65.0

    def test_single_second(self):
        part = partition(1.0, 1.0, fps=8.0)
        assert len(part) == 1
        assert (part.clips[0].start_frame, part.clips[0].end_frame) == (0, 8)

    def test_clips_tile_the_video(self):
        part = partition(7.3, 1.0, fps=5.0)
        total_frames = int(round(7.3 * 5.0))
        assert part.clips[0].start_frame == 0
        assert part.clips[-1].end_frame == total_frames
        for a, b in zip(part.clips, part.clips[1:]):
            assert a.end_frame == b.start_frame
            assert a.end_s == b.start_s

    def test_nonpositive_duration(self):
        with pytest.raises(InputError):
            partition(0.0)


class TestTimeline:
    def test_merge_labels_worked_example(self):
        tl = merge_labels(["A", "A", "B", "B", "B"], 1.0)
        got = [(s.start_s, s.end_s, s.label) for s in tl.segments]
        assert got == [(0.0, 2.0, "A"), (2.0, 5.0, "B")]

    def test_label_at_and_duration(self):
        tl = merge_labels(["A", "B"], 2.0)
        assert tl.duration == 4.0
        assert tl.label_at(0.0) == "A"
        assert tl.label_at(1.999) == "A"
        assert tl.label_at(2.0) == "B"
        assert tl.label_at(99.0) == "B"  # clamp past the end

    def test_overlap_rejected(self):
        with pytest.raises(InputError):
            PhaseTimeline([Segment(0, 3, "A"), Segment(2, 5, "B")])

    def test_empty_span_rejected(self):
        with pytest.raises(InputError):
            PhaseTimeline([Segment(1, 1, "A")])

    def test_fill_gaps(self):
        tl = PhaseTimeline([Segment(2, 4, "A"), Segment(6, 8, "B")])
        filled = tl.fill_gaps("idle")
        got = [(s.start_s, s.end_s, s.label) for s in filled.segments]
        assert got == [(0.0, 2, "idle"), (2, 4, "A"), (4, 6, "idle"),
                       (6, 8, "B")]

    def test_dict_round_trip(self, tmp_path):
        tl = merge_labels(["A", "B", "B"], 1.0)
        path = tmp_path / "tl.json"
        write_json(path, tl.to_dict("v0"))
        loaded = PhaseTimeline.from_dict(read_json(path))
        assert [(s.start_s, s.end_s, s.label) for s in loaded.segments] == \
               [(s.start_s, s.end_s, s.label) for s in tl.segments]

    def test_caption_constraints(self):
        Caption(0.0, 10.0, "ok")
        with pytest.raises(InputError):
            Caption(0.0, 10.5, "too long")
        with pytest.raises(InputError):
            Caption(3.0, 3.0, "empty span")

    def test_captions_to_dict(self):
        payload = captions_to_dict("v0", [Caption(0, 4, "hello")])
        assert payload == {"video_id": "v0",
                           "captions": [{"start_s": 0, "end_s": 4,
                                         "text": "hello"}]}


class TestFeatureExtraction:
    def test_one_row_per_clip(self):
        model = make_tiny_model()
        frames = SessionRng(0).uniform(0, 1, (12, 8, 8, 3))
        part = partition(len(frames) / 4.0, 1.0, 4.0)
        seq = extract_features(frames, model, part, "v0")
        assert seq.features.shape == (3, 4)
        assert seq.fps == 1.0
        assert seq.video_id == "v0"

    def test_batch_size_does_not_change_features(self):
        model = make_tiny_model()
        frames = SessionRng(1).uniform(0, 1, (20, 8, 8, 3))
        part = partition(5.0, 1.0, 4.0)
        a = extract_features(frames, model, part, batch_size=2).features
        b = extract_features(frames, model, part, batch_size=16).features
        np.testing.assert_allclose(a, b, atol=1e-5)


class TestZeroShot:
    def test_needs_two_classes(self):
        model = make_tiny_model()
        frames = SessionRng(2).uniform(0, 1, (8, 8, 8, 3))
        with pytest.raises(ConfigError):
            zero_shot(frames, model, {"only": "a small red square moves"}, 4.0)

    def test_timeline_covers_video_with_known_labels(self):
        model = make_tiny_model()
        frames = SessionRng(3).uniform(0, 1, (16, 8, 8, 3))
        protos = {"moving": "a small red square moves",
                  "still": "nothing is happening here"}
        tl = zero_shot(frames, model, protos, 4.0)
        assert tl.duration == 4.0
        assert set(tl.labels) <= set(protos)
        # deterministic
        tl2 = zero_shot(frames, model, protos, 4.0)
        assert [(s.start_s, s.end_s, s.label) for s in tl.segments] == \
               [(s.start_s, s.end_s, s.label) for s in tl2.segments]


class StubTemporal:
    """Emits a fixed per-clip label sequence as one-hot logits."""

    def __init__(self, labels, class_names):
        self.indices = [class_names.index(l) for l in labels]
        self.k = len(class_names)

    def __call__(self, seq):
        logits = np.zeros((len(self.indices), self.k), np.float32)
        logits[np.arange(len(self.indices)), self.indices] = 5.0
        return [FramePrediction(logits)]


class TestDenseCaption:
    CLASSES = ["active", "idle"]

    def run(self, labels, seconds, fps=2.0):
        model = make_tiny_model()
        frames = SessionRng(4).uniform(0, 1, (int(seconds * fps), 8, 8, 3))
        stub = StubTemporal(labels, self.CLASSES)
        return dense_caption(frames, model, stub, self.CLASSES, fps, max_len=3)

    def test_25s_segment_becomes_three_chunks(self):
        caps = self.run(["active"] * 25, 25)
        spans = [(c.start_s, c.end_s) for c in caps]
        assert spans == [(0.0, 10.0), (10.0, 20.0), (20.0, 25.0)]

    def test_all_idle_yields_no_captions(self):
        assert self.run(["idle"] * 8, 8) == []

    def test_well_formed(self):
        labels = ["idle"] * 3 + ["active"] * 12 + ["idle"] * 2 + ["active"] * 4
        caps = self.run(labels, len(labels))
        assert caps == sorted(caps, key=lambda c: c.start_s)
        for a, b in zip(caps, caps[1:]):
            assert b.start_s >= a.end_s - 1e-9
        for c in caps:
            assert c.end_s - c.start_s <= 10.0 + 1e-9
            # never inside a predicted idle stretch
            mid = (c.start_s + c.end_s) / 2
            assert labels[int(mid)] == "active"


class TestPca:
    def test_axis_aligned_variance_ratios(self):
        rng = SessionRng(5)
        n = 400
        x = np.zeros((n, 2))
        x[:, 0] = rng.normal(2.0, (n,), np.float64)   # variance 4
        x[:, 1] = rng.normal(1.0, (n,), np.float64)   # variance 1
        _, _, ratios = pca_export(x, k=2)
        assert ratios[0] == pytest.approx(0.8, abs=0.05)
        assert ratios[1] == pytest.approx(0.2, abs=0.05)
        assert ratios.sum() == pytest.approx(1.0, abs=1e-9)

    def test_collinear_data_single_component(self):
        t = np.linspace(-1, 1, 50)
        x = np.outer(t, [3.0, -4.0])
        _, _, ratios = pca_export(x, k=2)
        assert ratios[0] == pytest.approx(1.0, abs=1e-9)
        assert ratios[1] == pytest.approx(0.0, abs=1e-9)

    def test_full_rank_reconstruction(self):
        rng = SessionRng(6)
        x = rng.normal(1.0, (30, 5), np.float64)
        comp, coords, _ = pca_export(x, k=5)
        recon = x.mean(axis=0) + coords @ comp
        np.testing.assert_allclose(recon, x, atol=1e-4)

    def test_matches_eigendecomposition(self):
        rng = SessionRng(7)
        for trial in range(10):
            x = rng.normal(1.0, (40, 4), np.float64)
            comp, _, ratios = pca_export(x, k=3, seed=trial)
            centered = x - x.mean(axis=0)
            cov = centered.T @ centered / (x.shape[0] - 1)
            evals, evecs = np.linalg.eigh(cov)
            order = np.argsort(evals)[::-1]
            evals, evecs = evals[order], evecs[:, order]
            np.testing.assert_allclose(ratios, evals[:3] / evals.sum(),
                                       atol=1e-6)
            for i in range(3):
                dot = abs(float(comp[i] @ evecs[:, i]))
                assert dot == pytest.approx(1.0, abs=1e-5)

    def test_components_orthonormal(self):
        x = SessionRng(8).normal(1.0, (25, 6), np.float64)
        comp, _, _ = pca_export(x, k=4)
        np.testing.assert_allclose(comp @ comp.T, np.eye(4), atol=1e-6)

    def test_too_few_rows(self):
        with pytest.raises(InputError):
            pca_export(np.zeros((1, 3)))


def _assert_same_state(a, b):
    sa, sb = a.state_dict(), b.state_dict()
    assert list(sa) == list(sb)
    for name in sa:
        assert sa[name].dtype == sb[name].dtype, name
        np.testing.assert_array_equal(sa[name], sb[name], err_msg=name)


class TestBundles:
    def test_stage1_round_trip(self, tmp_path):
        model = make_tiny_model(seed=3)
        save_stage1_bundle(tmp_path, model)
        write_checkpoint(tmp_path / "stage1.wlcp", model.state_dict())
        loaded = load_stage1_bundle(tmp_path)
        _assert_same_state(model, loaded)
        assert loaded.vocab.encode("a blue probe") == \
            model.vocab.encode("a blue probe")
        assert loaded.bridge.proj.d_out == model.bridge.proj.d_out

    def test_stage1_round_trip_with_lora(self, tmp_path):
        stage1, adapters = tmp_path / "stage1", tmp_path / "lora"
        stage1.mkdir()
        adapters.mkdir()
        model = make_tiny_model(seed=4)
        save_stage1_bundle(stage1, model)
        write_checkpoint(stage1 / "stage1.wlcp", model.state_dict())
        lora.attach(model, r=2, alpha=3.0, seed=1)
        for a in lora.iter_adapters(model):
            a.lora_b.data = SessionRng(5).normal(0.3, a.lora_b.shape)
        save_lora_bundle(adapters, model, stage1)
        write_checkpoint(adapters / "lora.wlcp", lora.adapter_checkpoint(model))
        loaded = load_stage1_bundle(stage1, adapters)
        _assert_same_state(model, loaded)
        assert [(a.rank, a.alpha) for a in lora.iter_adapters(loaded)] == \
            [(2, 3.0)] * len(lora.iter_adapters(model))

    def test_lora_bundle_needs_adapters(self, tmp_path):
        with pytest.raises(StateError, match="no adapters"):
            save_lora_bundle(tmp_path, make_tiny_model(), tmp_path)

    @pytest.mark.parametrize("variant", ["tcn", "asformer"])
    def test_temporal_round_trip(self, tmp_path, variant):
        cfg = TemporalConfig(num_classes=3, feature_dim=4, hidden=4,
                             tcn_layers=2, tcn_refinements=1,
                             asf_encoder_layers=2, asf_decoder_layers=1)
        model = build_temporal_model(variant, cfg, SessionRng(6))
        classes = ["idle", "dissect", "clip"]
        save_temporal_bundle(tmp_path, model, classes)
        loaded, loaded_classes = load_temporal_bundle(tmp_path)
        assert loaded_classes == classes
        assert loaded.variant == variant and loaded.cfg == cfg
        _assert_same_state(model, loaded)
