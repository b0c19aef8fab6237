"""Pipeline orchestration: clip partitioning, timelines, feature extraction,
zero-shot prediction, dense captioning, the PCA export, and model bundles."""

import contextlib
import hashlib
import re
import shutil

import numpy as np
import pytest

from conftest import make_tiny_model
from surgflow import autodiff as ad
from surgflow import lora
from surgflow import pipeline as pl
from surgflow.errors import ConfigError, InputError, StateError
from surgflow.metrics import evaluate_timelines
from surgflow.models import CAPTION_PROMPT
from surgflow.pipeline import (Caption, PhaseTimeline, Segment,
                               captions_to_dict, dense_caption,
                               extract_features, load_stage1_bundle,
                               load_temporal_bundle, merge_labels, partition,
                               pca_export, read_json, save_lora_bundle,
                               save_stage1_bundle, save_temporal_bundle,
                               segment, write_json, zero_shot)
from surgflow.rng import SessionRng
from surgflow.serialization import (read_checkpoint, read_video,
                                    write_features, write_frame_grid)
from surgflow.synthetic import SyntheticSpec, generate_corpus
from surgflow.temporal import (FramePrediction, TemporalConfig,
                               build_temporal_model)


class TestPartition:
    def test_60s_into_10s_clips(self):
        part = partition(60.0, 10.0, fps=8.0)
        assert len(part) == 6
        assert part[-1].end_s == 60.0

    def test_65s_keeps_partial_tail(self):
        part = partition(65.0, 10.0, fps=8.0)
        assert len(part) == 7
        tail = part[-1]
        assert tail.start_s == 60.0 and tail.end_s == 65.0

    def test_single_second(self):
        part = partition(1.0, 1.0, fps=8.0)
        assert len(part) == 1
        assert (part[0].start_frame, part[0].end_frame) == (0, 8)

    def test_clips_tile_the_video(self):
        part = partition(7.3, 1.0, fps=5.0)
        total_frames = int(round(7.3 * 5.0))
        assert part[0].start_frame == 0
        assert part[-1].end_frame == total_frames
        for a, b in zip(part, part[1:]):
            assert a.end_frame == b.start_frame
            assert a.end_s == b.start_s

    def test_nonpositive_duration(self):
        with pytest.raises(InputError):
            partition(0.0, 1.0, 8.0)


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
        assert seq.features.shape == (3, model.cfg.dim) == (3, 8)
        assert seq.video_id == "v0"

    def test_batch_size_does_not_change_features(self):
        model = make_tiny_model()
        frames = SessionRng(1).uniform(0, 1, (20, 8, 8, 3))
        part = partition(5.0, 1.0, 4.0)
        a = extract_features(frames, model, part, batch_size=2).features
        b = extract_features(frames, model, part, batch_size=16).features
        np.testing.assert_allclose(a, b, atol=1e-5)


class TestCorpusFeatures:
    """extract_corpus_features writes one table per corpus video, reading
    each grid through the corpus's ClipStore."""

    def test_tables_match_a_per_video_loop(self, tmp_path):
        corpus, model = tmp_path / "corpus", make_tiny_model()
        meta = generate_corpus(SyntheticSpec(seed=5, frame_size=8), 2, corpus)
        pl.extract_corpus_features(corpus, model, tmp_path / "features")
        assert sorted(p.name for p in (tmp_path / "features").iterdir()) == [
            f"{vid}.wlft" for vid in meta["video_ids"]]
        for vid in meta["video_ids"]:
            frames, fps = read_video(corpus / "videos" / f"{vid}.wlfg")
            part = partition(len(frames) / fps, pl.CLIP_SECONDS, fps)
            write_features(tmp_path / "want.wlft",
                           extract_features(frames, model, part, vid).features)
            assert (tmp_path / "features" / f"{vid}.wlft").read_bytes() == \
                (tmp_path / "want.wlft").read_bytes()

    def test_grid_at_another_rate_is_refused(self, tmp_path):
        corpus = tmp_path / "corpus"
        generate_corpus(SyntheticSpec(seed=5, frame_size=8), 2, corpus)
        path = corpus / "videos" / "video_001.wlfg"
        write_frame_grid(path, read_video(path)[0], 4.0)
        with pytest.raises(InputError, match=re.escape(
                f"{path}: frame rate 4 differs from the corpus fps 8")):
            pl.extract_corpus_features(corpus, make_tiny_model(),
                                       tmp_path / "features")


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
        assert {s.label for s in tl.segments} <= set(protos)
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

    def test_last_caption_ends_with_the_video(self):
        """300 frames at 29.97 fps last 300 / 29.97 = 10.01 s: the eleventh
        clip is partial, so the timelines and the last caption end there,
        not at the eleventh whole second."""
        fps = 29.97
        frames = SessionRng(4).uniform(0, 1, (300, 8, 8, 3))
        duration = len(frames) / fps
        model = make_tiny_model()
        stub = StubTemporal(["active"] * 11, self.CLASSES)
        timeline, _ = segment(frames, model, stub, self.CLASSES, fps)
        assert [(s.start_s, s.end_s, s.label) for s in timeline.segments] == \
               [(0.0, duration, "active")]
        protos = {"moving": "a small red square moves",
                  "still": "nothing is happening here"}
        assert zero_shot(frames, model, protos, fps).duration == duration
        caps = dense_caption(frames, model, stub, self.CLASSES, fps, max_len=3)
        assert [(c.start_s, c.end_s) for c in caps] == [(0.0, 10.0),
                                                        (10.0, duration)]


class TestNoTape:
    """Inference records no tape; its outputs equal those computed with the
    tape on, and a later training step records one again."""

    PROTOS = {"moving": "a small red square moves",
              "still": "nothing is happening here"}

    @staticmethod
    def with_tape(monkeypatch):
        monkeypatch.setattr(pl, "no_grad", contextlib.nullcontext)

    def test_extract_features_equal_with_tape(self, monkeypatch):
        model = make_tiny_model()
        frames = SessionRng(5).uniform(0, 1, (20, 8, 8, 3))
        part = partition(5.0, 1.0, 4.0)
        rows, decode = [], model.decode_multimodal

        def kept(*args, **kwargs):
            out = decode(*args, **kwargs)
            rows.append(out[0])
            return out
        model.decode_multimodal = kept
        plain = extract_features(frames, model, part, batch_size=2).features
        assert rows and not any(r.requires_grad for r in rows)
        np.testing.assert_array_equal(
            plain, np.concatenate([r.data.mean(axis=1) for r in rows]))
        self.with_tape(monkeypatch)
        rows.clear()
        taped = extract_features(frames, model, part, batch_size=2).features
        assert rows and all(r.requires_grad for r in rows)
        assert np.array_equal(plain, taped)

    def test_zero_shot_scores_equal_with_tape(self, monkeypatch):
        model = make_tiny_model()
        frames = SessionRng(6).uniform(0, 1, (24, 8, 8, 3))
        runs = []
        for tape in (False, True):
            if tape:
                self.with_tape(monkeypatch)
            scores, similarity = [], pl.similarity_matrix

            def kept(*args, scores=scores, similarity=similarity):
                out = similarity(*args)
                scores.append(out)
                return out
            monkeypatch.setattr(pl, "similarity_matrix", kept)
            tl = zero_shot(frames, model, self.PROTOS, 4.0, batch_size=4)
            assert all(s.requires_grad == tape for s in scores)
            runs.append((tl.segments, [s.data for s in scores]))
        (tl_plain, plain), (tl_taped, taped) = runs
        assert tl_plain == tl_taped
        assert len(plain) == len(taped) == 2
        assert all(np.array_equal(a, b) for a, b in zip(plain, taped))

    def test_training_after_dense_caption_records_a_tape(self):
        model = make_tiny_model()
        frames = SessionRng(7).uniform(0, 1, (8, 8, 8, 3))
        stub = StubTemporal(["active"] * 4, TestDenseCaption.CLASSES)
        assert dense_caption(frames, model, stub, TestDenseCaption.CLASSES,
                             2.0, max_len=3)
        video = model.encode_video_batch([frames[:4]])
        ids = np.asarray([model.prompt_ids(CAPTION_PROMPT)], np.int64)
        _, logits = model.decode_multimodal(ids, np.zeros_like(ids, bool),
                                            video, causal=True)
        assert logits.requires_grad and logits._parents
        ad.reduce_sum(logits * logits).backward()
        params = {**model.video_encoder.parameters(),
                  **model.decoder.parameters()}
        assert all(p.grad is not None and np.abs(p.grad).sum() > 0
                   for p in params.values())

    SPLIT_CLASSES = ["idle", "cut"]

    @staticmethod
    def stage2_split(root, n_videos=4, length=12, dim=8):
        """Feature files and ground-truth timelines for a tiny stage-2 split."""
        (root / "features").mkdir()
        (root / "corpus" / "timelines").mkdir(parents=True)
        rng = SessionRng(11)
        ids = [f"v{i}" for i in range(n_videos)]
        for i, vid in enumerate(ids):
            write_features(root / "features" / f"{vid}.wlft",
                           rng.normal(1.0, (length, dim)))
            cut = 3 + i
            tl = PhaseTimeline([Segment(0.0, cut, "idle"),
                                Segment(cut, length, "cut")])
            write_json(root / "corpus" / "timelines" / f"{vid}.json",
                       tl.to_dict(vid))
        return ids

    def test_evaluate_split_records_no_tape(self, tmp_path, monkeypatch):
        ids = self.stage2_split(tmp_path)
        model = build_temporal_model(
            "tcn", TemporalConfig(num_classes=2, feature_dim=8),
            SessionRng(3))
        outputs, forward = [], model.forward

        def kept(features):
            out = forward(features)
            outputs.extend(out)
            return out
        monkeypatch.setattr(model, "forward", kept)
        dataset = pl.dataset_from_dirs(tmp_path / "features",
                                       tmp_path / "corpus",
                                       self.SPLIT_CLASSES, ids)
        pl.evaluate_split(model, dataset, self.SPLIT_CLASSES)
        assert len(outputs) == 4 * len(ids)
        assert not any(t.requires_grad for t in outputs)

    def test_ablate_subset_rows_equal_with_tape(self, tmp_path, monkeypatch):
        ids = self.stage2_split(tmp_path)
        runs = []
        for tape in (False, True):
            if tape:
                self.with_tape(monkeypatch)
            runs.append(pl.ablate_subset(
                tmp_path / "features", tmp_path / "corpus",
                self.SPLIT_CLASSES, ids[:3], ids[3:], [0.5, 1.0], "tcn",
                epochs=3, seed=2))
        assert runs[0] == runs[1]
        assert [r["videos"] for r in runs[0]] == [2, 3]


class TestAblateSubset:
    @pytest.mark.parametrize("train, test", [
        (slice(0, 3), slice(2, 3)), (slice(0, 4), slice(4, 4)),
        (slice(0, 0), slice(0, 4))], ids=["shared", "no-held-out", "no-train"])
    def test_bad_split_rejected_before_training(self, tmp_path, monkeypatch,
                                                train, test):
        ids = TestNoTape.stage2_split(tmp_path)
        fits = []
        monkeypatch.setattr(pl, "fit_temporal",
                            lambda *args: fits.append(args))
        with pytest.raises(ConfigError):
            pl.ablate_subset(tmp_path / "features", tmp_path / "corpus",
                             TestNoTape.SPLIT_CLASSES, ids[train], ids[test],
                             [1.0], "tcn", epochs=1, seed=0)
        assert fits == []

    @staticmethod
    def count_fits(monkeypatch):
        """Make fit_temporal record the arguments of each call; returns the
        record."""
        fits, fit = [], pl.fit_temporal

        def counted(*args):
            fits.append(args)
            return fit(*args)
        monkeypatch.setattr(pl, "fit_temporal", counted)
        return fits

    @staticmethod
    def ablate(root, ids, fractions):
        """ablate_subset on the tiny split: ids[:3] train, ids[3:] held out."""
        return pl.ablate_subset(root / "features", root / "corpus",
                                TestNoTape.SPLIT_CLASSES, ids[:3], ids[3:],
                                fractions, "tcn", epochs=1, seed=0)

    def test_bad_held_out_label_rejected_before_training(self, tmp_path,
                                                         monkeypatch):
        ids = TestNoTape.stage2_split(tmp_path)
        path = tmp_path / "corpus" / "timelines" / f"{ids[3]}.json"
        payload = read_json(path)
        payload["segments"][1]["label"] = "cutt"
        write_json(path, payload)
        fits = self.count_fits(monkeypatch)
        with pytest.raises(InputError, match="label 'cutt'") as err:
            self.ablate(tmp_path, ids, [0.5, 1.0])
        assert str(path) in str(err.value)
        assert fits == []

    def test_zero_video_fraction_rejected_before_training(self, tmp_path,
                                                          monkeypatch):
        ids = TestNoTape.stage2_split(tmp_path)
        fits = self.count_fits(monkeypatch)
        with pytest.raises(ConfigError, match="fraction 0.01 selects zero"):
            self.ablate(tmp_path, ids, [1.0, 0.01])
        assert fits == []

    def test_each_table_read_once(self, tmp_path, monkeypatch):
        ids = TestNoTape.stage2_split(tmp_path)
        reads, read = [], pl.read_features

        def counted(path):
            reads.append(path.stem)
            return read(path)
        monkeypatch.setattr(pl, "read_features", counted)
        fits = self.count_fits(monkeypatch)
        rows = self.ablate(tmp_path, ids, [0.5, 1.0])
        assert [r["videos"] for r in rows] == [len(f[0]) for f in fits]
        assert [len(f[0]) for f in fits] == [2, 3]
        assert sorted(reads) == ids

    @pytest.mark.parametrize("train, test", [
        (["v0", "v1", "v0"], ["v3"]), (["v0", "v1"], ["v3", "v2", "v3"])],
        ids=["train", "held-out"])
    def test_repeated_id_rejected_before_reading(self, tmp_path, monkeypatch,
                                                 train, test):
        TestNoTape.stage2_split(tmp_path)
        reads = []
        monkeypatch.setattr(pl, "read_features", reads.append)
        fits = self.count_fits(monkeypatch)
        repeated = train[0] if len(set(train)) < len(train) else test[0]
        with pytest.raises(ConfigError,
                           match=f"video id '{repeated}' is listed twice"):
            pl.ablate_subset(tmp_path / "features", tmp_path / "corpus",
                             TestNoTape.SPLIT_CLASSES, train, test,
                             [1.0], "tcn", epochs=1, seed=0)
        assert reads == [] and fits == []

    def test_evaluate_split_refuses_a_repeated_video(self, tmp_path):
        ids = TestNoTape.stage2_split(tmp_path)
        model = build_temporal_model(
            "tcn", TemporalConfig(num_classes=2, feature_dim=8),
            SessionRng(3))
        dataset = pl.dataset_from_dirs(tmp_path / "features",
                                       tmp_path / "corpus",
                                       TestNoTape.SPLIT_CLASSES,
                                       [ids[0], ids[1], ids[0]])
        with pytest.raises(ConfigError, match="'v0' is listed twice"):
            pl.evaluate_split(model, dataset, TestNoTape.SPLIT_CLASSES)

    @pytest.mark.parametrize("n_train, fraction, count", [
        (1, 0.5, 1), (5, 0.5, 3), (5, 0.1, 1), (2, 0.25, 1), (4, 0.5, 2),
        (5, 0.7, 4)])
    def test_subset_size_rounds_half_up(self, tmp_path, monkeypatch,
                                        n_train, fraction, count):
        ids = TestNoTape.stage2_split(tmp_path, n_videos=n_train + 1)
        fits = self.count_fits(monkeypatch)
        [row] = pl.ablate_subset(tmp_path / "features", tmp_path / "corpus",
                                 TestNoTape.SPLIT_CLASSES, ids[:-1], ids[-1:],
                                 [fraction], "tcn", epochs=1, seed=0)
        assert row["videos"] == len(fits[0][0]) == count

    def test_evaluate_split_scores_as_evaluate_timelines(self, tmp_path):
        """Held-out scoring gives the `evaluate` command's report, bit for
        bit, on the predicted and ground-truth timelines."""
        ids = TestNoTape.stage2_split(tmp_path)
        classes = TestNoTape.SPLIT_CLASSES
        model = build_temporal_model(
            "tcn", TemporalConfig(num_classes=2, feature_dim=8),
            SessionRng(3))
        dataset = pl.dataset_from_dirs(tmp_path / "features",
                                       tmp_path / "corpus", classes, ids)
        report = pl.evaluate_split(model, dataset, classes)
        pred, gt = {}, {}
        for seq, _ in dataset:
            labels = [classes[k] for k in model(seq)[-1].labels]
            pred[seq.video_id] = merge_labels(labels, 1.0)
            gt[seq.video_id] = pl.read_timeline(
                tmp_path / "corpus" / "timelines" / f"{seq.video_id}.json")[1]
        assert report.to_json() == evaluate_timelines(pred, gt).to_json()


class TestDatasetFromDirs:
    """A feature table may differ from its timeline's seconds by one row."""

    @pytest.mark.parametrize("rows", [11, 12, 13])
    def test_one_row_either_way_is_labelled(self, tmp_path, rows):
        ids = TestNoTape.stage2_split(tmp_path, n_videos=1)
        table = tmp_path / "features" / f"{ids[0]}.wlft"
        write_features(table, np.ones((rows, 8)))
        [(seq, labels)] = pl.dataset_from_dirs(
            tmp_path / "features", tmp_path / "corpus",
            TestNoTape.SPLIT_CLASSES, ids)
        assert seq.features.shape == (rows, 8)
        assert labels.tolist() == [0] * 3 + [1] * (rows - 3)

    @pytest.mark.parametrize("rows", [10, 14])
    def test_two_rows_off_names_both_files(self, tmp_path, rows):
        ids = TestNoTape.stage2_split(tmp_path, n_videos=1)
        table = tmp_path / "features" / f"{ids[0]}.wlft"
        write_features(table, np.ones((rows, 8)))
        timeline = tmp_path / "corpus" / "timelines" / f"{ids[0]}.json"
        with pytest.raises(InputError) as info:
            pl.dataset_from_dirs(tmp_path / "features", tmp_path / "corpus",
                                 TestNoTape.SPLIT_CLASSES, ids)
        assert str(info.value) == (f"{table} has {rows} rows but {timeline} "
                                   "covers 12 seconds")


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
            comp, _, ratios = pca_export(x, k=3)
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

    def test_largest_loading_positive(self):
        rng = SessionRng(9)
        for _ in range(10):
            x = rng.normal(1.0, (30, 5), np.float64)
            comp, _, _ = pca_export(x, k=5)
            peak = comp[np.arange(5), np.abs(comp).argmax(axis=1)]
            assert (peak > 0).all()

    def test_repeat_calls_identical(self):
        x = SessionRng(10).normal(1.0, (20, 6), np.float64)
        first, second = pca_export(x, k=3), pca_export(x, k=3)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("k", [0, 4])
    def test_k_outside_one_to_d(self, k):
        with pytest.raises(InputError):
            pca_export(np.eye(5, 3), k=k)


class TestPcaPlot:
    def test_no_tables_is_config_error(self, tmp_path):
        (tmp_path / "notes.txt").write_text("not a feature table")
        with pytest.raises(ConfigError, match=f"no feature files in {tmp_path}"):
            pl.pca_plot(tmp_path, tmp_path / "pca.svg")
        assert not (tmp_path / "pca.svg").exists()

    def test_writes_scatter_and_coordinates(self, tmp_path):
        rng = SessionRng(11)
        tables = {"b": rng.normal(1.0, (3, 4)), "a": rng.normal(1.0, (2, 4))}
        for vid, rows in tables.items():
            write_features(tmp_path / f"{vid}.wlft", rows)
        svg, csv = tmp_path / "pca.svg", tmp_path / "pca.csv"
        ratios = pl.pca_plot(tmp_path, svg, csv)
        _, coords, expected = pca_export(
            np.concatenate([tables["a"], tables["b"]]).astype(np.float32), k=2)
        np.testing.assert_array_equal(ratios, expected)
        lines = svg.read_text().splitlines()
        assert lines[0] == ('<svg xmlns="http://www.w3.org/2000/svg" '
                            'width="420" height="420">')
        assert lines[-1] == "</svg>"
        assert sum(line.startswith("<circle") for line in lines) == 5
        rows = csv.read_text().splitlines()
        assert rows[0] == "video,pc1,pc2"
        assert [r.split(",")[0] for r in rows[1:]] == ["a"] * 2 + ["b"] * 3
        assert rows[1] == f"a,{coords[0, 0]:.6f},{coords[0, 1]:.6f}"

    def test_coordinates_optional(self, tmp_path):
        write_features(tmp_path / "v.wlft", SessionRng(12).normal(1.0, (3, 2)))
        pl.pca_plot(tmp_path, tmp_path / "pca.svg")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pca.svg",
                                                              "v.wlft"]


def _assert_same_state(a, b):
    sa, sb = a.state_dict(), b.state_dict()
    assert list(sa) == list(sb)
    for name in sa:
        assert sa[name].dtype == sb[name].dtype, name
        np.testing.assert_array_equal(sa[name], sb[name], err_msg=name)


ROWS = [{"step": 0, "lr": 0.01, "L_total": 3.5, "clipped": False},
        {"step": 1, "lr": 0.005, "L_total": 3.25, "clipped": True}]


class TestBundles:
    def test_stage1_round_trip(self, tmp_path):
        model = make_tiny_model(seed=3)
        save_stage1_bundle(tmp_path, model, ROWS)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "curve.csv", "model.json", "stage1.wlcp", "vocab.txt"]
        assert (tmp_path / "curve.csv").read_text().splitlines() == [
            "step,lr,L_total,clipped", "0,0.01,3.5,False", "1,0.005,3.25,True"]
        loaded = load_stage1_bundle(tmp_path)
        _assert_same_state(model, loaded)
        assert loaded.vocab.encode("a blue probe") == \
            model.vocab.encode("a blue probe")

    def test_stage1_round_trip_with_lora(self, tmp_path):
        stage1, adapters = tmp_path / "stage1", tmp_path / "lora"
        stage1.mkdir()
        adapters.mkdir()
        model = make_tiny_model(seed=4)
        save_stage1_bundle(stage1, model, ROWS)
        lora.attach(model, r=2, alpha=3.0, seed=1)
        for a in lora.iter_adapters(model):
            a.lora_b.data = SessionRng(5).normal(0.3, a.lora_b.shape)
        save_lora_bundle(adapters, model, stage1, ROWS)
        loaded = load_stage1_bundle(stage1, adapters)
        _assert_same_state(model, loaded)
        assert [(a.rank, a.alpha) for a in lora.iter_adapters(loaded)] == \
            [(2, 3.0)] * len(lora.iter_adapters(model))

    def test_lora_bundle_holds_only_the_adapter_factors(self, tmp_path):
        model = make_tiny_model(seed=4)
        stage1, out = tmp_path / "stage1", tmp_path / "lora"
        save_stage1_bundle(stage1, model, ROWS)
        adapters = lora.attach(model, r=2, seed=1)
        save_lora_bundle(out, model, stage1, ROWS)
        assert sorted(p.name for p in out.iterdir()) == [
            "curve.csv", "lora.json", "lora.wlcp"]
        saved = read_checkpoint(out / "lora.wlcp")
        assert len(saved) == 2 * len(adapters)
        assert list(saved) == [f"lora.{name}" for name in model.parameters()
                               if ".lora_" in name]
        assert read_json(out / "lora.json") == {
            "rank": 2, "alpha": 2.0, "stage1": str(stage1),
            "stage1_sha256": hashlib.sha256(
                (stage1 / "stage1.wlcp").read_bytes()).hexdigest()}

    def test_lora_bundle_refuses_another_base(self, tmp_path):
        """Adapters load onto a copy of the base they were trained on, and
        are refused on any other base, naming lora.json."""
        stage1, other, adapters = (tmp_path / n for n in ("a", "b", "lora"))
        model = make_tiny_model(seed=4)
        save_stage1_bundle(stage1, model, ROWS)
        save_stage1_bundle(other, make_tiny_model(seed=5), ROWS)
        lora.attach(model, r=2, seed=1)
        save_lora_bundle(adapters, model, stage1, ROWS)
        shutil.copytree(stage1, tmp_path / "copy")
        _assert_same_state(model, load_stage1_bundle(tmp_path / "copy",
                                                     adapters))
        with pytest.raises(InputError, match=re.escape(
                f"{adapters / 'lora.json'}: adapters were trained on another "
                f"stage-1 bundle than {other}")):
            load_stage1_bundle(other, adapters)

    def test_lora_bundle_needs_adapters(self, tmp_path):
        with pytest.raises(StateError, match="no adapters"):
            save_lora_bundle(tmp_path, make_tiny_model(), tmp_path, ROWS)

    def test_stage1_bundle_refuses_adapters(self, tmp_path):
        model = make_tiny_model()
        lora.attach(model, r=2)
        with pytest.raises(StateError, match="save_lora_bundle"):
            save_stage1_bundle(tmp_path, model, ROWS)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("variant", ["tcn", "asformer"])
    def test_temporal_round_trip(self, tmp_path, variant):
        cfg = TemporalConfig(num_classes=3, feature_dim=4, hidden=4,
                             tcn_layers=2, tcn_refinements=1,
                             asf_encoder_layers=2, asf_decoder_layers=1)
        model = build_temporal_model(variant, cfg, SessionRng(6))
        classes = ["idle", "dissect", "clip"]
        save_temporal_bundle(tmp_path, model, classes, [2.5, 1.25])
        assert (tmp_path / "curve.csv").read_text().splitlines() == [
            "epoch,loss", "0,2.5", "1,1.25"]
        loaded, loaded_classes = load_temporal_bundle(tmp_path)
        assert loaded_classes == classes
        assert loaded.variant == variant and loaded.cfg == cfg
        _assert_same_state(model, loaded)

    @pytest.mark.parametrize("classes", [["idle", "cut"],
                                         ["idle", "cut", "clip", "rinse"]])
    def test_temporal_bundle_needs_one_name_per_class(self, tmp_path,
                                                      classes):
        model = build_temporal_model(
            "tcn", TemporalConfig(num_classes=3, feature_dim=4, hidden=4),
            SessionRng(6))
        with pytest.raises(ConfigError, match=f"{len(classes)} class names "
                           "for a 3-class model"):
            save_temporal_bundle(tmp_path, model, classes, [1.0])
        assert list(tmp_path.iterdir()) == []
