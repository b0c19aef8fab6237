"""End-to-end acceptance gate.

Bundles the release criteria in one place: finite-difference gradient
checks, closed-form loss values, oracle comparisons for the similarity,
crop search, and segmentation metrics, adapter invariants, and a seeded
CPU run of the full pipeline (pretraining, both stage-2 variants,
zero-shot labelling, dense captioning, adapter domain transfer, and the
training-subset ablation) with minimum quality bars.
"""

import math
import time

import numpy as np
import pytest

from conftest import TINY_TEXTS, make_tiny_model, tiny_clips
from oracles import brute_similarity, max_empty_rect_area
from test_lora import Host, base_hash, random_config
from test_metrics import (random_pair, ref_edit, ref_overlap_f1,
                          ref_per_phase)

from surgflow import autodiff as ad
from surgflow import lora
from surgflow import pipeline as pl
from surgflow import synthetic as syn
from surgflow.autodiff import Tensor
from surgflow.pipeline import ablate_subset
from surgflow.corpus import TextBox, crop_search
from surgflow.diagnostics import gradient_suite
from surgflow.metrics import (edit_score, evaluate_timelines, frame_accuracy,
                              overlap_f1, per_phase_metrics, rasterize)
from surgflow.models import CAPTION_PROMPT, MGA_PROMPT, ModelConfig, Stage1Model
from surgflow.objectives import (ClipStore, PretrainConfig, load_manifest,
                                 mga_loss_from_scores, pretrain,
                                 similarity_matrix, valor_loss)
from surgflow.optim import AdamW
from surgflow.rng import SessionRng
from surgflow.serialization import read_frame_grid, write_features
from surgflow.temporal import (TemporalConfig, TrainTemporalConfig,
                               build_temporal_model, train_temporal)
from surgflow.vocab import Vocabulary

ONE = Tensor(np.array(1.0, np.float64))


# --- criterion: gradient checks on every loss -------------------------------

class TestGradientSuite:
    def test_all_losses_within_tolerance_and_budget(self):
        t0 = time.time()
        for dtype, tol in ((np.float32, 1e-3), (np.float64, 1e-5)):
            report = gradient_suite(dtype)
            assert set(report) == {"mga_loss", "mgc_loss", "mlm_loss",
                                   "valor_loss", "tcn_loss", "ce_dice_loss",
                                   "soft_dice"}
            for name, err in report.items():
                assert err < tol, f"{name} ({np.dtype(dtype).name}): {err}"
        assert time.time() - t0 < 120.0


# --- criterion: closed-form loss values -------------------------------------

class TestClosedForms:
    def test_single_pair_contrastive_is_zero(self):
        s = Tensor(np.array([[3.2]], np.float64))
        assert abs(mga_loss_from_scores(s, ONE).item()) < 1e-9

    def test_identity_scores_two_pairs(self):
        s = Tensor(np.eye(2, dtype=np.float64))
        loss = mga_loss_from_scores(s, ONE).item()
        assert loss == pytest.approx(0.62652, abs=1e-5)
        assert loss == pytest.approx(2.0 * math.log(1.0 + math.exp(-1.0)),
                                     abs=1e-9)

    @pytest.mark.parametrize("k", [2, 3, 7, 11])
    def test_uniform_cross_entropy_is_log_k(self, k):
        logits = Tensor(np.zeros((5, k), np.float64))
        loss = ad.cross_entropy(logits, np.arange(5) % k).item()
        assert loss == pytest.approx(math.log(k), abs=1e-6)

    def test_combined_loss_is_mean_of_terms(self):
        model = make_tiny_model(seed=3)
        clips = tiny_clips(SessionRng(4), 3)
        caption_ids = [model.vocab.encode(t) for t in TINY_TEXTS]
        report = valor_loss(model, clips, caption_ids, SessionRng(5))
        want = (report.mga.item() + report.mgc.item() +
                report.mlm.item()) / 3.0
        assert report.total.item() == pytest.approx(want, abs=1e-6)


# --- criterion: token-match similarity vs a nested-loop oracle --------------

class TestSimilarityOracle:
    def test_100_random_instances(self):
        rng = SessionRng(21)
        for _ in range(100):
            b, b2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            n_t, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            d = int(rng.integers(1, 5))
            e_t = rng.normal(1.0, (b, n_t, d), np.float64)
            e_t /= np.linalg.norm(e_t, axis=-1, keepdims=True)
            e_v = rng.normal(1.0, (b2, m, d), np.float64)
            e_v /= np.linalg.norm(e_v, axis=-1, keepdims=True)
            w_t = rng.uniform(0, 1, (b, n_t), np.float64) + 0.1
            w_t /= w_t.sum(axis=1, keepdims=True)
            w_v = rng.uniform(0, 1, (b2, m), np.float64) + 0.1
            w_v /= w_v.sum(axis=1, keepdims=True)
            s = similarity_matrix(Tensor(e_t), Tensor(w_t), None,
                                  Tensor(e_v), Tensor(w_v))
            for i in range(b):
                for j in range(b2):
                    want = brute_similarity(e_t[i], w_t[i], e_v[j], w_v[j])
                    assert s.data[i, j] == pytest.approx(want, abs=1e-10)


# --- criterion: adapter invariants over random configurations ---------------

class TestAdapterInvariants:
    @pytest.mark.parametrize("trial", range(20))
    def test_zero_init_freeze_disable_merge(self, trial):
        rng = SessionRng(900 + trial)
        dim, n_heads, n_layers, r = random_config(rng)
        host = Host(dim, n_heads, n_layers, rng)
        x = Tensor(rng.normal(1.0, (1, 4, dim)))
        base_out = host(x).data.copy()

        adapters = lora.attach(host, r=r, seed=trial)
        np.testing.assert_allclose(host(x).data, base_out, atol=1e-6)
        frozen_hash = base_hash(host)

        lora.freeze_base(host)
        opt = AdamW(host.parameters(), lr=1e-2)
        for _ in range(3):
            loss = ad.reduce_sum(host(x) * host(x))
            for p in host.parameters().values():
                p.grad = None
            loss.backward()
            opt.step()
        assert base_hash(host) == frozen_hash

        adapted_out = host(x).data.copy()
        lora.set_enabled(host, False)
        np.testing.assert_array_equal(host(x).data, base_out)
        lora.set_enabled(host, True)

        lora.merge(host)
        np.testing.assert_allclose(host(x).data, adapted_out, atol=1e-5)
        assert len(adapters) == 2 * n_layers


# --- criterion: segmentation metrics vs a brute-force scorer ----------------

class TestMetricsOracle:
    def test_200_random_pairs(self):
        rng = SessionRng(31)
        for _ in range(200):
            pred, gt = random_pair(rng, max_len=50, max_classes=5)
            assert frame_accuracy(pred, gt) == pytest.approx(
                100.0 * np.mean(np.array(pred) == np.array(gt)), abs=1e-12)
            m = per_phase_metrics(pred, gt)
            rp, rr, rj, rf = ref_per_phase(pred, gt)
            assert m["precision"] == pytest.approx(rp, abs=1e-9)
            assert m["recall"] == pytest.approx(rr, abs=1e-9)
            assert m["jaccard"] == pytest.approx(rj, abs=1e-9)
            assert m["f1"] == pytest.approx(rf, abs=1e-9)
            assert edit_score(pred, gt) == pytest.approx(
                ref_edit(pred, gt), abs=1e-9)
            for tau in (0.10, 0.25, 0.50):
                assert overlap_f1(pred, gt, tau) == pytest.approx(
                    ref_overlap_f1(pred, gt, tau), abs=1e-9)

    def test_worked_examples(self):
        assert frame_accuracy(["A", "B", "B"], ["A", "A", "B"]) == \
            pytest.approx(66.67, abs=0.005)
        assert edit_score(["A", "B", "A", "B", "A"], ["A"] * 5) == \
            pytest.approx(20.0)
        assert overlap_f1(["A"] * 8 + ["B"] * 4, ["A"] * 10 + ["B"] * 2,
                          0.5) == pytest.approx(100.0)
        assert overlap_f1(["A"] * 8 + ["B"] * 4, ["A"] * 10 + ["B"] * 2,
                          0.9) == pytest.approx(0.0)


# --- criterion: crop search vs an exhaustive rectangle oracle ---------------

class TestCropOracle:
    def test_worked_examples(self):
        full = crop_search(640, 480, [], min_size=224)
        assert (full.x0, full.y0, full.x1, full.y1) == (0, 0, 640, 480)
        side = crop_search(100, 100, [TextBox(40, 40, 60, 60)], min_size=20)
        assert (side.x1 - side.x0) * (side.y1 - side.y0) == 4000
        ring = [TextBox(0, 0, 300, 50), TextBox(0, 250, 300, 300),
                TextBox(0, 50, 50, 250), TextBox(250, 50, 300, 250)]
        assert crop_search(300, 300, ring, min_size=224) is None

    def test_within_5_percent_of_oracle_100_instances(self):
        rng = SessionRng(41)
        for trial in range(100):
            boxes = []
            for _ in range(int(rng.integers(0, 11))):
                x0 = int(rng.integers(0, 60))
                y0 = int(rng.integers(0, 60))
                boxes.append(TextBox(x0, y0,
                                     x0 + int(rng.integers(1, 64 - x0 + 1)),
                                     y0 + int(rng.integers(1, 64 - y0 + 1))))
            best = max_empty_rect_area(64, 64, boxes)
            crop = crop_search(64, 64, boxes, min_size=1, seed=trial)
            area = 0 if crop is None else \
                (crop.x1 - crop.x0) * (crop.y1 - crop.y0)
            assert area >= 0.95 * best, f"trial {trial}: {area} < {best}"


# --- the seeded end-to-end run ----------------------------------------------

@pytest.fixture(scope="module")
def headline(tmp_path_factory):
    """Generate 40 videos, pretrain stage 1, train both stage-2 variants on
    30, and exercise zero-shot, captioning, and adapter transfer on the
    held-out 10."""
    t0 = time.time()
    root = tmp_path_factory.mktemp("headline")
    spec = syn.SyntheticSpec(seed=0)
    meta = syn.generate_corpus(spec, 40, root / "corpus")
    corpus = root / "corpus"

    manifest = load_manifest(corpus / "manifest.jsonl")
    vocab = Vocabulary.build([r["text"] for r in manifest] +
                             list(meta["prototypes"].values()) +
                             [MGA_PROMPT, CAPTION_PROMPT])
    model = Stage1Model(ModelConfig(), vocab, SessionRng(0))
    store = ClipStore(corpus / "videos", meta["fps"])
    curve = pretrain(model, corpus / "manifest.jsonl", store,
                     PretrainConfig(epochs=2, batch_size=8, seed=0),
                     root / "stage1.wlcp", root / "curve.csv")

    classes = meta["class_names"]
    train_ids = meta["video_ids"][:30]
    test_ids = meta["video_ids"][30:]
    feats, gts = {}, {}
    (root / "features").mkdir()
    for vid in meta["video_ids"]:
        frames = read_frame_grid(corpus / "videos" / f"{vid}.wlfg")
        part = pl.partition(len(frames) / meta["fps"], 1.0, meta["fps"])
        feats[vid] = pl.extract_features(frames, model, part, vid)
        write_features(root / "features" / f"{vid}.wlft",
                       feats[vid].features)
        gts[vid] = pl.PhaseTimeline.from_dict(
            pl.read_json(corpus / "timelines" / f"{vid}.json")
        ).fill_gaps("idle")

    def labels_for(vid):
        tl = gts[vid]
        length = feats[vid].features.shape[0]
        return np.array([classes.index(
            tl.label_at(min(i + 0.5, tl.duration - 1e-6)))
            for i in range(length)])

    dataset = [(feats[v], labels_for(v)) for v in train_ids]
    reports, temporal_models = {}, {}
    for variant in ("tcn", "asformer"):
        tm = build_temporal_model(
            variant, TemporalConfig(num_classes=len(classes)), SessionRng(1))
        train_temporal(tm, dataset, TrainTemporalConfig(epochs=40, seed=1))
        pred = {vid: pl.merge_labels(
            [classes[k] for k in tm(feats[vid])[-1].labels], 1.0)
            for vid in test_ids}
        reports[variant] = evaluate_timelines(
            pred, {v: gts[v] for v in test_ids}, fps=1.0)
        temporal_models[variant] = tm

    zs_pred = {}
    for vid in test_ids:
        frames = read_frame_grid(corpus / "videos" / f"{vid}.wlfg")
        zs_pred[vid] = pl.zero_shot(frames, model, meta["prototypes"],
                                    meta["fps"])
    zs_report = evaluate_timelines(zs_pred, {v: gts[v] for v in test_ids},
                                   fps=1.0)

    captions = {}
    for vid in test_ids[:5]:
        frames = read_frame_grid(corpus / "videos" / f"{vid}.wlfg")
        caps = pl.dense_caption(frames, model, temporal_models["tcn"],
                                classes, meta["fps"])
        tl, _ = pl.segment(frames, model, temporal_models["tcn"], classes,
                           meta["fps"])
        captions[vid] = (caps, tl)

    # adapter transfer onto a colour-shifted sibling corpus
    shifted_meta = syn.generate_corpus(syn.shift_colors(spec), 40,
                                       root / "shifted")
    shifted = root / "shifted"
    shifted_test = shifted_meta["video_ids"][30:]

    def shifted_zero_shot():
        pairs = []
        for vid in shifted_test:
            frames = read_frame_grid(shifted / "videos" / f"{vid}.wlfg")
            tl = pl.zero_shot(frames, model, shifted_meta["prototypes"],
                              shifted_meta["fps"])
            gt = pl.PhaseTimeline.from_dict(
                pl.read_json(shifted / "timelines" / f"{vid}.json")
            ).fill_gaps("idle")
            pairs.append((tl, gt))
        return pairs

    def mean_acc(pairs):
        accs = []
        for tl, gt in pairs:
            g, p = rasterize(gt, 1.0), rasterize(tl, 1.0)
            n = min(len(g), len(p))
            accs.append(frame_accuracy(p[:n], g[:n]))
        return float(np.mean(accs))

    base_acc = mean_acc(shifted_zero_shot())
    ref_frames = read_frame_grid(shifted / "videos" /
                                 f"{shifted_test[0]}.wlfg")
    ref_part = pl.partition(len(ref_frames) / shifted_meta["fps"], 1.0,
                            shifted_meta["fps"])
    base_features = pl.extract_features(ref_frames, model,
                                        ref_part).features.copy()

    lora.attach(model, r=8, seed=5)
    lora.freeze_base(model)
    pretrain(model, shifted / "manifest.jsonl",
             ClipStore(shifted / "videos", shifted_meta["fps"]),
             PretrainConfig(epochs=1, batch_size=8, lr_max=1e-2,
                            lr_min=1e-4, seed=5),
             root / "lora.wlcp", root / "lora_curve.csv", lora_only=True)
    tuned_acc = mean_acc(shifted_zero_shot())

    lora.set_enabled(model, False)
    disabled_features = pl.extract_features(ref_frames, model,
                                            ref_part).features
    lora.set_enabled(model, True)

    return {
        "root": root, "corpus": corpus, "meta": meta, "classes": classes,
        "train_ids": train_ids, "test_ids": test_ids, "curve": curve,
        "reports": reports, "zs_report": zs_report, "captions": captions,
        "base_acc": base_acc, "tuned_acc": tuned_acc,
        "base_features": base_features,
        "disabled_features": disabled_features,
        "wall_time_s": time.time() - t0,
    }


class TestHeadlineRun:
    def test_within_time_budget(self, headline):
        assert headline["wall_time_s"] < 1800.0

    def test_pretraining_losses_descend(self, headline):
        curve = headline["curve"]
        assert curve[-1]["L_total"] < curve[0]["L_total"]
        assert all(np.isfinite(row["L_total"]) for row in curve)

    @pytest.mark.parametrize("variant", ["tcn", "asformer"])
    def test_supervised_segmentation_bars(self, headline, variant):
        agg = headline["reports"][variant].aggregate
        assert agg["accuracy"] >= 90.0
        assert agg["edit"] >= 80.0
        assert agg["overlap_f1@0.50"] >= 80.0

    def test_zero_shot_bar(self, headline):
        assert headline["zs_report"].aggregate["accuracy"] >= 60.0

    def test_dense_captions_well_formed_and_grounded(self, headline):
        hits = total = 0
        for caps, tl in headline["captions"].values():
            assert caps == sorted(caps, key=lambda c: c.start_s)
            for a, b in zip(caps, caps[1:]):
                assert b.start_s >= a.end_s - 1e-9
            for c in caps:
                assert 0.0 < c.end_s - c.start_s <= 10.0 + 1e-9
                assert c.text
                total += 1
                phase = tl.label_at((c.start_s + c.end_s) / 2)
                assert phase != "idle"
                if phase in c.text:
                    hits += 1
        assert total > 0
        assert hits / total >= 0.80

    def test_adapter_transfer_improves_shifted_domain(self, headline):
        assert headline["tuned_acc"] >= headline["base_acc"] + 10.0

    def test_disabled_adapters_restore_base_model_exactly(self, headline):
        np.testing.assert_array_equal(headline["disabled_features"],
                                      headline["base_features"])

    def test_subset_ablation(self, headline):
        rows = ablate_subset(headline["root"] / "features",
                             headline["corpus"], headline["classes"],
                             headline["train_ids"], headline["test_ids"],
                             [0.1, 0.5, 1.0], "tcn", epochs=40, seed=1)
        assert [r["fraction"] for r in rows] == [0.1, 0.5, 1.0]
        assert [r["videos"] for r in rows] == [3, 15, 30]
        assert rows[2]["accuracy"] >= rows[0]["accuracy"] - 2.0
