"""Segmentation metrics against an independently written brute-force scorer
and hand-computed examples."""

import itertools
from functools import lru_cache

import numpy as np
import pytest

from surgflow.errors import InputError
from surgflow.metrics import (acc_micro, edit_score, evaluate_sequences,
                              frame_accuracy, levenshtein, overlap_f1,
                              per_phase_metrics)
from surgflow.rng import SessionRng
from surgflow.timeline import runs


# --- independent reference implementations (different algorithms/idioms) ---

def ref_segments(labels):
    out = []
    pos = 0
    for label, group in itertools.groupby(labels):
        n = len(list(group))
        out.append((label, pos, pos + n))
        pos += n
    return out


def ref_levenshtein(a, b):
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(d(i - 1, j) + 1, d(i, j - 1) + 1,
                   d(i - 1, j - 1) + (a[i - 1] != b[j - 1]))

    return d(len(a), len(b))


def ref_edit(pred, gt):
    sp = [s[0] for s in ref_segments(pred)]
    sg = [s[0] for s in ref_segments(gt)]
    return 100.0 * (1 - ref_levenshtein(sp, sg) / max(len(sp), len(sg)))


def ref_overlap_f1(pred, gt, tau):
    seg_p = ref_segments(pred)
    seg_g = ref_segments(gt)
    used = set()
    tp = 0
    for label, ps, pe in seg_p:
        candidates = []
        for j, (gl, gs, ge) in enumerate(seg_g):
            if gl != label or j in used:
                continue
            inter = max(0, min(pe, ge) - max(ps, gs))
            iou = inter / (max(pe, ge) - min(ps, gs))
            candidates.append((iou, j))
        if candidates:
            best_iou, best_j = max(candidates, key=lambda c: (c[0], -c[1]))
            if best_iou >= tau:
                tp += 1
                used.add(best_j)
    fp = len(seg_p) - tp
    fn = len(seg_g) - tp
    if 2 * tp + fp + fn == 0:
        return 100.0
    return 100.0 * 2 * tp / (2 * tp + fp + fn)


def ref_per_phase(pred, gt):
    pred, gt = list(pred), list(gt)
    phases = sorted(set(pred) | set(gt))
    ps, rs, js, fs = [], [], [], []
    for ph in phases:
        tp = sum(1 for p, g in zip(pred, gt) if p == ph and g == ph)
        np_ = pred.count(ph)
        ng = gt.count(ph)
        un = sum(1 for p, g in zip(pred, gt) if p == ph or g == ph)
        p = tp / np_ if np_ else 0.0
        r = tp / ng if ng else 0.0
        ps.append(p)
        rs.append(r)
        js.append(tp / un if un else 0.0)
        fs.append(2 * p * r / (p + r) if p + r else 0.0)
    return (100 * np.mean(ps), 100 * np.mean(rs), 100 * np.mean(js),
            100 * np.mean(fs))


def random_pair(rng, max_len=50, max_classes=5):
    length = int(rng.integers(1, max_len + 1))
    k = int(rng.integers(1, max_classes + 1))
    alphabet = [chr(ord("A") + i) for i in range(k)]
    pred = [alphabet[int(rng.integers(0, k))] for _ in range(length)]
    gt = [alphabet[int(rng.integers(0, k))] for _ in range(length)]
    return pred, gt


class TestWorkedExamples:
    def test_frame_accuracy(self):
        assert frame_accuracy(["A", "B", "B"], ["A", "A", "B"]) == pytest.approx(66.67, abs=0.005)

    def test_per_phase(self):
        m = per_phase_metrics(["A", "B", "B", "B"], ["A", "A", "B", "B"])
        assert m["precision"] == pytest.approx(83.3, abs=0.05)
        assert m["recall"] == pytest.approx(75.0, abs=1e-9)
        assert m["jaccard"] == pytest.approx(58.3, abs=0.05)

    def test_per_phase_total_miss(self):
        m = per_phase_metrics(["B"] * 4, ["A"] * 4)
        assert m["precision"] == m["recall"] == m["jaccard"] == 0.0

    def test_acc_micro_pools_frames(self):
        pairs = [(["A"] * 10, ["A"] * 10), (["B"] * 90, ["C"] * 90)]
        assert acc_micro(pairs) == pytest.approx(10.0)

    @pytest.mark.parametrize("pairs", [
        [([], [])],
        [(["A"], ["A"]), ([], [])],
        [(["A"], ["A", "B"])],
    ])
    def test_acc_micro_checks_each_pair(self, pairs):
        with pytest.raises(InputError, match="equal-length nonempty"):
            acc_micro(pairs)

    def test_edit_insertion(self):
        assert edit_score(["A", "A", "C", "B"], ["A", "A", "A", "B"]) == pytest.approx(66.67, abs=0.005)

    def test_edit_oversegmentation(self):
        pred = ["A", "B", "A", "B", "A"]
        gt = ["A"] * 5
        assert edit_score(pred, gt) == pytest.approx(20.0)

    def test_overlap_f1_thresholds(self):
        # one gt segment A over 10 frames, prediction covers 8 then dissents
        gt = ["A"] * 10
        pred = ["A"] * 8 + ["B"] * 2
        # the A segment matches at IoU 0.8; the spurious B is a false positive
        assert overlap_f1(pred[:8] + ["A"] * 2, gt, 0.5) == pytest.approx(100.0)
        assert overlap_f1(pred, gt, 0.5) == pytest.approx(ref_overlap_f1(pred, gt, 0.5))
        # IoU 0.8 fails a 0.9 threshold
        gt2 = ["A"] * 10 + ["B"] * 2
        pred2 = ["A"] * 8 + ["B"] * 4
        assert overlap_f1(pred2, gt2, 0.5) == pytest.approx(100.0)
        assert overlap_f1(pred2, gt2, 0.9) == pytest.approx(0.0)

    def test_perfect_prediction_is_all_100(self):
        rng = SessionRng(7)
        for _ in range(20):
            seq, _ = random_pair(rng)
            row = evaluate_sequences({"v": (seq, list(seq))}).per_video["v"]
            for value in row.values():
                assert value == pytest.approx(100.0)

    def test_imperfect_prediction_not_all_100(self):
        row = evaluate_sequences({"v": (["A", "B"], ["A", "A"])}).per_video["v"]
        assert row["accuracy"] < 100.0

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            frame_accuracy([], [])
        with pytest.raises(InputError):
            edit_score(["A"], ["A", "B"])
        with pytest.raises(InputError):
            evaluate_sequences({})


class TestAgainstReference:
    def test_segments(self):
        assert runs(["A", "A", "B", "B", "B"]) == [("A", 0, 2), ("B", 2, 5)]
        rng = SessionRng(10)
        for _ in range(100):
            seq, _ = random_pair(rng)
            assert runs(seq) == ref_segments(seq)

    def test_levenshtein_500_trials(self):
        rng = SessionRng(11)
        for _ in range(500):
            a, _ = random_pair(rng, max_len=12, max_classes=4)
            b, _ = random_pair(rng, max_len=12, max_classes=4)
            assert levenshtein(a, b) == ref_levenshtein(a, b)

    def test_full_suite_200_random_pairs(self):
        rng = SessionRng(12)
        for _ in range(200):
            pred, gt = random_pair(rng)
            assert frame_accuracy(pred, gt) == pytest.approx(
                100.0 * np.mean(np.array(pred) == np.array(gt)), abs=1e-12)
            m = per_phase_metrics(pred, gt)
            rp, rr, rj, rf = ref_per_phase(pred, gt)
            assert m["precision"] == pytest.approx(rp, abs=1e-9)
            assert m["recall"] == pytest.approx(rr, abs=1e-9)
            assert m["jaccard"] == pytest.approx(rj, abs=1e-9)
            assert m["f1"] == pytest.approx(rf, abs=1e-9)
            assert edit_score(pred, gt) == pytest.approx(ref_edit(pred, gt), abs=1e-9)
            for tau in (0.10, 0.25, 0.50):
                assert overlap_f1(pred, gt, tau) == pytest.approx(
                    ref_overlap_f1(pred, gt, tau), abs=1e-9)

    def test_temporal_scaling_invariance(self):
        # repeating every label k times preserves segment structure, so the
        # segmental scores must not change
        rng = SessionRng(13)
        for _ in range(50):
            pred, gt = random_pair(rng, max_len=20)
            k = int(rng.integers(2, 5))
            pred_k = [x for x in pred for _ in range(k)]
            gt_k = [x for x in gt for _ in range(k)]
            assert edit_score(pred_k, gt_k) == pytest.approx(edit_score(pred, gt))
            for tau in (0.10, 0.25, 0.50):
                assert overlap_f1(pred_k, gt_k, tau) == pytest.approx(
                    overlap_f1(pred, gt, tau))


class TestReport:
    def test_aggregate_is_mean_of_videos(self):
        rng = SessionRng(14)
        pairs = {f"v{i}": random_pair(rng) for i in range(5)}
        rep = evaluate_sequences(pairs)
        for name in rep.VIDEO_METRICS:
            vals = [rep.per_video[v][name] for v in pairs]
            assert rep.aggregate[name] == pytest.approx(np.mean(vals))
            assert rep.std[name] == pytest.approx(np.std(vals))
        assert rep.aggregate["acc_micro"] == pytest.approx(
            acc_micro(list(pairs.values())))

    def test_csv_and_svg_outputs(self, tmp_path):
        rep = evaluate_sequences({"v": (["A", "B"], ["A", "B"])})
        rep.write_csv(tmp_path / "m.csv")
        rep.write_svg(tmp_path / "m.svg")
        text = (tmp_path / "m.csv").read_text()
        assert "aggregate" in text and "accuracy" in text
        svg = (tmp_path / "m.svg").read_text()
        assert svg.startswith("<svg") and "accuracy" in svg
