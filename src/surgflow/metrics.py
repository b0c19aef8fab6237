"""Phase-segmentation evaluation: frame accuracy, per-phase P/R/Jaccard/F1,
micro accuracy, segmental edit score, and overlap F1 at IoU thresholds."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from .errors import InputError
from .serialization import write_csv, write_svg
from .timeline import PhaseTimeline, runs, sample, to_frames

OVERLAP_THRESHOLDS = (0.10, 0.25, 0.50)


def _pair(pred: Sequence, gt: Sequence) -> tuple:
    """`pred` and `gt` as arrays, when they are equal-length and nonempty."""
    pred, gt = np.asarray(pred), np.asarray(gt)
    if pred.shape != gt.shape or pred.size == 0:
        raise InputError("pred/gt must be equal-length nonempty sequences")
    return pred, gt


def frame_accuracy(pred: Sequence, gt: Sequence) -> float:
    pred, gt = _pair(pred, gt)
    return 100.0 * float(np.mean(pred == gt))


def per_phase_metrics(pred: Sequence, gt: Sequence) -> Dict[str, float]:
    """Macro-averaged per-phase precision, recall, Jaccard, and F1 for one
    video.  Phases absent from both sides are excluded; phases present in
    exactly one side score 0."""
    pred, gt = _pair(pred, gt)
    rows = []  # (precision, recall, jaccard, f1) of each phase
    for phase in sorted(set(pred.tolist()) | set(gt.tolist())):
        in_pred, in_gt = pred == phase, gt == phase
        tp = float(np.sum(in_pred & in_gt))
        p_total = float(np.sum(in_pred))
        g_total = float(np.sum(in_gt))
        union = float(np.sum(in_pred | in_gt))
        precision = tp / p_total if p_total else 0.0
        recall = tp / g_total if g_total else 0.0
        jaccard = tp / union if union else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        rows.append((precision, recall, jaccard, f1))
    return {name: 100.0 * float(np.mean(column)) for name, column in
            zip(("precision", "recall", "jaccard", "f1"), zip(*rows))}


def acc_micro(pairs: Sequence[Tuple[Sequence, Sequence]]) -> float:
    """Frame-pooled accuracy over a set of (pred, gt) videos."""
    if not pairs:
        raise InputError("need at least one video")
    correct = total = 0
    for pred, gt in pairs:
        pred, gt = _pair(pred, gt)
        correct += int(np.sum(pred == gt))
        total += pred.size
    return 100.0 * correct / total


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Textbook O(n*m) edit distance over arbitrary label sequences."""
    n, m = len(a), len(b)
    prev = list(range(m + 1))
    for i in range(1, n + 1):
        cur = [i] + [0] * m
        for j in range(1, m + 1):
            sub = prev[j - 1] + (0 if a[i - 1] == b[j - 1] else 1)
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, sub)
        prev = cur
    return prev[m]


def edit_score(pred: Sequence, gt: Sequence) -> float:
    """100 * (1 - normalized Levenshtein over segment-label sequences)."""
    pred, gt = _pair(pred, gt)
    seg_p = [s[0] for s in runs(pred)]
    seg_g = [s[0] for s in runs(gt)]
    denom = max(len(seg_p), len(seg_g))
    return 100.0 * (1.0 - levenshtein(seg_p, seg_g) / denom)


def overlap_f1(pred: Sequence, gt: Sequence, tau: float) -> float:
    """Segmental F1 with greedy one-to-one IoU matching at threshold tau.

    A predicted segment is a true positive when its best-IoU same-label
    unmatched ground-truth segment reaches IoU >= tau (ties count)."""
    pred, gt = _pair(pred, gt)
    seg_p = runs(pred)
    seg_g = runs(gt)
    matched = [False] * len(seg_g)
    tp = fp = 0
    for label, ps, pe in seg_p:
        best_iou, best_j = 0.0, -1
        for j, (glabel, gs, ge) in enumerate(seg_g):
            if glabel != label or matched[j]:
                continue
            inter = max(0, min(pe, ge) - max(ps, gs))
            union = max(pe, ge) - min(ps, gs)
            iou = inter / union
            if iou > best_iou:
                best_iou, best_j = iou, j
        if best_j >= 0 and best_iou >= tau:
            tp += 1
            matched[best_j] = True
        else:
            fp += 1
    fn = matched.count(False)
    denom = 2 * tp + fp + fn
    return 100.0 * 2 * tp / denom if denom else 100.0


@dataclass
class MetricReport:
    per_video: Dict[str, Dict[str, float]] = field(default_factory=dict)
    aggregate: Dict[str, float] = field(default_factory=dict)
    std: Dict[str, float] = field(default_factory=dict)

    VIDEO_METRICS = ("accuracy", "precision", "recall", "jaccard", "f1",
                     "edit", "overlap_f1@0.10", "overlap_f1@0.25",
                     "overlap_f1@0.50", "avg_overlap_f1")

    def to_json(self) -> str:
        return json.dumps({"per_video": self.per_video,
                           "aggregate": self.aggregate,
                           "std": self.std}, indent=2)

    def write_csv(self, path) -> None:
        cols = list(self.VIDEO_METRICS) + ["acc_micro"]
        rows = [[vid] + [f"{self.per_video[vid][c]:.4f}"
                         if c in self.per_video[vid] else "" for c in cols]
                for vid in sorted(self.per_video)]
        rows.append(["aggregate"] + [f"{self.aggregate.get(c, float('nan')):.4f}"
                                     for c in cols])
        rows.append(["std"] + [f"{self.std[c]:.4f}" if c in self.std else ""
                               for c in cols])
        write_csv(path, ["video"] + cols, rows)

    def write_svg(self, path) -> None:
        """Minimal self-contained bar chart of the aggregate metrics."""
        metrics = [(k, self.aggregate[k]) for k in self.VIDEO_METRICS
                   if k in self.aggregate]
        width, bar_h, gap = 420, 18, 6
        height = (bar_h + gap) * len(metrics) + 20
        parts = []
        for i, (name, value) in enumerate(metrics):
            y = 10 + i * (bar_h + gap)
            w = 2.5 * value
            parts.append(f'<rect x="140" y="{y}" width="{w:.1f}" '
                         f'height="{bar_h}" fill="#4878a8"/>')
            parts.append(f'<text x="4" y="{y + 13}" font-size="11">{name}</text>')
            parts.append(f'<text x="{145 + w:.1f}" y="{y + 13}" '
                         f'font-size="11">{value:.1f}</text>')
        write_svg(path, width, height, parts)


def evaluate_sequences(pairs: Dict[str, Tuple[Sequence, Sequence]]) -> MetricReport:
    """Full metric suite over {video_id: (pred_labels, gt_labels)}."""
    if not pairs:
        raise InputError("no videos to evaluate")
    report = MetricReport()
    for vid, (pred, gt) in pairs.items():
        row = {"accuracy": frame_accuracy(pred, gt)}
        row.update(per_phase_metrics(pred, gt))
        row["edit"] = edit_score(pred, gt)
        taus = [overlap_f1(pred, gt, tau) for tau in OVERLAP_THRESHOLDS]
        row.update({f"overlap_f1@{tau:.2f}": val
                    for tau, val in zip(OVERLAP_THRESHOLDS, taus)})
        row["avg_overlap_f1"] = float(np.mean(taus))
        report.per_video[vid] = row
    for name in MetricReport.VIDEO_METRICS:
        vals = [report.per_video[v][name] for v in report.per_video]
        report.aggregate[name] = float(np.mean(vals))
        report.std[name] = float(np.std(vals))
    report.aggregate["acc_micro"] = acc_micro(list(pairs.values()))
    return report


def evaluate_timelines(pred: Dict[str, PhaseTimeline],
                       gt: Dict[str, PhaseTimeline],
                       fps: float = 1.0) -> MetricReport:
    """Sample both timelines on the ground truth's frames at `fps` and run
    the full suite; their lengths may differ by at most one frame."""
    if set(pred) != set(gt):
        raise InputError(f"video id sets differ: {set(pred) ^ set(gt)}")
    pairs = {}
    for vid in gt:
        n, n_pred = (to_frames(tl[vid].duration, fps) for tl in (gt, pred))
        if abs(n - n_pred) > 1:
            raise InputError(f"{vid}: prediction covers {n_pred} frames, "
                             f"ground truth {n} frames at {fps} fps")
        if n == 0:
            raise InputError(f"{vid}: empty rasterization")
        pairs[vid] = (sample(pred[vid], n, fps), sample(gt[vid], n, fps))
    return evaluate_sequences(pairs)
