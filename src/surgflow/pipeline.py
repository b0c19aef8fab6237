"""End-to-end orchestration: clip partitioning, feature extraction, two-stage
segmentation, zero-shot phase prediction, dense captioning, PCA export, the
stage-1 and temporal model bundles, and the training-subset ablation."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from . import lora as lora_mod
from .errors import ConfigError, InputError, StateError
from .metrics import MetricReport, evaluate_timelines
from .models import MGA_PROMPT, CAPTION_PROMPT, ModelConfig, Stage1Model
from .objectives import similarity_matrix
from .rng import SessionRng
from .serialization import read_checkpoint, read_features, write_checkpoint
from .temporal import (FeatureSequence, TemporalConfig, TrainTemporalConfig,
                       build_temporal_model, train_temporal)
from .vocab import Vocabulary


@dataclass(frozen=True)
class Clip:
    index: int
    start_frame: int
    end_frame: int          # exclusive
    start_s: float
    end_s: float


@dataclass
class ClipPartition:
    clips: List[Clip]
    clip_seconds: float
    fps: float

    def __len__(self) -> int:
        return len(self.clips)


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

    @property
    def labels(self) -> List[str]:
        return sorted({s.label for s in self.segments})

    def label_at(self, t: float) -> str:
        for seg in self.segments:
            if seg.start_s <= t < seg.end_s:
                return seg.label
        return self.segments[-1].label if self.segments else ""

    def fill_gaps(self, idle_label: str) -> "PhaseTimeline":
        """Ground-truth timelines disallow gaps; fill them with Idle."""
        out = []
        cursor = 0.0
        for seg in self.segments:
            if seg.start_s > cursor + 1e-9:
                out.append(Segment(cursor, seg.start_s, idle_label))
            out.append(seg)
            cursor = seg.end_s
        return PhaseTimeline(out)

    def to_dict(self, video_id: str, fps: float = 1.0) -> dict:
        return {"video_id": video_id, "fps": fps,
                "segments": [{"start_s": s.start_s, "end_s": s.end_s,
                              "label": s.label} for s in self.segments]}

    @classmethod
    def from_dict(cls, payload: dict) -> "PhaseTimeline":
        return cls([Segment(s["start_s"], s["end_s"], s["label"])
                    for s in payload["segments"]])


@dataclass
class Caption:
    start_s: float
    end_s: float
    text: str

    def __post_init__(self):
        if self.end_s <= self.start_s:
            raise InputError("caption span must be positive")
        if self.end_s - self.start_s > 10.0 + 1e-6:
            raise InputError("caption span exceeds 10 seconds")


# -- operations ---------------------------------------------------------------


def partition(duration_s: float, clip_seconds: float = 1.0,
              fps: float = 8.0) -> ClipPartition:
    """Non-overlapping equal-length clips covering [0, duration); the final
    partial clip is kept (encoders repeat-pad short clips)."""
    if duration_s <= 0:
        raise InputError("video duration must be positive")
    total_frames = int(round(duration_s * fps))
    m = math.ceil(duration_s / clip_seconds - 1e-9)
    clips = []
    for i in range(m):
        start_s = i * clip_seconds
        end_s = min((i + 1) * clip_seconds, duration_s)
        sf = int(round(start_s * fps))
        ef = min(int(round(end_s * fps)), total_frames)
        clips.append(Clip(i, sf, max(ef, sf + 1), start_s, end_s))
    return ClipPartition(clips, clip_seconds, fps)


def extract_features(frames: np.ndarray, model: Stage1Model,
                     part: ClipPartition, video_id: str = "",
                     batch_size: int = 16) -> FeatureSequence:
    """Per clip: encode video, decode the alignment prompt non-causally with
    cross-attention into the clip, and bridge the decoder tokens to one row."""
    prompt = model.prompt_ids(MGA_PROMPT)
    rows = []
    for start in range(0, len(part.clips), batch_size):
        chunk = part.clips[start:start + batch_size]
        clips = [frames[c.start_frame:c.end_frame] for c in chunk]
        video = model.encode_video_batch(clips)
        ids = np.tile(np.asarray(prompt, np.int64), (len(clips), 1))
        pad = np.zeros_like(ids, bool)
        hidden, _ = model.decode_multimodal(ids, pad, video, causal=False)
        rows.append(model.bridge(hidden).data)
    return FeatureSequence(np.concatenate(rows, axis=0), video_id,
                           fps=1.0 / part.clip_seconds)


def merge_labels(labels: Sequence[str], clip_seconds: float) -> PhaseTimeline:
    """Run-length merge of per-clip labels into a timeline."""
    segs = []
    start = 0
    labels = list(labels)
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[start]:
            segs.append(Segment(start * clip_seconds, i * clip_seconds,
                                labels[start]))
            start = i
    return PhaseTimeline(segs)


def segment(frames: np.ndarray, model: Stage1Model, temporal_model,
            class_names: Sequence[str], fps: float,
            clip_seconds: float = 1.0) -> tuple:
    """Two-stage segmentation; returns (PhaseTimeline, final-stage logits)."""
    part = partition(len(frames) / fps, clip_seconds, fps)
    seq = extract_features(frames, model, part)
    outputs = temporal_model(seq)
    final = outputs[-1]
    labels = [class_names[k] for k in final.labels]
    return merge_labels(labels, clip_seconds), final


def zero_shot(frames: np.ndarray, model: Stage1Model,
              prototypes: Dict[str, str], fps: float,
              clip_seconds: float = 1.0, batch_size: int = 16) -> PhaseTimeline:
    """Per-clip class prediction by fine-grained similarity to encoded
    prototype sentences; clip-wise argmax concatenated into a timeline."""
    if len(prototypes) < 2:
        raise ConfigError("zero-shot needs at least two classes")
    class_names = sorted(prototypes)
    prompt = model.prompt_ids(MGA_PROMPT)
    text = model.encode_text_batch(
        [prompt + model.vocab.encode(prototypes[c]) for c in class_names],
        len(prompt))
    e_t, w_t = model.head.pool_text(text)
    part = partition(len(frames) / fps, clip_seconds, fps)
    labels = []
    for start in range(0, len(part.clips), batch_size):
        chunk = part.clips[start:start + batch_size]
        clips = [frames[c.start_frame:c.end_frame] for c in chunk]
        video = model.encode_video_batch(clips)
        e_v, w_v = model.head.pool_video(video)
        scores = similarity_matrix(e_t, w_t, text.pad_mask, e_v, w_v)
        labels.extend(class_names[k] for k in scores.data.argmax(axis=0))
    return merge_labels(labels, clip_seconds)


def dense_caption(frames: np.ndarray, model: Stage1Model, temporal_model,
                  class_names: Sequence[str], fps: float,
                  idle_label: str = "idle", chunk_seconds: float = 10.0,
                  max_len: int = 16) -> List[Caption]:
    """Caption each predicted non-idle segment in consecutive <=10 s chunks,
    re-encoding all frames of each chunk."""
    timeline, _ = segment(frames, model, temporal_model, class_names, fps)
    prompt = model.prompt_ids(CAPTION_PROMPT)
    captions = []
    for seg in timeline.segments:
        if seg.label == idle_label:
            continue
        start = seg.start_s
        while start < seg.end_s - 1e-9:
            end = min(start + chunk_seconds, seg.end_s)
            lo = int(round(start * fps))
            hi = max(lo + 1, int(round(end * fps)))
            video = model.encode_video(frames[lo:min(hi, len(frames))])
            ids = model.generate_caption(video, prompt, max_len=max_len)
            captions.append(Caption(start, end, model.vocab.decode(ids)))
            start = end
    return sorted(captions, key=lambda c: c.start_s)


def pca_export(embeddings: np.ndarray, k: int = 2, seed: int = 0,
               iters: int = 200) -> tuple:
    """Top-k principal components via power iteration with deflation.

    Returns (components [k, D], coordinates [N, k], explained-variance
    ratios [k]).
    """
    x = np.asarray(embeddings, np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InputError("need at least two embedding rows")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    total_var = float(np.trace(cov))
    rng = SessionRng(seed)
    components = []
    ratios = []
    work = cov.copy()
    for _ in range(k):
        v = rng.normal(1.0, (cov.shape[0],), np.float64)
        v /= np.linalg.norm(v)
        for _ in range(iters):
            nxt = work @ v
            norm = np.linalg.norm(nxt)
            if norm < 1e-12:
                break
            nxt /= norm
            if np.linalg.norm(nxt - v) < 1e-12:
                v = nxt
                break
            v = nxt
        lam = float(v @ work @ v)
        components.append(v.copy())
        ratios.append(lam / total_var if total_var > 0 else 0.0)
        work = work - lam * np.outer(v, v)
    comp = np.stack(components)
    coords = centered @ comp.T
    return comp, coords, np.asarray(ratios)


# -- JSON artifacts -----------------------------------------------------------


def captions_to_dict(video_id: str, captions: Sequence[Caption]) -> dict:
    return {"video_id": video_id,
            "captions": [{"start_s": c.start_s, "end_s": c.end_s,
                          "text": c.text} for c in captions]}


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- model bundles ------------------------------------------------------------


def save_stage1_bundle(out, model: Stage1Model) -> None:
    """Write vocab.txt and model.json into directory `out`; the weights,
    stage1.wlcp, are the checkpoint objectives.pretrain writes."""
    out = Path(out)
    model.vocab.save(out / "vocab.txt")
    cfg = asdict(model.cfg)
    cfg["feature_dim"] = model.bridge.proj.d_out
    (out / "model.json").write_text(json.dumps(cfg, indent=2))


def save_lora_bundle(out, model: Stage1Model, stage1) -> None:
    """Write lora.json for the adapters attached to `model`, which was loaded
    from the stage-1 bundle `stage1`; the adapter weights, lora.wlcp, are the
    checkpoint objectives.pretrain writes with lora_only=True."""
    out = Path(out)
    adapters = lora_mod.iter_adapters(model)
    if not adapters:
        raise StateError("no adapters attached")
    (out / "lora.json").write_text(json.dumps(
        {"rank": adapters[0].rank, "alpha": adapters[0].alpha,
         "stage1": str(stage1)}, indent=2))


def load_stage1_bundle(stage1, lora=None) -> Stage1Model:
    """Rebuild the model of a stage-1 bundle, with the adapters of the LoRA
    bundle `lora` attached when one is given."""
    stage1 = Path(stage1)
    vocab = Vocabulary.load(stage1 / "vocab.txt")
    cfg = read_json(stage1 / "model.json")
    feature_dim = cfg.pop("feature_dim")
    cfg.pop("vocab_size", None)
    model = Stage1Model(ModelConfig(**cfg), vocab, SessionRng(0), feature_dim)
    model.load_state_dict(read_checkpoint(stage1 / "stage1.wlcp"))
    if lora is not None:
        lora = Path(lora)
        spec = read_json(lora / "lora.json")
        lora_mod.attach(model, r=spec["rank"], alpha=spec["alpha"])
        lora_mod.load_adapter_checkpoint(
            model, read_checkpoint(lora / "lora.wlcp"))
    return model


def save_temporal_bundle(out, model, classes: Sequence[str]) -> None:
    """Write temporal.json and temporal.wlcp into directory `out`."""
    out = Path(out)
    write_checkpoint(out / "temporal.wlcp", model.state_dict())
    (out / "temporal.json").write_text(json.dumps(
        {"variant": model.variant, "classes": list(classes),
         "config": asdict(model.cfg)}, indent=2))


def load_temporal_bundle(temporal) -> tuple:
    """Rebuild (model, class names) from a temporal bundle directory."""
    temporal = Path(temporal)
    spec = read_json(temporal / "temporal.json")
    cfg = TemporalConfig(**spec["config"])
    model = build_temporal_model(spec["variant"], cfg, SessionRng(0))
    model.load_state_dict(read_checkpoint(temporal / "temporal.wlcp"))
    return model, spec["classes"]


# -- stage-2 datasets and the subset ablation ---------------------------------


def labels_for(timeline: PhaseTimeline, classes: Sequence[str], length: int,
               idle_label: str = "idle") -> np.ndarray:
    """Class index of each second's midpoint, gaps filled with idle."""
    filled = timeline.fill_gaps(idle_label)
    return np.array([classes.index(filled.label_at(min(i + 0.5,
                                                       filled.duration - 1e-6)))
                     for i in range(length)])


def dataset_from_dirs(features_dir, corpus, classes: Sequence[str],
                      video_ids) -> list:
    """(FeatureSequence, labels) pairs from feature files and a corpus's
    ground-truth timelines."""
    dataset = []
    for vid in video_ids:
        feats = read_features(Path(features_dir) / f"{vid}.wlft")
        gt = PhaseTimeline.from_dict(
            read_json(Path(corpus) / "timelines" / f"{vid}.json"))
        labels = labels_for(gt, classes, feats.shape[0])
        dataset.append((FeatureSequence(feats, vid), labels))
    return dataset


def evaluate_split(model, features_dir, corpus, classes: Sequence[str],
                   video_ids) -> MetricReport:
    """Score a temporal model's final stage on the given corpus videos."""
    pred = {}
    gt = {}
    for vid in video_ids:
        feats = read_features(Path(features_dir) / f"{vid}.wlft")
        final = model(FeatureSequence(feats, vid))[-1]
        labels = [classes[k] for k in final.labels]
        pred[vid] = merge_labels(labels, 1.0)
        gt[vid] = PhaseTimeline.from_dict(
            read_json(Path(corpus) / "timelines" / f"{vid}.json")
        ).fill_gaps("idle")
    return evaluate_timelines(pred, gt, fps=1.0)


def fit_temporal(dataset: list, num_classes: int, variant: str, epochs: int,
                 seed: int) -> tuple:
    """Train a seeded temporal model sized to `dataset`; returns the model
    and its per-epoch loss curve."""
    cfg = TemporalConfig(num_classes=num_classes,
                         feature_dim=dataset[0][0].features.shape[1])
    model = build_temporal_model(variant, cfg, SessionRng(seed))
    curve = train_temporal(model, dataset,
                           TrainTemporalConfig(epochs=epochs, seed=seed))
    return model, curve


ABLATION_METRICS = ("accuracy", "edit", "overlap_f1@0.50", "acc_micro")


def ablate_subset(features_dir, corpus, classes, train_ids, test_ids,
                  fractions, variant: str, epochs: int, seed: int) -> list:
    """Train on seeded nested subsets of the training videos and evaluate
    each model on the fixed held-out split."""
    if not fractions or any(not 0.0 < f <= 1.0 for f in fractions):
        raise ConfigError("fractions must lie in (0, 1]")
    order = SessionRng(seed).permutation(len(train_ids))
    rows = []
    for fraction in fractions:
        count = int(round(fraction * len(train_ids)))
        if count < 1:
            raise ConfigError(f"fraction {fraction} selects zero videos")
        chosen = [train_ids[i] for i in sorted(order[:count])]
        dataset = dataset_from_dirs(features_dir, corpus, classes, chosen)
        model, _ = fit_temporal(dataset, len(classes), variant, epochs, seed)
        report = evaluate_split(model, features_dir, corpus, classes,
                                test_ids)
        rows.append({"fraction": fraction, "videos": count,
                     **{k: report.aggregate[k] for k in ABLATION_METRICS}})
    return rows
