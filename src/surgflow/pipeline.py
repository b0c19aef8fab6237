"""End-to-end orchestration: clip partitioning, feature extraction, two-stage
segmentation, zero-shot phase prediction, dense captioning, PCA export, the
stage-1, LoRA and temporal model bundles (this is the one module that names
their files), and the training-subset ablation."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from . import lora as lora_mod
from .autodiff import no_grad
from .errors import ConfigError, InputError, StateError, require_types
from .metrics import MetricReport, evaluate_sequences
from .models import MGA_PROMPT, CAPTION_PROMPT, ModelConfig, Stage1Model
from .nn import load_parameters
from .objectives import similarity_matrix
from .rng import SessionRng
from .serialization import (read_checkpoint, read_features, read_json,
                            write_checkpoint, write_csv, write_json)
from .temporal import (FeatureSequence, TemporalConfig, TrainTemporalConfig,
                       build_temporal_model, train_temporal)
from .timeline import (CAPTION_SECONDS, CLIP_SECONDS, IDLE, PhaseTimeline,
                       Segment, frame_span, runs, sample, to_frames)
from .timeline import merge_labels  # noqa: F401 (perfbench's pl.merge_labels)
from .vocab import Vocabulary


@dataclass(frozen=True)
class Clip:
    start_frame: int
    end_frame: int          # exclusive
    start_s: float
    end_s: float


@dataclass
class Caption:
    start_s: float
    end_s: float
    text: str

    def __post_init__(self):
        if self.end_s <= self.start_s:
            raise InputError("caption span must be positive")
        if self.end_s - self.start_s > CAPTION_SECONDS + 1e-6:
            raise InputError(f"caption span exceeds {CAPTION_SECONDS:g} seconds")


# -- operations ---------------------------------------------------------------


def partition(duration_s: float, clip_seconds: float = CLIP_SECONDS,
              fps: float = 8.0) -> List[Clip]:
    """Non-overlapping equal-length clips covering [0, duration); the final
    partial clip is kept (encoders repeat-pad short clips)."""
    if duration_s <= 0:
        raise InputError("video duration must be positive")
    n_frames = to_frames(duration_s, fps)
    clips = []
    for i in range(math.ceil(duration_s / clip_seconds - 1e-9)):
        start_s = i * clip_seconds
        end_s = min((i + 1) * clip_seconds, duration_s)
        clips.append(Clip(*frame_span(start_s, end_s, fps, n_frames),
                          start_s, end_s))
    return clips


def clip_timeline(labels: Sequence[str], part: List[Clip]) -> PhaseTimeline:
    """Run-length merge of per-clip labels, each run spanning its clips'
    seconds, so the timeline ends where the video does."""
    return PhaseTimeline([Segment(part[a].start_s, part[b - 1].end_s, label)
                          for label, a, b in runs(labels)])


def extract_features(frames: np.ndarray, model: Stage1Model,
                     part: List[Clip], video_id: str = "",
                     batch_size: int = 16) -> FeatureSequence:
    """Per clip: encode video, decode the alignment prompt non-causally with
    cross-attention into the clip, and average the decoder's hidden tokens
    into one row of width `model.cfg.dim`."""
    prompt = model.prompt_ids(MGA_PROMPT)
    rows = []
    with no_grad():
        for start in range(0, len(part), batch_size):
            chunk = part[start:start + batch_size]
            clips = [frames[c.start_frame:c.end_frame] for c in chunk]
            video = model.encode_video_batch(clips)
            ids = np.tile(np.asarray(prompt, np.int64), (len(clips), 1))
            pad = np.zeros_like(ids, bool)
            hidden, _ = model.decode_multimodal(ids, pad, video, causal=False)
            rows.append(hidden.data.mean(axis=1))
    return FeatureSequence(np.concatenate(rows, axis=0), video_id)


def segment(frames: np.ndarray, model: Stage1Model, temporal_model,
            class_names: Sequence[str], fps: float) -> tuple:
    """Two-stage segmentation; returns (PhaseTimeline, final-stage logits)."""
    part = partition(len(frames) / fps, fps=fps)
    with no_grad():
        final = temporal_model(extract_features(frames, model, part))[-1]
    return clip_timeline([class_names[k] for k in final.labels], part), final


def zero_shot(frames: np.ndarray, model: Stage1Model,
              prototypes: Dict[str, str], fps: float,
              batch_size: int = 16) -> PhaseTimeline:
    """Per-clip class prediction by fine-grained similarity to encoded
    prototype sentences; clip-wise argmax concatenated into a timeline."""
    if len(prototypes) < 2:
        raise ConfigError("zero-shot needs at least two classes")
    class_names = sorted(prototypes)
    prompt = model.prompt_ids(MGA_PROMPT)
    with no_grad():
        text = model.encode_text_batch(
            [prompt + model.vocab.encode(prototypes[c]) for c in class_names])
        e_t, w_t = model.head.pool_text(text)
        part = partition(len(frames) / fps, fps=fps)
        labels = []
        for start in range(0, len(part), batch_size):
            chunk = part[start:start + batch_size]
            clips = [frames[c.start_frame:c.end_frame] for c in chunk]
            video = model.encode_video_batch(clips)
            e_v, w_v = model.head.pool_video(video)
            scores = similarity_matrix(e_t, w_t, text.pad_mask, e_v, w_v)
            labels.extend(class_names[k] for k in scores.data.argmax(axis=0))
    return clip_timeline(labels, part)


def dense_caption(frames: np.ndarray, model: Stage1Model, temporal_model,
                  class_names: Sequence[str], fps: float,
                  max_len: int = 16) -> List[Caption]:
    """Caption each predicted non-idle segment in consecutive chunks of at
    most CAPTION_SECONDS, re-encoding all frames of each chunk."""
    timeline, _ = segment(frames, model, temporal_model, class_names, fps)
    prompt = model.prompt_ids(CAPTION_PROMPT)
    captions = []
    with no_grad():
        for seg in timeline.segments:
            if seg.label == IDLE:
                continue
            start = seg.start_s
            while start < seg.end_s - 1e-9:
                end = min(start + CAPTION_SECONDS, seg.end_s)
                lo, hi = frame_span(start, end, fps, len(frames))
                video = model.encode_video(frames[lo:hi])
                ids = model.generate_caption(video, prompt, max_len=max_len)
                captions.append(Caption(start, end, model.vocab.decode(ids)))
                start = end
    return sorted(captions, key=lambda c: c.start_s)


def pca_export(embeddings: np.ndarray, k: int = 2) -> tuple:
    """Top-k principal components by eigendecomposition of the covariance,
    each signed so that its largest-magnitude loading is positive.  Returns
    (components [k, D], coordinates [N, k], explained-variance ratios [k]).
    """
    x = np.asarray(embeddings, np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InputError("need at least two embedding rows")
    if not 1 <= k <= x.shape[1]:
        raise InputError(f"k={k} components outside 1..{x.shape[1]}")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    evals, evecs = np.linalg.eigh(cov)  # ascending
    comp = evecs[:, ::-1][:, :k].T
    comp = comp * np.sign(comp[np.arange(k), np.abs(comp).argmax(1)])[:, None]
    total_var = float(np.trace(cov))
    ratios = evals[::-1][:k] / total_var if total_var > 0 else np.zeros(k)
    return comp, centered @ comp.T, ratios


# -- JSON artifacts -----------------------------------------------------------


def captions_to_dict(video_id: str, captions: Sequence[Caption]) -> dict:
    return {"video_id": video_id,
            "captions": [{"start_s": c.start_s, "end_s": c.end_s,
                          "text": c.text} for c in captions]}


def read_timeline(path) -> tuple:
    """(video id, PhaseTimeline) of a timeline JSON file, the id defaulting
    to the file's stem.  A file that is not an object with a `segments` list
    of {start_s, end_s, label} objects making a valid timeline raises an
    InputError naming it."""
    payload = require_types(path, read_json(path), {"segments": "list"})
    for i, seg in enumerate(payload["segments"]):
        require_types(f"{path}: segment {i}", seg,
                      {"start_s": "float", "end_s": "float", "label": "str"})
    try:
        timeline = PhaseTimeline.from_dict(payload)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    return payload.get("video_id", Path(path).stem), timeline


def _require_strings(path, key: str, values) -> None:
    """An InputError naming `path` and `key` unless every item of `values`
    (a list, or an object's values) is a string."""
    items = values.values() if isinstance(values, dict) else values
    if not all(type(v) is str for v in items):
        raise InputError(f"{path}: {key} must be strings, not {values!r}")


def read_meta(corpus) -> dict:
    """A corpus's meta.json when `fps` is a finite positive number,
    `video_ids` and `class_names` are lists of strings and `prototypes`,
    when present, is an object of strings; otherwise an InputError naming
    the file and the key.  Every command reads a corpus's metadata here."""
    path = Path(corpus) / "meta.json"
    meta = require_types(path, read_json(path), {
        "fps": "float", "video_ids": "list", "class_names": "list"})
    if "prototypes" in meta:
        require_types(path, meta, {"prototypes": "dict"})
    if not (math.isfinite(meta["fps"]) and meta["fps"] > 0):
        raise InputError(f"{path}: fps must be a finite positive number, "
                         f"not {meta['fps']!r}")
    for key in ("video_ids", "class_names", "prototypes"):
        _require_strings(path, key, meta.get(key, []))
    return meta


# -- model bundles ------------------------------------------------------------


def _config(cls, values: dict, path: Path):
    """`cls(**values)` when `values` has exactly the fields of the dataclass
    `cls`, each of its field's type (int or float); otherwise an InputError
    naming `path` and the offending keys."""
    kinds = {f.name: f.type for f in fields(cls)}
    return cls(**require_types(path, values, kinds, exact=True))


def _save_curve(out: Path, rows: List[dict]) -> None:
    write_csv(out / "curve.csv", list(rows[0]), [list(r.values()) for r in rows])


def _load_weights(path: Path, params: dict) -> None:
    load_parameters(params, read_checkpoint(path), path)


def save_stage1_bundle(out, model: Stage1Model, rows: List[dict]) -> None:
    """Write the stage-1 bundle into directory `out`: the weights
    (stage1.wlcp), model.json, vocab.txt, and curve.csv from the rows
    objectives.pretrain returned.  Adapters are saved by save_lora_bundle."""
    if lora_mod.iter_adapters(model):
        raise StateError("adapters attached: save them with save_lora_bundle")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    write_checkpoint(out / "stage1.wlcp", model.state_dict())
    write_json(out / "model.json", asdict(model.cfg))
    model.vocab.save(out / "vocab.txt")
    _save_curve(out, rows)


def save_lora_bundle(out, model: Stage1Model, stage1,
                     rows: List[dict]) -> None:
    """Write the LoRA bundle into directory `out` for the adapters attached
    to `model`, which was loaded from the stage-1 bundle `stage1`: the
    adapter factors alone (lora.wlcp), lora.json, and curve.csv."""
    adapters = lora_mod.iter_adapters(model)
    if not adapters:
        raise StateError("no adapters attached")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    write_checkpoint(out / "lora.wlcp", {
        name: p.data for name, p in lora_mod.adapter_parameters(model).items()})
    write_json(out / "lora.json", {"rank": adapters[0].rank,
                                   "alpha": adapters[0].alpha,
                                   "stage1": str(stage1)})
    _save_curve(out, rows)


def load_stage1_bundle(stage1, lora=None) -> Stage1Model:
    """Rebuild the model of a stage-1 bundle, with the adapters of the LoRA
    bundle `lora` attached when one is given."""
    stage1 = Path(stage1)
    vocab = Vocabulary.load(stage1 / "vocab.txt")
    cfg = _config(ModelConfig, read_json(stage1 / "model.json"),
                  stage1 / "model.json")
    model = Stage1Model(cfg, vocab, SessionRng(0))
    _load_weights(stage1 / "stage1.wlcp", model.parameters())
    if lora is not None:
        lora = Path(lora)
        path = lora / "lora.json"
        spec = require_types(path, read_json(path), {
            "rank": "int", "alpha": "float", "stage1": "str"}, exact=True)
        if spec["rank"] < 1:
            raise InputError(f"{path}: rank must be at least 1, "
                             f"not {spec['rank']}")
        lora_mod.attach(model, r=spec["rank"], alpha=spec["alpha"])
        _load_weights(lora / "lora.wlcp", lora_mod.adapter_parameters(model))
    return model


def save_temporal_bundle(out, model, classes: Sequence[str],
                         curve: List[float]) -> None:
    """Write the temporal bundle into directory `out`: the weights
    (temporal.wlcp), temporal.json, and curve.csv, one loss per epoch.
    `classes` must hold one name per class of the model."""
    if len(classes) != model.cfg.num_classes:
        raise ConfigError(f"{len(classes)} class names for a "
                          f"{model.cfg.num_classes}-class model")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    write_checkpoint(out / "temporal.wlcp", model.state_dict())
    write_json(out / "temporal.json", {"variant": model.variant,
                                       "classes": list(classes),
                                       "config": asdict(model.cfg)})
    _save_curve(out, [{"epoch": i, "loss": loss} for i, loss in enumerate(curve)])


def load_temporal_bundle(temporal) -> tuple:
    """Rebuild (model, class names) from a temporal bundle directory, whose
    temporal.json names one class per num_classes."""
    temporal = Path(temporal)
    path = temporal / "temporal.json"
    spec = require_types(path, read_json(path), {
        "variant": "str", "classes": "list", "config": "dict"}, exact=True)
    _require_strings(path, "classes", spec["classes"])
    cfg = _config(TemporalConfig, spec["config"], path)
    if len(spec["classes"]) != cfg.num_classes:
        raise InputError(f"{path}: {len(spec['classes'])} classes for "
                         f"num_classes {cfg.num_classes}")
    model = build_temporal_model(spec["variant"], cfg, SessionRng(0))
    _load_weights(temporal / "temporal.wlcp", model.parameters())
    return model, spec["classes"]


# -- stage-2 datasets and the subset ablation ---------------------------------


def labels_for(timeline: PhaseTimeline, classes: Sequence[str],
               length: int, source="timeline") -> np.ndarray:
    """Class index of each of `length` one-second clips (timeline.sample);
    a label outside `classes` raises an InputError naming `source`."""
    labels = sample(timeline, length, 1.0 / CLIP_SECONDS)
    try:
        return np.array([classes.index(label) for label in labels])
    except ValueError:
        unknown = next(label for label in labels if label not in classes)
        raise InputError(f"{source}: label {unknown!r} is not one of the "
                         f"classes {list(classes)}") from None


def dataset_from_dirs(features_dir, corpus, classes: Sequence[str],
                      video_ids) -> list:
    """(FeatureSequence, labels) pairs from feature files and a corpus's
    ground-truth timelines.  A feature table whose row count differs from
    its timeline's seconds by more than one raises an InputError naming
    both files."""
    dataset = []
    for vid in video_ids:
        table = Path(features_dir) / f"{vid}.wlft"
        feats = read_features(table)
        path = Path(corpus) / "timelines" / f"{vid}.json"
        timeline = read_timeline(path)[1]
        seconds = to_frames(timeline.duration, 1.0 / CLIP_SECONDS)
        if abs(feats.shape[0] - seconds) > 1:
            raise InputError(f"{table} has {feats.shape[0]} rows but {path} "
                             f"covers {seconds} seconds")
        labels = labels_for(timeline, classes, feats.shape[0], path)
        dataset.append((FeatureSequence(feats, vid), labels))
    return dataset


def evaluate_split(model, features_dir, corpus, classes: Sequence[str],
                   video_ids) -> MetricReport:
    """Score a temporal model's final stage on the given corpus videos,
    read by dataset_from_dirs."""
    pairs = {}
    with no_grad():
        for seq, labels in dataset_from_dirs(features_dir, corpus, classes,
                                             video_ids):
            final = model(seq)[-1]
            pairs[seq.video_id] = ([classes[k] for k in final.labels],
                                   [classes[k] for k in labels])
    return evaluate_sequences(pairs)


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
    if not train_ids or not test_ids:
        raise ConfigError("the training and held-out splits must both be non-empty")
    shared = sorted(set(train_ids) & set(test_ids))
    if shared:
        raise ConfigError(f"videos in both the training and held-out splits: {shared}")
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
