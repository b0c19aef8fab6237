"""Command-line harness: every pipeline stage as a subcommand composing
file artifacts, with seeded reproducible runs and run manifests."""

from __future__ import annotations

import os

# Honor the thread cap before numpy initializes its thread pools.
_threads = os.environ.get("WL_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import csv
import functools
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from . import lora as lora_mod
from . import pipeline as pl
from .corpus import (TextBox, TranscriptWord, crop_search, detect_static,
                     median_filter_validity, project_labels, split_clips)
from .errors import ConfigError, SurgflowError
from .metrics import evaluate_timelines
from .models import CAPTION_PROMPT, MGA_PROMPT, ModelConfig, Stage1Model
from .objectives import ClipStore, PretrainConfig, load_manifest, pretrain
from .rng import SessionRng
from .serialization import read_features, read_frame_grid, write_features
from .vocab import Vocabulary


# -- plumbing -----------------------------------------------------------------


IN = click.Path(exists=True, path_type=Path)
OUT = click.Path(path_type=Path)


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _write_run_manifest(target: Path, command: str, config: dict,
                        seed: int, t0: float) -> None:
    """One JSON per run: config hash, seed, git describe, wall time."""
    path = (target / "run_manifest.json" if target.is_dir()
            else target.with_name(target.name + ".run.json"))
    blob = json.dumps(config, sort_keys=True, default=str).encode("utf-8")
    payload = {
        "command": command,
        "version": __version__,
        "config": dict(sorted(config.items())),
        "config_hash": hashlib.sha256(blob).hexdigest(),
        "seed": seed,
        "git_describe": _git_describe(),
        "wall_time_s": round(time.time() - t0, 3),
    }
    path.write_text(json.dumps(payload, indent=2, default=str) + "\n")


def command(name: str):
    """Register a subcommand with the run bookkeeping every command shares.

    Failures map to exit codes: bad config 2, runtime failure 1.  Path
    options that need not exist (type OUT) are outputs: a command with
    outputs gains --force and refuses an existing output without it, and
    after an --out command succeeds its run manifest records the invoked
    parameters, the seed and the wall time (run_manifest.json inside a
    directory output, <file>.run.json beside a file output).
    """

    def decorate(fn):
        @functools.wraps(fn)
        def run(force: bool = False, **params):
            t0 = time.time()
            try:
                existing = [params[k] for k in outputs
                            if params[k] is not None and params[k].exists()]
                if existing and not force:
                    raise ConfigError(f"refusing to overwrite {existing[0]} "
                                      "(use --force)")
                fn(**params)
                if "out" in params:
                    _write_run_manifest(params["out"], name, params,
                                        params.get("seed", 0), t0)
            except (ConfigError, FileNotFoundError) as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(2)
            except (SurgflowError, OSError, ValueError, KeyError) as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(1)

        cmd = main.command(name)(run)
        outputs = [p.name for p in cmd.params if p.type is OUT]
        if outputs:
            cmd.params.append(click.Option(
                ["--force"], is_flag=True, help="Overwrite existing outputs."))
        return cmd

    return decorate


def _split_videos(meta: dict, train: str | None, test: str | None) -> tuple:
    ids = list(meta["video_ids"])
    if train or test:
        train_ids = train.split(",") if train else []
        test_ids = test.split(",") if test else []
        unknown = (set(train_ids) | set(test_ids)) - set(ids)
        if unknown:
            raise ConfigError(f"unknown video ids: {sorted(unknown)}")
        if not train_ids:
            train_ids = [v for v in ids if v not in set(test_ids)]
        if not test_ids:
            test_ids = [v for v in ids if v not in set(train_ids)]
        return train_ids, test_ids
    cut = max(1, int(round(0.75 * len(ids))))
    return ids[:cut], ids[cut:]


def _load_config_file(ctx, param, value):
    if value is None:
        return None
    if value.suffix == ".toml":
        import tomllib
        data = tomllib.loads(value.read_text())
    else:
        data = json.loads(value.read_text())
    ctx.default_map = data
    return value


@click.group()
@click.option("--config", callback=_load_config_file, expose_value=False,
              is_eager=True, type=IN,
              help="JSON/TOML file of {subcommand: {option: value}} defaults.")
@click.version_option(__version__)
def main():
    """Surgical workflow understanding pipeline."""


# -- corpus -------------------------------------------------------------------


@command("gen-synth")
@click.option("--out", required=True, type=OUT)
@click.option("--videos", default=40, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--shifted", is_flag=True,
              help="Color-remapped target-domain variant.")
def gen_synth(out, videos, seed, shifted):
    """Generate a seeded synthetic corpus of phase-patterned videos."""
    from . import synthetic as syn
    spec = syn.SyntheticSpec(seed=seed)
    if shifted:
        spec = syn.shift_colors(spec)
    syn.generate_corpus(spec, videos, out)
    click.echo(f"wrote {videos} videos to {out}")


@command("filter")
@click.option("--video", required=True, type=IN)
@click.option("--out", required=True, type=OUT)
@click.option("--fps", default=8.0, show_default=True)
@click.option("--boxes", type=IN,
              help="JSON list of [x0, y0, x1, y1] text boxes.")
@click.option("--min-size", default=224, show_default=True)
@click.option("--seed", default=0, show_default=True)
def filter_cmd(video, out, fps, boxes, min_size, seed):
    """Mark static frames invalid (median-filtered) and find a text-free crop."""
    frames = read_frame_grid(video)
    valid = np.ones(len(frames), bool)
    for i in range(1, len(frames)):
        valid[i] = detect_static(frames[i], frames[i - 1])
    if len(frames) > 1:
        valid[0] = valid[1]
    valid = median_filter_validity(valid, fps)
    crop = None
    if boxes is not None:
        box_list = [TextBox(*b) for b in json.loads(boxes.read_text())]
        found = crop_search(frames.shape[2], frames.shape[1], box_list,
                            min_size=min_size, seed=seed)
        crop = [found.x0, found.y0, found.x1, found.y1] if found else None
    payload = {"video": str(video), "valid": valid.tolist(),
               "fraction_valid": float(valid.mean()), "crop": crop}
    out.write_text(json.dumps(payload, indent=2))


@command("split-clips")
@click.option("--words", required=True, type=IN,
              help="JSON list of {text, start_s, end_s} transcript words.")
@click.option("--out", required=True, type=OUT)
@click.option("--min-seconds", default=2.0, show_default=True)
def split_clips_cmd(words, out, min_seconds):
    """Split a word-level transcript into sentence-aligned clips."""
    entries = [TranscriptWord(w["text"], w["start_s"], w["end_s"])
               for w in json.loads(words.read_text())]
    clips = split_clips(entries, min_s=min_seconds)
    out.write_text(json.dumps(
        [{"start_s": c.start_s, "end_s": c.end_s, "text": c.text}
         for c in clips], indent=2))


@command("project-labels")
@click.option("--records", required=True, type=IN,
              help="JSONL of label records.")
@click.option("--template", "template_id", required=True)
@click.option("--out", required=True, type=OUT)
def project_labels_cmd(records, template_id, out):
    """Fill a language template from structured label records."""
    with open(out, "w", encoding="utf-8") as fh:
        for record in load_manifest(records):
            record["text"] = project_labels(record, template_id)
            fh.write(json.dumps(record) + "\n")


# -- stage 1 ------------------------------------------------------------------


@command("pretrain")
@click.option("--corpus", required=True, type=IN)
@click.option("--out", required=True, type=OUT)
@click.option("--epochs", default=5, show_default=True)
@click.option("--batch-size", default=8, show_default=True)
@click.option("--lr-max", default=1e-4, show_default=True)
@click.option("--lr-min", default=1e-9, show_default=True)
@click.option("--max-steps", default=None, type=int)
@click.option("--seed", default=0, show_default=True)
def pretrain_cmd(corpus, out, epochs, batch_size, lr_max, lr_min, max_steps,
                 seed):
    """Train the short-range video-language model on a clip manifest."""
    out.mkdir(parents=True, exist_ok=True)
    meta = pl.read_json(corpus / "meta.json")
    manifest = load_manifest(corpus / "manifest.jsonl")
    vocab = Vocabulary.build([r["text"] for r in manifest]
                             + list(meta.get("prototypes", {}).values())
                             + [MGA_PROMPT, CAPTION_PROMPT])
    model = Stage1Model(ModelConfig(), vocab, SessionRng(seed))
    cfg = PretrainConfig(epochs=epochs, batch_size=batch_size, lr_max=lr_max,
                         lr_min=lr_min, seed=seed, max_steps=max_steps)
    store = ClipStore(corpus / "videos", meta["fps"])
    rows = pretrain(model, corpus / "manifest.jsonl", store, cfg,
                    out / "stage1.wlcp", out / "curve.csv")
    pl.save_stage1_bundle(out, model)
    click.echo(f"{len(rows)} steps, final loss {rows[-1]['L_total']:.4f}")


@command("finetune-lora")
@click.option("--corpus", required=True, type=IN,
              help="Target-domain corpus.")
@click.option("--stage1", required=True, type=IN)
@click.option("--out", required=True, type=OUT)
@click.option("--rank", default=8, show_default=True)
@click.option("--alpha", default=None, type=float)
@click.option("--epochs", default=3, show_default=True)
@click.option("--batch-size", default=8, show_default=True)
@click.option("--lr-max", default=1e-2, show_default=True)
@click.option("--lr-min", default=1e-4, show_default=True)
@click.option("--max-steps", default=None, type=int)
@click.option("--seed", default=0, show_default=True)
def finetune_lora_cmd(corpus, stage1, out, rank, alpha, epochs, batch_size,
                      lr_max, lr_min, max_steps, seed):
    """Adapt a frozen stage-1 model to a new domain with low-rank adapters."""
    out.mkdir(parents=True, exist_ok=True)
    meta = pl.read_json(corpus / "meta.json")
    model = pl.load_stage1_bundle(stage1)
    lora_mod.attach(model, r=rank, alpha=alpha, seed=seed)
    lora_mod.freeze_base(model)
    cfg = PretrainConfig(epochs=epochs, batch_size=batch_size, lr_max=lr_max,
                         lr_min=lr_min, seed=seed, max_steps=max_steps)
    store = ClipStore(corpus / "videos", meta["fps"])
    rows = pretrain(model, corpus / "manifest.jsonl", store, cfg,
                    out / "lora.wlcp", out / "curve.csv", lora_only=True)
    pl.save_lora_bundle(out, model, stage1)
    click.echo(f"{len(rows)} steps, final loss {rows[-1]['L_total']:.4f}")


@command("extract-features")
@click.option("--corpus", required=True, type=IN)
@click.option("--stage1", required=True, type=IN)
@click.option("--out", required=True, type=OUT)
@click.option("--lora", default=None, type=IN)
@click.option("--clip-seconds", default=1.0, show_default=True)
def extract_features_cmd(corpus, stage1, out, lora, clip_seconds):
    """Write one feature file per corpus video."""
    out.mkdir(parents=True, exist_ok=True)
    meta = pl.read_json(corpus / "meta.json")
    model = pl.load_stage1_bundle(stage1, lora)
    for vid in meta["video_ids"]:
        frames = read_frame_grid(corpus / "videos" / f"{vid}.wlfg")
        part = pl.partition(len(frames) / meta["fps"], clip_seconds,
                            meta["fps"])
        seq = pl.extract_features(frames, model, part, vid)
        write_features(out / f"{vid}.wlft", seq.features)


# -- stage 2 ------------------------------------------------------------------


@command("train-temporal")
@click.option("--features", "features_dir", required=True, type=IN)
@click.option("--corpus", required=True, type=IN)
@click.option("--variant", type=click.Choice(["tcn", "asformer"]),
              default="tcn", show_default=True)
@click.option("--out", required=True, type=OUT)
@click.option("--epochs", default=150, show_default=True)
@click.option("--videos", default=None,
              help="Comma-separated training video ids (default: all).")
@click.option("--seed", default=0, show_default=True)
def train_temporal_cmd(features_dir, corpus, variant, out, epochs, videos,
                       seed):
    """Train a long-range temporal segmentation model on features."""
    out.mkdir(parents=True, exist_ok=True)
    meta = pl.read_json(corpus / "meta.json")
    classes = meta["class_names"]
    video_ids = videos.split(",") if videos else meta["video_ids"]
    dataset = pl.dataset_from_dirs(features_dir, corpus, classes, video_ids)
    model, curve = pl.fit_temporal(dataset, len(classes), variant, epochs, seed)
    pl.save_temporal_bundle(out, model, classes)
    with open(out / "curve.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss"])
        writer.writerows(enumerate(curve))
    click.echo(f"final epoch loss {curve[-1]:.4f}")


# -- inference ----------------------------------------------------------------


@command("segment")
@click.option("--video", required=True, type=IN)
@click.option("--stage1", required=True, type=IN)
@click.option("--temporal", required=True, type=IN)
@click.option("--lora", default=None, type=IN)
@click.option("--fps", default=8.0, show_default=True)
@click.option("--out", required=True, type=OUT)
def segment_cmd(video, stage1, temporal, lora, fps, out):
    """Two-stage phase segmentation of one video into a timeline JSON."""
    frames = read_frame_grid(video)
    model = pl.load_stage1_bundle(stage1, lora)
    temporal_model, classes = pl.load_temporal_bundle(temporal)
    timeline, _ = pl.segment(frames, model, temporal_model, classes, fps)
    pl.write_json(out, timeline.to_dict(video.stem))


@command("zeroshot")
@click.option("--video", required=True, type=IN)
@click.option("--stage1", required=True, type=IN)
@click.option("--prototypes", required=True, type=IN,
              help="JSON dict of class -> prototype sentence.")
@click.option("--lora", default=None, type=IN)
@click.option("--fps", default=8.0, show_default=True)
@click.option("--out", required=True, type=OUT)
def zeroshot_cmd(video, stage1, prototypes, lora, fps, out):
    """Per-clip phase prediction by similarity to prototype sentences."""
    frames = read_frame_grid(video)
    model = pl.load_stage1_bundle(stage1, lora)
    protos = json.loads(prototypes.read_text())
    timeline = pl.zero_shot(frames, model, protos, fps)
    pl.write_json(out, timeline.to_dict(video.stem))


@command("caption")
@click.option("--video", required=True, type=IN)
@click.option("--stage1", required=True, type=IN)
@click.option("--temporal", required=True, type=IN)
@click.option("--lora", default=None, type=IN)
@click.option("--fps", default=8.0, show_default=True)
@click.option("--out", required=True, type=OUT)
def caption_cmd(video, stage1, temporal, lora, fps, out):
    """Dense captioning of predicted non-idle segments."""
    frames = read_frame_grid(video)
    model = pl.load_stage1_bundle(stage1, lora)
    temporal_model, classes = pl.load_temporal_bundle(temporal)
    captions = pl.dense_caption(frames, model, temporal_model, classes, fps)
    pl.write_json(out, pl.captions_to_dict(video.stem, captions))


# -- evaluation ---------------------------------------------------------------


def _load_timelines(path: Path) -> dict:
    out = {}
    for item in sorted(path.glob("*.json")) if path.is_dir() else [path]:
        payload = pl.read_json(item)
        out[payload.get("video_id", item.stem)] = \
            pl.PhaseTimeline.from_dict(payload)
    return out


@command("evaluate")
@click.option("--pred", required=True, type=IN,
              help="Timeline JSON or directory of them.")
@click.option("--gt", required=True, type=IN)
@click.option("--fps", default=1.0, show_default=True)
@click.option("--out-csv", default=None, type=OUT)
@click.option("--out-svg", default=None, type=OUT)
def evaluate_cmd(pred, gt, fps, out_csv, out_svg):
    """Score predicted timelines against ground truth."""
    pred_tl = _load_timelines(pred)
    gt_tl = {vid: tl.fill_gaps("idle") for vid, tl in
             _load_timelines(gt).items()}
    report = evaluate_timelines(pred_tl, gt_tl, fps=fps)
    if out_csv:
        report.write_csv(out_csv)
    if out_svg:
        report.write_svg(out_svg)
    click.echo(report.to_json())


@command("ablate-subset")
@click.option("--features", "features_dir", required=True, type=IN)
@click.option("--corpus", required=True, type=IN)
@click.option("--variant", type=click.Choice(["tcn", "asformer"]),
              default="tcn", show_default=True)
@click.option("--fractions", default="0.1,0.5,1.0", show_default=True)
@click.option("--train", default=None,
              help="Comma-separated training video ids.")
@click.option("--test", default=None,
              help="Comma-separated held-out video ids.")
@click.option("--epochs", default=150, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", required=True, type=OUT)
def ablate_subset_cmd(features_dir, corpus, variant, fractions, train, test,
                      epochs, seed, out):
    """Retrain stage 2 on growing training subsets; one metric row each."""
    meta = pl.read_json(corpus / "meta.json")
    train_ids, test_ids = _split_videos(meta, train, test)
    rows = pl.ablate_subset(features_dir, corpus, meta["class_names"],
                            train_ids, test_ids,
                            [float(f) for f in fractions.split(",") if f],
                            variant, epochs, seed)
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    for row in rows:
        click.echo(f"fraction {row['fraction']}: "
                   f"accuracy {row['accuracy']:.2f}")


@command("pca-plot")
@click.option("--features", "features_dir", required=True, type=IN)
@click.option("--out", required=True, type=OUT)
@click.option("--coords-csv", default=None, type=OUT)
@click.option("--seed", default=0, show_default=True)
def pca_plot_cmd(features_dir, out, coords_csv, seed):
    """Project all feature rows to 2-D principal components as an SVG."""
    files = sorted(features_dir.glob("*.wlft"))
    if not files:
        raise ConfigError(f"no feature files in {features_dir}")
    blocks = [(f.stem, read_features(f)) for f in files]
    rows = np.concatenate([b for _, b in blocks], axis=0)
    _, coords, ratios = pl.pca_export(rows, k=2, seed=seed)
    keys = [vid for vid, b in blocks for _ in range(b.shape[0])]
    _write_scatter_svg(out, coords, keys, ratios)
    if coords_csv:
        with open(coords_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["video", "pc1", "pc2"])
            writer.writerows([vid, f"{x:.6f}", f"{y:.6f}"]
                             for vid, (x, y) in zip(keys, coords))
    click.echo(f"explained variance ratios: {ratios.tolist()}")


_PALETTE = ["#4878a8", "#a84848", "#48a878", "#a8a048", "#7848a8", "#48a0a8"]


def _write_scatter_svg(path: Path, coords: np.ndarray, keys: list,
                       ratios: np.ndarray, size: int = 420) -> None:
    lo = coords.min(axis=0)
    span = np.maximum(coords.max(axis=0) - lo, 1e-9)
    key_ids = {k: i for i, k in enumerate(dict.fromkeys(keys))}
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}">']
    margin = 20
    scale = size - 2 * margin
    for (x, y), key in zip(coords, keys):
        px = margin + scale * (x - lo[0]) / span[0]
        py = size - margin - scale * (y - lo[1]) / span[1]
        color = _PALETTE[key_ids[key] % len(_PALETTE)]
        parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="3" '
                     f'fill="{color}" fill-opacity="0.7"/>')
    parts.append(f'<text x="{margin}" y="{size - 4}" font-size="11">'
                 f'explained: {ratios[0]:.2f}, {ratios[1]:.2f}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts))


# -- diagnostics --------------------------------------------------------------


@command("gradcheck")
@click.option("--mode", type=click.Choice(["f32", "f64", "both"]),
              default="both", show_default=True)
@click.option("--seed", default=95, show_default=True)
def gradcheck_cmd(mode, seed):
    """Verify every loss against central finite differences."""
    from .diagnostics import gradient_suite
    plan = {"f32": (np.float32, 1e-3), "f64": (np.float64, 1e-5)}
    modes = ["f32", "f64"] if mode == "both" else [mode]
    failed = False
    for name in modes:
        dtype, threshold = plan[name]
        for loss, err in gradient_suite(dtype, seed).items():
            ok = err < threshold
            failed = failed or not ok
            click.echo(f"{name} {loss:14s} {err:.3e} "
                       f"{'ok' if ok else 'FAIL'}")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
