"""Command-line harness: every pipeline stage as a subcommand composing
file artifacts, with seeded reproducible runs and run manifests."""

from __future__ import annotations

import os

# Honor the thread cap before numpy initializes its thread pools.
_threads = os.environ.get("WL_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[_var] = _threads

import functools
import hashlib
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import click

from . import __version__
from . import lora as lora_mod
from . import pipeline as pl
from .corpus import (TextBox, TranscriptWord, crop_search, frame_validity,
                     project_labels, split_clips)
from .errors import ConfigError, InputError, SurgflowError
from .metrics import evaluate_timelines
from .models import ModelConfig, Stage1Model
from .objectives import PretrainConfig, load_manifest
from .rng import SessionRng
from .serialization import read_json, read_video, write_csv, write_json, write_text


# -- plumbing -----------------------------------------------------------------


IN = click.Path(exists=True, path_type=Path)
OUT = click.Path(path_type=Path)


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


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
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }
    write_text(path, json.dumps(payload, indent=2, default=str) + "\n")


def command(name: str):
    """Register a subcommand with the run bookkeeping every command shares.

    Failures map to exit codes: bad config 2, runtime failure 1.  Path
    options that need not exist (type OUT) are outputs: a command with
    outputs gains --force and refuses an existing output without it, and
    after an --out command succeeds its run manifest records the invoked
    parameters, the seed and the wall time (run_manifest.json inside a
    directory output, <file>.run.json beside a file output).  A failed
    command removes the outputs it created, never one that existed before.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def run(force: bool = False, **params):
            t0 = time.perf_counter()
            paths = [params[k] for k in outputs if params[k] is not None]
            created = [p for p in paths if not p.exists()]
            try:
                existing = [p for p in paths if p not in created]
                if existing and not force:
                    raise ConfigError(f"refusing to overwrite {existing[0]} "
                                      "(use --force)")
                fn(**params)
                if "out" in params:
                    _write_run_manifest(params["out"], name, params,
                                        params.get("seed", 0), t0)
                created = []  # success keeps every output
            except (ConfigError, FileNotFoundError) as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(2)
            except (SurgflowError, OSError, ValueError, KeyError) as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(1)
            finally:
                for path in filter(Path.exists, created):
                    (shutil.rmtree if path.is_dir() else Path.unlink)(path)

        cmd = main.command(name)(run)
        outputs = [p.name for p in cmd.params if p.type is OUT]
        if outputs:
            cmd.params.append(click.Option(
                ["--force"], is_flag=True, help="Overwrite existing outputs."))
        return cmd

    return decorate


def _positive(ctx, param, value: float) -> float:
    if not (math.isfinite(value) and value > 0):
        raise click.BadParameter(f"{value:g} is not a finite positive number")
    return value


def _non_negative(ctx, param, value: float) -> float:
    if not (math.isfinite(value) and value >= 0):
        raise click.BadParameter(f"{value:g} is not a finite non-negative "
                                 "number")
    return value


def _fractions(text: str) -> list:
    return [float(f) for f in text.split(",") if f]


def _numbers(ctx, param, value: str) -> str:
    try:
        _fractions(value)
    except ValueError:
        raise click.BadParameter(f"{value!r} holds a non-number") from None
    return value


def _json_entries(path: Path, what: str, ok, kind: type = list):
    """The JSON list (or, with `kind` dict, object) in `path` when `ok`
    accepts each entry (each value); otherwise an InputError naming the
    file and `what` it must hold (exit 1)."""
    value = read_json(path)
    entries = value.values() if isinstance(value, dict) else value
    if not (isinstance(value, kind) and all(map(ok, entries))):
        raise InputError(f"{path}: expected {what}")
    return value


def _split_videos(meta: dict, train: str | None, test: str | None) -> tuple:
    ids = list(meta["video_ids"])
    if not (train or test):
        cut = min(len(ids) - 1, max(1, int(round(0.75 * len(ids)))))
        return ids[:cut], ids[cut:]
    train_ids = pl.parse_video_ids(train, ids) if train else []
    test_ids = pl.parse_video_ids(test, ids) if test else []
    return (train_ids or [v for v in ids if v not in test_ids],
            test_ids or [v for v in ids if v not in train_ids])


def _load_config_file(ctx, param, value):
    if value is None:
        return None
    try:
        if value.suffix == ".toml":
            import tomllib
            data = tomllib.loads(value.read_text())
        else:
            data = read_json(value)
    except ValueError as exc:  # malformed TOML or JSON
        raise click.BadParameter(str(exc)) from None
    for sub, options in data.items():
        cmd = ctx.command.commands.get(sub)
        if cmd is None or not isinstance(options, dict):
            raise click.BadParameter(f"{sub!r} in {value} is not a subcommand table")
        unknown = sorted(set(options) - {p.name for p in cmd.params})
        if unknown:
            raise click.BadParameter(f"unknown option {sub}.{unknown[0]} in {value}")
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
@click.option("--boxes", type=IN,
              help="JSON list of [x0, y0, x1, y1] text boxes.")
@click.option("--min-size", default=224, show_default=True)
@click.option("--seed", default=0, show_default=True)
def filter_cmd(video, out, boxes, min_size, seed):
    """Mark static frames invalid (median-filtered) and find a text-free crop."""
    frames, fps = read_video(video)
    valid = frame_validity(frames, fps)
    crop = None
    if boxes is not None:
        box_list = [TextBox(*b) for b in _json_entries(
            boxes, "a list of [x0, y0, x1, y1] integer lists",
            lambda b: isinstance(b, list) and len(b) == 4
            and all(type(x) is int for x in b))]
        found = crop_search(frames.shape[2], frames.shape[1], box_list,
                            min_size=min_size, seed=seed)
        crop = [found.x0, found.y0, found.x1, found.y1] if found else None
    payload = {"video": str(video), "valid": valid.tolist(),
               "fraction_valid": float(valid.mean()), "crop": crop}
    write_json(out, payload)


@command("split-clips")
@click.option("--words", required=True, type=IN,
              help="JSON list of {text, start_s, end_s} transcript words.")
@click.option("--out", required=True, type=OUT)
@click.option("--min-seconds", default=2.0, show_default=True,
              callback=_non_negative)
def split_clips_cmd(words, out, min_seconds):
    """Split a word-level transcript into sentence-aligned clips."""
    entries = [TranscriptWord(w["text"], w["start_s"], w["end_s"])
               for w in _json_entries(
                   words, "a list of {text, start_s, end_s} objects",
                   lambda w: isinstance(w, dict)
                   and isinstance(w.get("text"), str)
                   and all(type(w.get(k)) in (int, float)
                           for k in ("start_s", "end_s")))]
    clips = split_clips(entries, min_s=min_seconds)
    write_json(out, [{"start_s": c.start_s, "end_s": c.end_s, "text": c.text}
                     for c in clips])


@command("project-labels")
@click.option("--records", required=True, type=IN,
              help="JSONL of label records.")
@click.option("--template", "template_id", required=True)
@click.option("--out", required=True, type=OUT)
def project_labels_cmd(records, template_id, out):
    """Fill a language template from structured label records."""
    write_text(out, "".join(
        json.dumps({**r, "text": project_labels(r, template_id)}) + "\n"
        for r in load_manifest(records)))


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
    model = Stage1Model(ModelConfig(), pl.corpus_vocabulary(corpus),
                        SessionRng(seed))
    cfg = PretrainConfig(epochs=epochs, batch_size=batch_size, lr_max=lr_max,
                         lr_min=lr_min, seed=seed, max_steps=max_steps)
    rows = pl.train_stage1(model, corpus, cfg)
    pl.save_stage1_bundle(out, model, rows)
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
    model = pl.load_stage1_bundle(stage1)
    lora_mod.attach(model, r=rank, alpha=alpha, seed=seed)
    lora_mod.freeze_base(model)
    cfg = PretrainConfig(epochs=epochs, batch_size=batch_size, lr_max=lr_max,
                         lr_min=lr_min, seed=seed, max_steps=max_steps)
    rows = pl.train_stage1(model, corpus, cfg)
    pl.save_lora_bundle(out, model, stage1, rows)
    click.echo(f"{len(rows)} steps, final loss {rows[-1]['L_total']:.4f}")


@command("extract-features")
@click.option("--corpus", required=True, type=IN)
@click.option("--stage1", required=True, type=IN)
@click.option("--out", required=True, type=OUT)
@click.option("--lora", default=None, type=IN)
def extract_features_cmd(corpus, stage1, out, lora):
    """Write one feature file per corpus video, one row per second."""
    pl.extract_corpus_features(corpus, pl.load_stage1_bundle(stage1, lora), out)


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
    meta = pl.read_meta(corpus)
    classes = meta["class_names"]
    video_ids = (pl.parse_video_ids(videos, meta["video_ids"]) if videos
                 else meta["video_ids"])
    dataset = pl.dataset_from_dirs(features_dir, corpus, classes, video_ids)
    model, curve = pl.fit_temporal(dataset, len(classes), variant, epochs, seed)
    pl.save_temporal_bundle(out, model, classes, curve)
    click.echo(f"final epoch loss {curve[-1]:.4f}")


# -- inference ----------------------------------------------------------------


@command("segment")
@click.option("--video", required=True, type=IN)
@click.option("--stage1", required=True, type=IN)
@click.option("--temporal", required=True, type=IN)
@click.option("--lora", default=None, type=IN)
@click.option("--out", required=True, type=OUT)
def segment_cmd(video, stage1, temporal, lora, out):
    """Two-stage phase segmentation of one video into a timeline JSON."""
    frames, fps = read_video(video)
    model = pl.load_stage1_bundle(stage1, lora)
    temporal_model, classes = pl.load_temporal_bundle(temporal)
    timeline, _ = pl.segment(frames, model, temporal_model, classes, fps)
    write_json(out, timeline.to_dict(video.stem))


@command("zeroshot")
@click.option("--video", required=True, type=IN)
@click.option("--stage1", required=True, type=IN)
@click.option("--prototypes", required=True, type=IN,
              help="JSON dict of class -> prototype sentence.")
@click.option("--lora", default=None, type=IN)
@click.option("--out", required=True, type=OUT)
def zeroshot_cmd(video, stage1, prototypes, lora, out):
    """Per-clip phase prediction by similarity to prototype sentences."""
    frames, fps = read_video(video)
    model = pl.load_stage1_bundle(stage1, lora)
    protos = _json_entries(prototypes, "an object of prototype sentences",
                           lambda s: isinstance(s, str), dict)
    timeline = pl.zero_shot(frames, model, protos, fps)
    write_json(out, timeline.to_dict(video.stem))


@command("caption")
@click.option("--video", required=True, type=IN)
@click.option("--stage1", required=True, type=IN)
@click.option("--temporal", required=True, type=IN)
@click.option("--lora", default=None, type=IN)
@click.option("--out", required=True, type=OUT)
def caption_cmd(video, stage1, temporal, lora, out):
    """Dense captioning of predicted non-idle segments."""
    frames, fps = read_video(video)
    model = pl.load_stage1_bundle(stage1, lora)
    temporal_model, classes = pl.load_temporal_bundle(temporal)
    captions = pl.dense_caption(frames, model, temporal_model, classes, fps)
    write_json(out, pl.captions_to_dict(video.stem, captions))


# -- evaluation ---------------------------------------------------------------


def _load_timelines(path: Path) -> dict:
    return dict(map(pl.read_timeline, sorted(path.glob("*.json"))
                    if path.is_dir() else [path]))


@command("evaluate")
@click.option("--pred", required=True, type=IN,
              help="Timeline JSON or directory of them.")
@click.option("--gt", required=True, type=IN)
@click.option("--fps", default=1.0, show_default=True, callback=_positive)
@click.option("--out-csv", default=None, type=OUT)
@click.option("--out-svg", default=None, type=OUT)
def evaluate_cmd(pred, gt, fps, out_csv, out_svg):
    """Score predicted timelines against ground truth."""
    report = evaluate_timelines(_load_timelines(pred), _load_timelines(gt),
                                fps=fps)
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
@click.option("--fractions", default="0.1,0.5,1.0", show_default=True,
              callback=_numbers)
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
    meta = pl.read_meta(corpus)
    train_ids, test_ids = _split_videos(meta, train, test)
    rows = pl.ablate_subset(features_dir, corpus, meta["class_names"],
                            train_ids, test_ids, _fractions(fractions),
                            variant, epochs, seed)
    write_csv(out, list(rows[0]), [list(r.values()) for r in rows])
    for row in rows:
        click.echo(f"fraction {row['fraction']}: "
                   f"accuracy {row['accuracy']:.2f}")


@command("pca-plot")
@click.option("--features", "features_dir", required=True, type=IN)
@click.option("--out", required=True, type=OUT)
@click.option("--coords-csv", default=None, type=OUT)
def pca_plot_cmd(features_dir, out, coords_csv):
    """Project all feature rows to 2-D principal components as an SVG."""
    ratios = pl.pca_plot(features_dir, out, coords_csv)
    click.echo(f"explained variance ratios: {ratios.tolist()}")


# -- diagnostics --------------------------------------------------------------


@command("gradcheck")
@click.option("--mode", type=click.Choice(["f32", "f64", "both"]),
              default="both", show_default=True)
@click.option("--seed", default=95, show_default=True)
def gradcheck_cmd(mode, seed):
    """Verify every loss against central finite differences."""
    from .diagnostics import TOLERANCES, gradient_suite
    modes = ["f32", "f64"] if mode == "both" else [mode]
    failed = False
    for name in modes:
        dtype, threshold = TOLERANCES[name]
        for loss, err in gradient_suite(dtype, seed).items():
            ok = err < threshold
            failed = failed or not ok
            click.echo(f"{name} {loss:14s} {err:.3e} "
                       f"{'ok' if ok else 'FAIL'}")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
