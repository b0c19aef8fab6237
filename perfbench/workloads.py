"""The four benchmark workloads.  Each is a closed loop with one caller in one
process, fed only with inputs generated from the seed, and calls surgflow
through module attributes so that a traced pass sees every call.

A workload runs a fixed amount of work first (its "fixed pass"); every
seeded quality figure comes from that pass, so it does not depend on speed.
An untraced pass then keeps going until `seconds` of measured work have run;
a traced pass stops after the fixed pass, so its counts repeat exactly.
"""

from __future__ import annotations

import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from surgflow import lora, metrics, objectives, optim, serialization, temporal
from surgflow import pipeline as pl
from surgflow import synthetic as syn
from surgflow.models import ModelConfig, Stage1Model
from surgflow.rng import SessionRng

from harness import (SETUP_REPEATS, Digest, Ledger, Stopwatch, build_vocab,
                     check_captions, check_covers, ground_truth, peak_rss_mb,
                     percentile, second_labels, tail_rung)

BATCH = 8
CLIP_NORM = 5.0
WEIGHT_DECAY = 0.01
STAGE1_LR = (1e-3, 1e-5)      # peak, floor of the cosine schedule
LORA_LR = (1e-2, 1e-4)
TEMPORAL_LR = (1e-3, 1e-7)
LORA_RANK = 8
WARMUP_STEPS = 8
LOSS_WINDOW = 8               # final_loss averages the last steps of the fixed pass

# Stage-1 training that analyze and adapt run once, untimed, to get a
# pretrained model from the seed.
PREP_STAGE1_STEPS = 60
PREP_TCN_EPOCHS = 10


@dataclass
class Result:
    metrics: dict                   # end-to-end metric -> value
    notes: dict                     # end-to-end metric -> what it is here
    quality: dict                   # seeded quality figures
    inputs: str                     # digest of the generated inputs
    units: dict = field(default_factory=dict)   # per-layer denominators
    extra: dict = field(default_factory=dict)   # unbounded figures for the report


def _ms(watch: Stopwatch) -> float:
    """Median in ms."""
    return 1000.0 * statistics.median(watch.samples)


def _tail(watch: Stopwatch, fixed_count: int) -> tuple[float, str]:
    """Tail in ms at the rung chosen from the fixed pass's sample count, so
    the percentile does not move when a faster program fits more samples
    into the same time."""
    q = tail_rung(fixed_count)
    if q is None:
        return 1000.0 * max(watch.samples), "max"
    return 1000.0 * percentile(watch.samples, q), f"p{q:g}"


def _about(watch: Stopwatch, what: str) -> str:
    raw = 1000.0 * statistics.median(watch.raw)
    return f"{what}, n={len(watch)}, raw p50 {raw:.4g} ms"


def _accuracy(pred: dict, gt: dict) -> float:
    return metrics.evaluate_timelines(pred, gt, fps=1.0).aggregate["accuracy"]


def _digest_corpus(digest: Digest, corpus: Path, meta: dict) -> None:
    digest.add_file(corpus / "manifest.jsonl")
    for vid in meta["video_ids"]:
        digest.add_file(corpus / "videos" / f"{vid}.wlfg")


class Stage1Trainer:
    """valor_loss -> backward -> clip_global_norm -> AdamW.step on batches
    of BATCH clip-caption pairs drawn without replacement per epoch."""

    def __init__(self, model, store, records, seed: int, lr: tuple,
                 total_steps: int):
        self.model = model
        self.store = store
        self.records = records
        self.ids = [model.vocab.encode(r["text"]) for r in records]
        self.params = model.parameters()
        self.opt = optim.AdamW(self.params, lr=lr[0], weight_decay=WEIGHT_DECAY)
        self.schedule = optim.CosineWarmupSchedule(
            lr[0], lr[1], warmup_steps=WARMUP_STEPS, total_steps=total_steps)
        self.rng = SessionRng(seed)
        self.order: list[int] = []
        self.step_no = 0

    def step(self, ledger: Ledger) -> tuple[float, float]:
        """One step; returns (L_total, seconds spent in backward + clip +
        AdamW.step)."""
        if len(self.order) < BATCH:
            self.order = [int(i) for i in self.rng.permutation(len(self.records))]
        idx, self.order = self.order[:BATCH], self.order[BATCH:]
        clips = [self.store.clip(self.records[i]) for i in idx]
        ids = [self.ids[i] for i in idx]
        self.opt.zero_grad()
        report = objectives.valor_loss(self.model, clips, ids, self.rng)
        t0 = perf_counter()
        report.total.backward()
        norm = optim.clip_global_norm(self.params, CLIP_NORM)
        self.opt.lr = self.schedule.lr(self.step_no)
        self.opt.step()
        update_s = perf_counter() - t0
        self.step_no += 1
        for term in ("total", "mga", "mgc", "mlm"):
            ledger.check_finite(getattr(report, term).data, f"L_{term}")
        ledger.check_finite(norm, "gradient norm")
        return float(report.total.data), update_s


def _train_stage1(trainer: Stage1Trainer, ledger: Ledger, fixed_steps: int,
                  seconds: float, fixed_only: bool, at_fixed_end) -> tuple:
    """Step until the fixed pass is done and `seconds` of steps have run;
    calls `at_fixed_end()` once, right after the fixed pass.  Returns the
    step timings, the timings of their backward + clip + AdamW part, and
    the losses."""
    steps, updates, losses = Stopwatch(), Stopwatch(), []
    attempts = 0
    while attempts < fixed_steps or not (fixed_only or sum(steps.raw) >= seconds):
        attempts += 1
        with ledger.operation(f"step {attempts}"):
            steps.start()
            loss, update_s = trainer.step(ledger)
            steps.stop()
            updates.record(update_s, steps.scale)
            losses.append(loss)
        if attempts == fixed_steps:
            at_fixed_end()
    return steps, updates, losses


def _loss_descends(ledger: Ledger, losses, fixed: int) -> float:
    final = float(np.mean(losses[fixed - LOSS_WINDOW:fixed]))
    first = float(np.mean(losses[:LOSS_WINDOW]))
    with ledger.operation("training loss descends"):
        ledger.check(final < first, f"final loss {final} not below first {first}")
    return final


def _zero_shot_eval(model, corpus: Path, meta: dict, video_ids, frames: dict,
                    ledger: Ledger) -> tuple[list, float]:
    """Zero-shot label each held-out video; returns (timings, accuracy)."""
    watch, pred, gt = Stopwatch(), {}, {}
    for vid in video_ids:
        with ledger.operation(f"zero-shot {vid}"):
            watch.start()
            tl = pl.zero_shot(frames[vid], model, meta["prototypes"], meta["fps"])
            watch.stop()
            check_covers(ledger, tl, len(frames[vid]) / meta["fps"], f"zero-shot {vid}")
            pred[vid] = tl
            gt[vid] = ground_truth(corpus, vid)
    return watch, _accuracy(pred, gt)


class Workload:
    """Set-up (repeated SETUP_REPEATS times, median reported) plus a loop."""

    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def prepare(self, ledger: Ledger) -> None:
        """Untimed work done once per process, shared by all passes."""

    def setup(self, d: Path) -> dict:
        raise NotImplementedError

    def loop(self, state: dict, seconds: float, fixed_only: bool,
             ledger: Ledger) -> Result:
        raise NotImplementedError

    def measure(self, seconds: float, fixed_only: bool, ledger: Ledger) -> Result:
        watch = Stopwatch()
        state = None
        for i in range(SETUP_REPEATS):
            d = self.work / f"setup{i}"
            if state is not None:
                shutil.rmtree(state["dir"])
            watch.start()
            state = self.setup(d)
            watch.stop()
            state["dir"] = d
        result = self.loop(state, seconds, fixed_only, ledger)
        shutil.rmtree(state["dir"])
        result.metrics["setup_s"] = statistics.median(watch.samples)
        result.metrics["peak_rss_mb"] = peak_rss_mb()
        result.notes["setup_s"] = (f"median of {SETUP_REPEATS} set-ups, raw "
                                   f"{statistics.median(watch.raw):.4g} s")
        result.notes.setdefault("peak_rss_mb", "process high-water mark")
        result.units.setdefault("videos", 0)
        result.units.setdefault("distinct_clips", 0)
        result.units.setdefault("trainable_fraction", 0.0)
        return result


def _stage1_corpus(spec, n_videos: int, d: Path) -> tuple:
    """Generate a corpus and load everything stage 1 reads from it."""
    meta = syn.generate_corpus(spec, n_videos, d)
    manifest = objectives.load_manifest(d / "manifest.jsonl")
    store = objectives.ClipStore(d / "videos", meta["fps"])
    frames = {vid: store.video(vid) for vid in meta["video_ids"]}
    return meta, manifest, store, frames


class Pretrain(Workload):
    """Full stage-1 training; zero-shot on held-out videos after the fixed pass."""

    name = "pretrain"
    videos, held_out = 16, 6
    fixed_steps = 100

    def setup(self, d: Path) -> dict:
        meta, manifest, store, frames = _stage1_corpus(
            syn.SyntheticSpec(seed=self.seed), self.videos, d)
        vocab = build_vocab(meta, manifest)
        model = Stage1Model(ModelConfig(), vocab, SessionRng(self.seed))
        return {"meta": meta, "manifest": manifest, "store": store,
                "frames": frames, "model": model}

    def loop(self, s, seconds, fixed_only, ledger) -> Result:
        meta, model = s["meta"], s["model"]
        train_ids = set(meta["video_ids"][:-self.held_out])
        test_ids = meta["video_ids"][-self.held_out:]
        records = [r for r in s["manifest"] if r["video"] in train_ids]
        trainer = Stage1Trainer(model, s["store"], records, self.seed, STAGE1_LR,
                                self.fixed_steps)
        evaluation = {}

        def at_fixed_end():
            evaluation["zs"] = _zero_shot_eval(model, s["dir"], meta, test_ids,
                                               s["frames"], ledger)
            serialization.write_checkpoint(self.work / "stage1.wlcp",
                                           model.state_dict())

        steps, updates, losses = _train_stage1(trainer, ledger, self.fixed_steps,
                                               seconds, fixed_only, at_fixed_end)
        zs, zs_acc = evaluation["zs"]
        final = _loss_descends(ledger, losses, self.fixed_steps)
        tail, rung = _tail(steps, self.fixed_steps)
        digest = Digest()
        _digest_corpus(digest, s["dir"], meta)
        return Result(
            metrics={"video_s_per_s": BATCH * len(steps) / sum(steps.samples),
                     "step_ms_p50": _ms(steps), "step_ms_tail": tail,
                     "aux_ms_p50": _ms(updates)},
            notes={"video_s_per_s": "pairs_per_s: 1-s clip-caption pairs trained per s",
                   "step_ms_p50": _about(steps, f"stage-1 step, batch {BATCH}"),
                   "step_ms_tail": f"stage-1 step {rung}",
                   "aux_ms_p50": _about(updates, "backward + clip + AdamW part "
                                                 "of the step")},
            quality={"final_loss": final, "zeroshot_frame_acc": zs_acc},
            inputs=digest.hexdigest(),
            extra={"zero-shot per held-out video": f"{_ms(zs):.4g} ms p50, n={len(zs)}"})


class Temporal(Workload):
    """Stage-2 training of MS-TCN++ and ASFormer, one video per step, on
    precomputed feature tables; no stage-1 model runs here."""

    name = "temporal"
    videos, held_out = 18, 6
    fixed_epochs = 10
    # Feature rows are a per-class mean plus Gaussian noise: separable
    # enough to learn, noisy enough that single frames are often wrong.
    mean_scale, noise = 0.5, 1.0

    def setup(self, d: Path) -> dict:
        meta = syn.generate_corpus(syn.SyntheticSpec(seed=self.seed), self.videos, d)
        classes = meta["class_names"]
        cfg = temporal.TemporalConfig(num_classes=len(classes))
        rng = SessionRng(self.seed).child(1)
        means = rng.normal(self.mean_scale, (len(classes), cfg.feature_dim))
        (d / "features").mkdir()
        data = {}
        for vid in meta["video_ids"]:
            gt = ground_truth(d, vid)
            n_clips = len(pl.partition(gt.duration, 1.0, meta["fps"]))
            labels = second_labels(gt, classes, n_clips)
            rows = means[labels] + rng.normal(self.noise, (n_clips, cfg.feature_dim))
            path = d / "features" / f"{vid}.wlft"
            serialization.write_features(path, rows)
            seq = temporal.FeatureSequence(serialization.read_features(path), vid)
            data[vid] = (seq, labels, gt)
        models = {v: temporal.build_temporal_model(v, cfg, SessionRng(self.seed))
                  for v in ("tcn", "asformer")}
        return {"meta": meta, "data": data, "models": models}

    def loop(self, s, seconds, fixed_only, ledger) -> Result:
        meta, data = s["meta"], s["data"]
        train_ids = meta["video_ids"][:-self.held_out]
        test_ids = meta["video_ids"][-self.held_out:]
        for vid, (seq, labels, gt) in data.items():
            with ledger.operation(f"feature table {vid}"):
                ledger.check(seq.features.shape[0] == len(labels) == round(gt.duration),
                             f"{seq.features.shape[0]} rows for {gt.duration} s")
        fixed = self.fixed_epochs * len(train_ids)
        runs = {}
        for i, (variant, model) in enumerate(s["models"].items()):
            params = model.parameters()
            runs[variant] = {
                "model": model, "params": params,
                "opt": optim.AdamW(params, lr=TEMPORAL_LR[0], weight_decay=WEIGHT_DECAY),
                "schedule": optim.CosineWarmupSchedule(
                    TEMPORAL_LR[0], TEMPORAL_LR[1], warmup_steps=len(train_ids),
                    total_steps=fixed),
                "rng": SessionRng(self.seed).child(2 + i), "order": [],
                "watch": Stopwatch(), "losses": []}

        def train_step(run, n):
            if not run["order"]:
                run["order"] = [train_ids[int(i)]
                                for i in run["rng"].permutation(len(train_ids))]
            vid = run["order"].pop(0)
            seq, labels, _ = data[vid]
            model, opt = run["model"], run["opt"]
            run["watch"].start()
            opt.zero_grad()
            outputs = model.forward(seq.features)
            loss = temporal.stage2_loss(outputs, labels, model.variant, model.cfg)
            loss.backward()
            norm = optim.clip_global_norm(run["params"], CLIP_NORM)
            opt.lr = run["schedule"].lr(n)
            opt.step()
            run["watch"].stop()
            run["losses"].append(float(loss.data))
            run["seconds"] = run.get("seconds", 0.0) + seq.features.shape[0]
            ledger.check_finite(loss.data, f"{model.variant} loss")
            ledger.check_finite(norm, f"{model.variant} gradient norm")
            for out in outputs:
                ledger.check(out.shape == (len(labels), model.cfg.num_classes),
                             f"{model.variant} output shape {out.shape}")

        quality = {}
        n = 0
        while n < fixed or not (fixed_only or sum(
                sum(r["watch"].raw) for r in runs.values()) >= seconds):
            for variant, run in runs.items():
                with ledger.operation(f"{variant} step {n}"):
                    train_step(run, n)
            n += 1
            if n == fixed:
                for variant, run in runs.items():
                    quality[f"{variant}_frame_acc"] = self._score(
                        run["model"], data, test_ids, meta, ledger)
                    quality[f"{variant}_final_loss"] = _loss_descends(
                        ledger, run["losses"], fixed)
        tcn, asf = runs["tcn"], runs["asformer"]
        tw, aw = tcn["watch"], asf["watch"]
        tail, rung = _tail(tw, fixed)
        digest = Digest()
        _digest_corpus(digest, s["dir"], meta)
        for vid in meta["video_ids"]:
            digest.add_array(data[vid][0].features)
        return Result(
            metrics={"video_s_per_s": (tcn["seconds"] + asf["seconds"])
                     / (sum(tw.samples) + sum(aw.samples)),
                     "step_ms_p50": _ms(tw), "step_ms_tail": tail,
                     "aux_ms_p50": _ms(aw)},
            notes={"video_s_per_s": "train_video_s_per_s: video seconds trained per s, "
                                    "both variants",
                   "step_ms_p50": _about(tw, "tcn_step_ms_p50"),
                   "step_ms_tail": f"TCN step {rung}",
                   "aux_ms_p50": _about(aw, "asformer_step_ms_p50")},
            quality=quality, inputs=digest.hexdigest())

    @staticmethod
    def _score(model, data, test_ids, meta, ledger) -> float:
        classes = meta["class_names"]
        pred, gt = {}, {}
        for vid in test_ids:
            with ledger.operation(f"{model.variant} scores {vid}"):
                seq, _, truth = data[vid]
                final = model(seq)[-1]
                pred[vid] = pl.merge_labels([classes[k] for k in final.labels], 1.0)
                gt[vid] = truth
                check_covers(ledger, pred[vid], truth.duration,
                             f"{model.variant} timeline {vid}")
        return _accuracy(pred, gt)


class _ChunkTimer:
    """Times each dense-captioning chunk (its clip encode plus caption
    decode) through the model instance, which the library calls per chunk.
    A chunk's calibrations run inside its video's timed interval, so
    `calibrating` sums their time for the video to leave out."""

    def __init__(self, model):
        self.watch = Stopwatch()
        self.calibrating = 0.0
        encode, generate = model.encode_video, model.generate_caption

        def encode_video(clip):
            t0 = perf_counter()
            self.watch.start()
            self.calibrating += perf_counter() - t0
            return encode(clip)

        def generate_caption(*args, **kwargs):
            ids = generate(*args, **kwargs)
            t0 = perf_counter()
            self.watch.stop()
            self.calibrating += perf_counter() - t0
            return ids
        model.encode_video = encode_video
        model.generate_caption = generate_caption


def _pretrained_stage1(seed: int, d: Path, n_videos: int, n_train: int,
                       ledger: Ledger) -> tuple:
    """Generate a corpus and pretrain stage 1 on its first `n_train` videos."""
    meta, manifest, store, frames = _stage1_corpus(
        syn.SyntheticSpec(seed=seed), n_videos, d)
    vocab = build_vocab(meta, manifest)
    model = Stage1Model(ModelConfig(), vocab, SessionRng(seed))
    train_ids = set(meta["video_ids"][:n_train])
    records = [r for r in manifest if r["video"] in train_ids]
    trainer = Stage1Trainer(model, store, records, seed, STAGE1_LR,
                            PREP_STAGE1_STEPS)
    for i in range(PREP_STAGE1_STEPS):
        with ledger.operation(f"prepare: stage-1 step {i}"):
            trainer.step(ledger)
    return meta, frames, vocab, model


class Analyze(Workload):
    """Forward-only analysis of held-out videos: segment, then zero_shot,
    then dense_caption, with a stage-1 model and a TCN trained from the seed."""

    name = "analyze"
    train, held_out = 8, 12

    def prepare(self, ledger):
        d = self.work / "prepare"
        meta, frames, vocab, model = _pretrained_stage1(
            self.seed, d, self.train + self.held_out, self.train, ledger)
        classes = meta["class_names"]
        digest = Digest()
        _digest_corpus(digest, d, meta)
        dataset = []
        extract, n_clips = Stopwatch(), 0
        for vid in meta["video_ids"][:self.train]:
            with ledger.operation(f"prepare: features {vid}"):
                part = pl.partition(len(frames[vid]) / meta["fps"], 1.0, meta["fps"])
                extract.start()
                seq = pl.extract_features(frames[vid], model, part, vid)
                extract.stop()
                n_clips += len(part)
                ledger.check(seq.features.shape[0] == len(part),
                             f"{seq.features.shape[0]} feature rows for "
                             f"{len(part)} clips")
                digest.add_array(seq.features)
                labels = second_labels(ground_truth(d, vid), classes, len(part))
                dataset.append((seq, labels))
        tcn = temporal.build_temporal_model(
            "tcn", temporal.TemporalConfig(num_classes=len(classes)),
            SessionRng(self.seed))
        with ledger.operation("prepare: train TCN"):
            curve = temporal.train_temporal(tcn, dataset, temporal.TrainTemporalConfig(
                epochs=PREP_TCN_EPOCHS, seed=self.seed))
            ledger.check_finite(curve, "TCN loss curve")
        serialization.write_checkpoint(self.work / "stage1.wlcp", model.state_dict())
        serialization.write_checkpoint(self.work / "tcn.wlcp", tcn.state_dict())
        digest.add_file(self.work / "stage1.wlcp")
        digest.add_file(self.work / "tcn.wlcp")
        self.vocab, self.classes, self.prep_digest = vocab, classes, digest.hexdigest()
        self.extract_ms_per_clip = 1000.0 * sum(extract.samples) / n_clips
        shutil.rmtree(d)

    def setup(self, d):
        meta = syn.generate_corpus(syn.SyntheticSpec(seed=self.seed),
                                   self.train + self.held_out, d)
        test_ids = meta["video_ids"][self.train:]
        frames = {vid: serialization.read_frame_grid(d / "videos" / f"{vid}.wlfg")
                  for vid in test_ids}
        model = Stage1Model(ModelConfig(), self.vocab, SessionRng(self.seed))
        model.load_state_dict(serialization.read_checkpoint(self.work / "stage1.wlcp"))
        tcn = temporal.build_temporal_model(
            "tcn", temporal.TemporalConfig(num_classes=len(self.classes)),
            SessionRng(self.seed))
        tcn.load_state_dict(serialization.read_checkpoint(self.work / "tcn.wlcp"))
        return {"meta": meta, "test_ids": test_ids, "frames": frames,
                "model": model, "tcn": tcn}

    def loop(self, s, seconds, fixed_only, ledger) -> Result:
        meta, model, tcn = s["meta"], s["model"], s["tcn"]
        fps, classes, test_ids = meta["fps"], self.classes, s["test_ids"]
        timer, videos = _ChunkTimer(model), Stopwatch()
        chunks = timer.watch
        first: dict = {}
        video_s, clips = 0.0, 0
        fixed_chunks = 0
        n = 0
        while n < len(test_ids) or not (fixed_only or sum(videos.raw) >= seconds):
            vid = test_ids[n % len(test_ids)]
            frames = s["frames"][vid]
            duration = len(frames) / fps
            with ledger.operation(f"analyze {vid} pass {n // len(test_ids)}"):
                timer.calibrating = 0.0
                videos.start()
                tl, final = pl.segment(frames, model, tcn, classes, fps)
                zs = pl.zero_shot(frames, model, meta["prototypes"], fps)
                caps = pl.dense_caption(frames, model, tcn, classes, fps)
                videos.stop(exclude=timer.calibrating)
                video_s += duration
                n_clips = len(pl.partition(duration, 1.0, fps))
                clips += n_clips
                ledger.check(final.logits.shape[0] == n_clips,
                             f"{final.logits.shape[0]} feature rows for {n_clips} clips")
                check_covers(ledger, tl, duration, f"segment {vid}")
                check_covers(ledger, zs, duration, f"zero-shot {vid}")
                check_captions(ledger, caps, tl, f"captions {vid}")
                outputs = ([(g.start_s, g.end_s, g.label) for g in tl.segments],
                           [(g.start_s, g.end_s, g.label) for g in zs.segments],
                           [(c.start_s, c.end_s, c.text) for c in caps])
                if vid in first:
                    ledger.check(first[vid][1] == outputs,
                                 "repeat analysis differs from the first")
                else:
                    first[vid] = (tl, outputs, zs)
            n += 1
            if n == len(test_ids):
                fixed_chunks = len(chunks)
        gt = {vid: ground_truth(s["dir"], vid) for vid in test_ids}
        zs_acc = _accuracy({v: first[v][2] for v in test_ids}, gt)
        seg_acc = _accuracy({v: first[v][0] for v in test_ids}, gt)
        tail, rung = _tail(chunks, fixed_chunks)
        digest = Digest()
        digest.add_bytes(self.prep_digest.encode())
        for vid in test_ids:
            digest.add_array(s["frames"][vid])
        captions = Digest()
        for vid in test_ids:
            captions.add_bytes(repr(first[vid][1]).encode())
        return Result(
            metrics={"video_s_per_s": video_s / sum(videos.samples),
                     "step_ms_p50": _ms(chunks), "step_ms_tail": tail,
                     "aux_ms_p50": _ms(videos)},
            notes={"video_s_per_s": "video_s_per_s: video seconds analysed per s",
                   "step_ms_p50": _about(chunks, "caption_chunk_ms_p50"),
                   "step_ms_tail": f"caption chunk {rung}",
                   "aux_ms_p50": _about(videos, "video_ms_p50 (segment + zero-shot "
                                                "+ captions)")},
            quality={"zeroshot_frame_acc": zs_acc, "segment_frame_acc": seg_acc,
                     "outputs": captions.hexdigest()[:16]},
            inputs=digest.hexdigest(),
            units={"videos": n, "distinct_clips": clips},
            extra={"video_ms_tail": "{:.4g} ms at {}".format(
                *_tail(videos, len(test_ids)))})


class Adapt(Workload):
    """Rank-8 LoRA fine-tuning of a pretrained stage-1 model on the
    colour-shifted corpus, then zero-shot on held-out shifted videos."""

    name = "adapt"
    train, held_out = 10, 6
    fixed_steps = 100

    def prepare(self, ledger):
        d = self.work / "prepare"
        _, _, vocab, model = _pretrained_stage1(
            self.seed, d, self.train, self.train, ledger)
        serialization.write_checkpoint(self.work / "stage1.wlcp", model.state_dict())
        self.vocab = vocab
        digest = Digest()
        digest.add_file(self.work / "stage1.wlcp")
        self.prep_digest = digest.hexdigest()
        shutil.rmtree(d)

    def setup(self, d):
        spec = syn.shift_colors(syn.SyntheticSpec(seed=self.seed))
        meta, manifest, store, frames = _stage1_corpus(
            spec, self.train + self.held_out, d)
        model = Stage1Model(ModelConfig(), self.vocab, SessionRng(self.seed))
        model.load_state_dict(serialization.read_checkpoint(self.work / "stage1.wlcp"))
        adapters = lora.attach(model, r=LORA_RANK, seed=self.seed)
        lora.freeze_base(model)
        return {"meta": meta, "manifest": manifest, "store": store,
                "frames": frames, "model": model, "adapters": adapters}

    def loop(self, s, seconds, fixed_only, ledger) -> Result:
        meta, model = s["meta"], s["model"]
        params = model.parameters().values()
        trainable = [p for p in params if p.requires_grad]
        total = sum(p.size for p in params)
        fraction = sum(p.size for p in trainable) / total
        with ledger.operation("adapter freeze"):
            ledger.check(len(trainable) == 2 * len(s["adapters"]),
                         f"{len(trainable)} trainable tensors for "
                         f"{len(s['adapters'])} adapters")
            ledger.check(fraction == lora.adapter_parameter_count(model) / total,
                         f"trainable fraction {fraction}")
        train_ids = set(meta["video_ids"][:self.train])
        test_ids = meta["video_ids"][self.train:]
        records = [r for r in s["manifest"] if r["video"] in train_ids]
        trainer = Stage1Trainer(model, s["store"], records, self.seed, LORA_LR,
                                self.fixed_steps)
        evaluation = {}

        def at_fixed_end():
            evaluation["zs"] = _zero_shot_eval(model, s["dir"], meta, test_ids,
                                               s["frames"], ledger)
            state = {f"lora.{k}": v for k, v in model.state_dict().items()
                     if ".lora_" in k}
            serialization.write_checkpoint(self.work / "lora.wlcp", state)

        steps, updates, losses = _train_stage1(trainer, ledger, self.fixed_steps,
                                               seconds, fixed_only, at_fixed_end)
        zs, zs_acc = evaluation["zs"]
        final = _loss_descends(ledger, losses, self.fixed_steps)
        tail, rung = _tail(steps, self.fixed_steps)
        digest = Digest()
        digest.add_bytes(self.prep_digest.encode())
        _digest_corpus(digest, s["dir"], meta)
        return Result(
            metrics={"video_s_per_s": BATCH * len(steps) / sum(steps.samples),
                     "step_ms_p50": _ms(steps), "step_ms_tail": tail,
                     "aux_ms_p50": _ms(updates)},
            notes={"video_s_per_s": "pairs_per_s: 1-s clip-caption pairs adapted per s",
                   "step_ms_p50": _about(steps, f"LoRA step, batch {BATCH}"),
                   "step_ms_tail": f"LoRA step {rung}",
                   "aux_ms_p50": _about(updates, "backward + clip + AdamW part "
                                                 "of the step")},
            quality={"final_loss": final, "zeroshot_frame_acc": zs_acc},
            inputs=digest.hexdigest(),
            units={"trainable_fraction": fraction},
            extra={"zero-shot per held-out video": f"{_ms(zs):.4g} ms p50, n={len(zs)}"})


WORKLOADS = {w.name: w for w in (Pretrain, Temporal, Analyze, Adapt)}
