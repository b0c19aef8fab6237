"""Stage-1 training objectives (alignment, masked captioning, masked language
modeling), masking plans, and the pretraining loop."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, InputError
from .lora import adapter_checkpoint
from .models import (CAPTION_PROMPT, MGA_PROMPT, Stage1Model, TextTokens,
                     VideoTokens)
from .optim import AdamW, CosineWarmupSchedule, clip_global_norm
from .rng import SessionRng
from .serialization import read_frame_grid, write_checkpoint


@dataclass
class MaskingPlan:
    """Masked positions per sample, with originals preserved for the loss."""
    positions: List[np.ndarray]        # per-sample masked index arrays
    original_ids: np.ndarray           # [B, N_t] pre-masking ids
    masked_ids: np.ndarray             # [B, N_t] with MASK substituted
    ratio: float

    @property
    def total_masked(self) -> int:
        return sum(len(p) for p in self.positions)


def make_masking_plan(ids: np.ndarray, mask_flags: np.ndarray, mask_id: int,
                      ratio: float, rng: SessionRng) -> MaskingPlan:
    """Choose ceil(ratio * maskable) positions per sample among mask_flags."""
    if not 0.0 < ratio <= 1.0:
        raise ConfigError("mask ratio must lie in (0, 1]")
    positions = []
    masked = ids.copy()
    for i in range(ids.shape[0]):
        cand = np.flatnonzero(mask_flags[i])
        if len(cand) == 0:
            positions.append(np.empty(0, np.int64))
            continue
        count = math.ceil(ratio * len(cand))
        chosen = np.sort(cand[rng.choice(len(cand), count, replace=False)])
        masked[i, chosen] = mask_id
        positions.append(chosen.astype(np.int64))
    return MaskingPlan(positions, ids.copy(), masked, ratio)


# -- fine-grained similarity -------------------------------------------------


def similarity_matrix(e_t: Tensor, w_t: Tensor, text_pad: np.ndarray | None,
                      e_v: Tensor, w_v: Tensor) -> Tensor:
    """Pairwise bidirectional token-match similarity.

    e_t [B, N_t, d] unit text embeddings with weights w_t [B, N_t];
    e_v [B2, M, d] unit video embeddings with weights w_v [B2, M].
    Returns the [B, B2] similarity matrix: for each pair, half the
    weighted sum of per-text-token best matches plus half the weighted
    sum of per-video-token best matches.
    """
    b, n_t, d = e_t.shape
    b2, m, _ = e_v.shape
    if n_t == 0 or m == 0:
        raise InputError("similarity requires nonempty token sets")
    lhs = ad.reshape(e_t, (b, 1, n_t, d))
    rhs = ad.transpose(ad.reshape(e_v, (1, b2, m, d)), (0, 1, 3, 2))
    dots = ad.matmul(lhs, rhs)  # [B, B2, N_t, M]
    if text_pad is not None:
        dots = dots + Tensor(
            np.where(text_pad, -1e9, 0.0).astype(np.float32)[:, None, :, None])
    text_best = ad.reduce_max(dots, axis=3)            # [B, B2, N_t]
    text_side = ad.reduce_sum(text_best * ad.reshape(w_t, (b, 1, n_t)), axis=2)
    video_best = ad.reduce_max(dots, axis=2)           # [B, B2, M]
    video_side = ad.reduce_sum(video_best * ad.reshape(w_v, (1, b2, m)), axis=2)
    return 0.5 * text_side + 0.5 * video_side


# -- losses ------------------------------------------------------------------


def mga_loss_from_scores(s: Tensor, tau: Tensor,
                         normalize_by_batch: bool = False) -> Tensor:
    """Batch-wise bidirectional contrastive loss over a [B, B] score matrix."""
    b = s.shape[0]
    if b < 1:
        raise InputError("batch must be nonempty")
    scaled = s / tau
    diag = (np.arange(b), np.arange(b))
    row = ad.log_softmax(scaled, axis=1)[diag]
    col = ad.log_softmax(scaled, axis=0)[diag]
    loss = -0.5 * (ad.reduce_sum(row) + ad.reduce_sum(col))
    if normalize_by_batch:
        loss = loss / float(b)
    return loss


def mga_loss(model: Stage1Model, text: TextTokens, video: VideoTokens,
             normalize_by_batch: bool = False) -> Tensor:
    e_t, w_t = model.head.pool_text(text)
    e_v, w_v = model.head.pool_video(video)
    s = similarity_matrix(e_t, w_t, text.pad_mask, e_v, w_v)
    return mga_loss_from_scores(s, model.head.tau, normalize_by_batch)


def _masked_token_nll(logits: Tensor, plan: MaskingPlan) -> Tensor:
    if plan.total_masked == 0:
        raise InputError("masking plan is empty")
    b_idx = np.concatenate([np.full(len(p), i, np.int64)
                            for i, p in enumerate(plan.positions)])
    pos = np.concatenate(plan.positions)
    picked = logits[(b_idx, pos)]                      # [M, vocab]
    targets = plan.original_ids[b_idx, pos]
    return ad.cross_entropy(picked, targets)


def mgc_loss(model: Stage1Model, plan: MaskingPlan, pad_mask: np.ndarray,
             video: VideoTokens) -> Tensor:
    """Causal multimodal decoding; mean NLL of the original tokens at
    masked positions given the visible prefix and the video."""
    _, logits = model.decode_multimodal(plan.masked_ids, pad_mask, video,
                                        causal=True)
    return _masked_token_nll(logits, plan)


def mlm_loss(model: Stage1Model, plan: MaskingPlan, pad_mask: np.ndarray,
             video: VideoTokens) -> Tensor:
    """As mgc_loss but with bidirectional decoding."""
    _, logits = model.decode_multimodal(plan.masked_ids, pad_mask, video,
                                        causal=False)
    return _masked_token_nll(logits, plan)


@dataclass
class ValorLossReport:
    total: Tensor
    mga: Tensor
    mgc: Tensor
    mlm: Tensor


def valor_loss(model: Stage1Model, clips: Sequence[np.ndarray],
               caption_ids: Sequence[Sequence[int]], rng: SessionRng,
               mgc_ratio: float = 0.6, mlm_ratio: float = 0.1,
               normalize_by_batch: bool = True,
               plans: tuple | None = None) -> ValorLossReport:
    """Mean of the three stage-1 objectives on one paired batch."""
    if len(clips) != len(caption_ids) or not clips:
        raise InputError("batch must be nonempty with index-aligned pairs")
    vocab = model.vocab
    video = model.encode_video_batch(clips)

    mga_prompt = model.prompt_ids(MGA_PROMPT)
    mga_text = model.encode_text_batch(
        [mga_prompt + list(ids) for ids in caption_ids], len(mga_prompt))
    l_mga = mga_loss(model, mga_text, video, normalize_by_batch)

    cap_prompt = model.prompt_ids(CAPTION_PROMPT)
    seqs = [cap_prompt + list(ids) + [vocab.eos_id] for ids in caption_ids]
    ids, pad = model.pad_batch(seqs)
    maskable = model.maskable(ids, pad, len(cap_prompt))
    if plans is None:
        plan_mgc = make_masking_plan(ids, maskable, vocab.mask_id, mgc_ratio, rng)
        plan_mlm = make_masking_plan(ids, maskable, vocab.mask_id, mlm_ratio, rng)
    else:
        plan_mgc, plan_mlm = plans
    l_mgc = mgc_loss(model, plan_mgc, pad, video)
    l_mlm = mlm_loss(model, plan_mlm, pad, video)
    total = (l_mga + l_mgc + l_mlm) / 3.0
    return ValorLossReport(total, l_mga, l_mgc, l_mlm)


# -- pretraining loop --------------------------------------------------------


@dataclass
class PretrainConfig:
    epochs: int = 5
    batch_size: int = 8
    lr_max: float = 1e-4
    lr_min: float = 1e-9
    clip_norm: float = 5.0
    mgc_ratio: float = 0.6
    mlm_ratio: float = 0.1
    weight_decay: float = 0.01
    seed: int = 0
    max_steps: int | None = None   # truncate for smoke runs


def load_manifest(path) -> List[dict]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


class ClipStore:
    """Caches WLFG videos and serves clip frame ranges."""

    def __init__(self, root, fps: float):
        self.root = Path(root)
        self.fps = fps
        self._cache: Dict[str, np.ndarray] = {}

    def video(self, video_id: str) -> np.ndarray:
        if video_id not in self._cache:
            self._cache[video_id] = read_frame_grid(self.root / f"{video_id}.wlfg")
        return self._cache[video_id]

    def clip(self, record: dict) -> np.ndarray:
        frames = self.video(record["video"])
        lo = int(round(record["start_s"] * self.fps))
        hi = max(lo + 1, int(round(record["end_s"] * self.fps)))
        return frames[lo:min(hi, len(frames))]


def pretrain(model: Stage1Model, manifest_path, clip_store: ClipStore,
             cfg: PretrainConfig, checkpoint_path, curve_path,
             lora_only: bool = False) -> List[dict]:
    """Train stage-1 on a clip manifest; writes checkpoint + loss-curve CSV.

    With lora_only=True only adapter parameters are updated (the caller is
    responsible for having attached and frozen appropriately).
    """
    records = load_manifest(manifest_path)
    if not records:
        raise ConfigError("manifest is empty")
    rng = SessionRng(cfg.seed)
    caption_ids = [model.vocab.encode(r["text"]) for r in records]

    steps_per_epoch = math.ceil(len(records) / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    if cfg.max_steps is not None:
        total_steps = min(total_steps, cfg.max_steps)
    if total_steps > 1:
        schedule = CosineWarmupSchedule(
            cfg.lr_max, cfg.lr_min,
            warmup_steps=min(steps_per_epoch, total_steps - 1),
            total_steps=total_steps)
    else:
        schedule = None  # single-step run: constant peak rate
    params = model.parameters()
    opt = AdamW(params, lr=cfg.lr_max, weight_decay=cfg.weight_decay)

    rows: List[dict] = []
    step = 0
    done = False
    for _ in range(cfg.epochs):
        if done:
            break
        order = rng.permutation(len(records))
        for start in range(0, len(records), cfg.batch_size):
            batch_idx = order[start:start + cfg.batch_size]
            clips = [clip_store.clip(records[i]) for i in batch_idx]
            ids = [caption_ids[i] for i in batch_idx]
            opt.zero_grad()
            report = valor_loss(model, clips, ids, rng,
                                mgc_ratio=cfg.mgc_ratio, mlm_ratio=cfg.mlm_ratio)
            report.total.backward()
            clip_global_norm(params, cfg.clip_norm)
            opt.lr = schedule.lr(step) if schedule else cfg.lr_max
            opt.step()
            rows.append({
                "step": step,
                "lr": opt.lr,
                "L_MGA": float(report.mga.data),
                "L_MGC": float(report.mgc.data),
                "L_MLM": float(report.mlm.data),
                "L_total": float(report.total.data),
            })
            step += 1
            if step >= total_steps:
                done = True
                break

    write_checkpoint(checkpoint_path, adapter_checkpoint(model) if lora_only
                     else model.state_dict())
    with open(curve_path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["step", "lr", "L_MGA", "L_MGC", "L_MLM", "L_total"])
        writer.writeheader()
        writer.writerows(rows)
    return rows
