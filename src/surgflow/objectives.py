"""Stage-1 training objectives (alignment, masked captioning, masked language
modeling), masking plans, and the pretraining loop."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, InputError, require_types
from .models import (CAPTION_PROMPT, MGA_PROMPT, Stage1Model, TextTokens,
                     VideoTokens)
from .optim import train
from .rng import SessionRng
from .serialization import read_frame_grid
from .timeline import frame_span


@dataclass
class MaskingPlan:
    """Masked positions per sample, with originals preserved for the loss."""
    positions: List[np.ndarray]        # per-sample masked index arrays
    original_ids: np.ndarray           # [B, N_t] pre-masking ids
    masked_ids: np.ndarray             # [B, N_t] with MASK substituted


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
    return MaskingPlan(positions, ids.copy(), masked)


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


def mga_loss(model: Stage1Model, text: TextTokens,
             video: VideoTokens) -> Tensor:
    """The batch-normalised contrastive loss that training runs."""
    e_t, w_t = model.head.pool_text(text)
    e_v, w_v = model.head.pool_video(video)
    s = similarity_matrix(e_t, w_t, text.pad_mask, e_v, w_v)
    return mga_loss_from_scores(s, model.head.tau, normalize_by_batch=True)


def _masked_token_nll(logits: Tensor, plan: MaskingPlan) -> Tensor:
    if not any(map(len, plan.positions)):
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


# the fraction of maskable caption tokens each masked objective hides
MGC_RATIO = 0.6
MLM_RATIO = 0.1


@dataclass
class Stage1Batch:
    """The token side of one stage-1 batch."""
    mga_ids: List[List[int]]           # MGA_PROMPT + caption, per sample
    pad: np.ndarray                    # [B, N_t] caption-side padding
    mgc: MaskingPlan
    mlm: MaskingPlan


def stage1_batch(model: Stage1Model, caption_ids: Sequence[Sequence[int]],
                 rng: SessionRng) -> Stage1Batch:
    """The alignment texts, and the captions (CAPTION_PROMPT + caption + EOS,
    padded) masked for MGC and then for MLM from `rng`, each plan choosing
    among `model.maskable` tokens at its ratio."""
    vocab = model.vocab
    mga_prompt = model.prompt_ids(MGA_PROMPT)
    cap_prompt = model.prompt_ids(CAPTION_PROMPT)
    ids, pad = model.pad_batch(
        [cap_prompt + list(c) + [vocab.eos_id] for c in caption_ids])
    maskable = model.maskable(ids, pad, len(cap_prompt))
    plan_mgc = make_masking_plan(ids, maskable, vocab.mask_id, MGC_RATIO, rng)
    plan_mlm = make_masking_plan(ids, maskable, vocab.mask_id, MLM_RATIO, rng)
    return Stage1Batch([mga_prompt + list(c) for c in caption_ids], pad,
                       plan_mgc, plan_mlm)


def valor_loss(model: Stage1Model, clips: Sequence[np.ndarray],
               caption_ids: Sequence[Sequence[int]],
               rng: SessionRng) -> ValorLossReport:
    """Mean of the three stage-1 objectives on one paired batch, whose token
    side is `stage1_batch(model, caption_ids, rng)`."""
    if len(clips) != len(caption_ids) or not clips:
        raise InputError("batch must be nonempty with index-aligned pairs")
    batch = stage1_batch(model, caption_ids, rng)
    video = model.encode_video_batch(clips)
    l_mga = mga_loss(model, model.encode_text_batch(batch.mga_ids), video)
    l_mgc = mgc_loss(model, batch.mgc, batch.pad, video)
    l_mlm = mlm_loss(model, batch.mlm, batch.pad, video)
    total = (l_mga + l_mgc + l_mlm) / 3.0
    return ValorLossReport(total, l_mga, l_mgc, l_mlm)


# -- pretraining loop --------------------------------------------------------


@dataclass
class PretrainConfig:
    epochs: int = 5
    batch_size: int = 8
    lr_max: float = 1e-4
    lr_min: float = 1e-9
    seed: int = 0
    max_steps: int | None = None   # truncate for smoke runs


def _jsonl(path):
    """(line number, JSON value) of each non-blank line of a JSONL file."""
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}:{number}: {exc}") from None
            yield number, value


def load_manifest(path) -> List[dict]:
    return [record for _, record in _jsonl(path)]


def load_clips(path) -> List[dict]:
    """The records of a clip manifest, each an object with string `video`
    and `text` and numeric `start_s` and `end_s`; otherwise an InputError
    naming the manifest line of the first record that is not."""
    kinds = {"video": "str", "text": "str", "start_s": "float",
             "end_s": "float"}
    return [require_types(f"{path}:{number}", record, kinds)
            for number, record in _jsonl(path)]


class ClipStore:
    """Caches frame grids (.wlfg) and serves clip frame ranges."""

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
        lo, hi = frame_span(record["start_s"], record["end_s"], self.fps,
                            len(frames))
        return frames[lo:hi]


def pretrain(model: Stage1Model, manifest_path, clip_store: ClipStore,
             cfg: PretrainConfig) -> List[dict]:
    """Train stage-1 on a clip manifest and return optim.train's rows, one
    per step; writes no file (pipeline's bundle savers do).

    Only parameters that require gradients are updated.  Raises
    NumericError naming the step when the loss or the pre-clip gradient
    norm is not finite.
    """
    records = load_clips(manifest_path)
    if not records:
        raise ConfigError("manifest is empty")
    rng = SessionRng(cfg.seed)
    caption_ids = [model.vocab.encode(r["text"]) for r in records]

    def loss_of(batch):
        report = valor_loss(model, [clip_store.clip(records[i]) for i in batch],
                            [caption_ids[i] for i in batch], rng)
        return report.total, {"L_MGA": float(report.mga.data),
                              "L_MGC": float(report.mgc.data),
                              "L_MLM": float(report.mlm.data),
                              "L_total": float(report.total.data)}

    return train(model.parameters(), len(records), cfg.batch_size, loss_of,
                 cfg, rng, cfg.max_steps)
