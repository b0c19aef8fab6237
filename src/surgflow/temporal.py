"""Long-range temporal models over per-clip feature sequences: an MS-TCN++
style multi-stage network, an ASFormer-style encoder-decoder, and their
training losses."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, InputError
from .nn import Module, MultiHeadAttention
from .optim import train
from .rng import SessionRng


@dataclass
class FeatureSequence:
    """Per-video [L, D] feature rows in temporal order at 1-second clips."""
    features: np.ndarray
    video_id: str = ""

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise InputError("features must be a nonempty [L, D] matrix")


@dataclass
class FramePrediction:
    logits: np.ndarray               # [L, K]

    @property
    def labels(self) -> np.ndarray:
        return self.logits.argmax(axis=1)


class Conv1d(Module):
    def __init__(self, k: int, c_in: int, c_out: int, dilation: int,
                 rng: SessionRng):
        scale = 1.0 / np.sqrt(k * c_in)
        self.kernel = Tensor(rng.normal(scale, (k, c_in, c_out)), requires_grad=True)
        self.bias = Tensor(np.zeros(c_out, np.float32), requires_grad=True)
        self.dilation = dilation

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv1d(x, self.kernel, self.bias, self.dilation)


class DilatedResidualLayer(Module):
    def __init__(self, dim: int, dilation: int, rng: SessionRng):
        self.conv = Conv1d(3, dim, dim, dilation, rng)
        self.out = Conv1d(1, dim, dim, 1, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return x + self.out(ad.relu(self.conv(x)))


@dataclass
class TemporalConfig:
    num_classes: int = 6
    feature_dim: int = 64
    hidden: int = 64
    tcn_layers: int = 4          # dilations 1,2,4,8; span stays <= 25
    tcn_refinements: int = 3
    asf_encoder_layers: int = 9
    asf_decoder_layers: int = 3
    smoothing_weight: float = 0.15
    smoothing_clamp: float = 16.0
    max_dilation: int = 12       # keeps the effective kernel span <= 25

    def dilation(self, i: int) -> int:
        return min(2 ** i, self.max_dilation)


class PredictionStage(Module):
    """Dual-dilated prediction stage of MS-TCN++."""

    def __init__(self, cfg: TemporalConfig, rng: SessionRng):
        self.conv_in = Conv1d(1, cfg.feature_dim, cfg.hidden, 1, rng)
        n = cfg.tcn_layers
        self.up = [Conv1d(3, cfg.hidden, cfg.hidden, cfg.dilation(i), rng)
                   for i in range(n)]
        self.down = [Conv1d(3, cfg.hidden, cfg.hidden, cfg.dilation(n - 1 - i), rng)
                     for i in range(n)]
        self.fuse = [Conv1d(1, 2 * cfg.hidden, cfg.hidden, 1, rng)
                     for _ in range(n)]
        self.conv_out = Conv1d(1, cfg.hidden, cfg.num_classes, 1, rng)

    def __call__(self, x: Tensor) -> Tensor:
        f = self.conv_in(x)
        for up, down, fuse in zip(self.up, self.down, self.fuse):
            merged = ad.concat([up(f), down(f)], axis=1)
            f = f + ad.relu(fuse(merged))
        return self.conv_out(f)


class RefinementStage(Module):
    def __init__(self, cfg: TemporalConfig, rng: SessionRng):
        self.conv_in = Conv1d(1, cfg.num_classes, cfg.hidden, 1, rng)
        self.layers = [DilatedResidualLayer(cfg.hidden, cfg.dilation(i), rng)
                       for i in range(cfg.tcn_layers)]
        self.conv_out = Conv1d(1, cfg.hidden, cfg.num_classes, 1, rng)

    def __call__(self, probs: Tensor) -> Tensor:
        f = self.conv_in(probs)
        for layer in self.layers:
            f = layer(f)
        return self.conv_out(f)


class TemporalModel(Module):
    """A stage-2 model: per-stage frame logits over a [L, D] feature table.

    Subclasses set `variant` (the stage2_loss variant) and define `forward`.
    """

    variant: str

    def __init__(self, cfg: TemporalConfig):
        self.cfg = cfg

    def __call__(self, seq: FeatureSequence) -> List[FramePrediction]:
        return [FramePrediction(t.data.copy()) for t in self.forward(seq.features)]


class MSTCN(TemporalModel):
    """Prediction stage plus refinement stages consuming previous softmax."""

    variant = "tcn"

    def __init__(self, cfg: TemporalConfig, rng: SessionRng):
        super().__init__(cfg)
        self.prediction = PredictionStage(cfg, rng)
        self.refinements = [RefinementStage(cfg, rng)
                            for _ in range(cfg.tcn_refinements)]

    def forward(self, features: np.ndarray) -> List[Tensor]:
        x = Tensor(np.asarray(features, np.float32))
        out = self.prediction(x)
        outputs = [out]
        for stage in self.refinements:
            out = stage(ad.softmax(out, axis=1))
            outputs.append(out)
        return outputs


class WindowedSelfAttention(Module):
    """Self-attention inside non-overlapping windows of fixed size."""

    def __init__(self, dim: int, window: int, rng: SessionRng):
        self.attn = MultiHeadAttention(dim, 1, rng)
        self.window = window

    def __call__(self, x: Tensor) -> Tensor:
        t, c = x.shape
        w = min(self.window, t)
        padded_len = math.ceil(t / w) * w
        pad_n = padded_len - t
        xp = ad.pad(x, ((0, pad_n), (0, 0))) if pad_n else x
        chunks = ad.reshape(xp, (padded_len // w, w, c))
        key_pad = None  # windows that tile the sequence mask no key
        if pad_n:
            key_pad = np.zeros((padded_len // w, w), bool)
            key_pad[-1, w - pad_n:] = True
        out = self.attn(chunks, chunks, key_pad=key_pad)
        out = ad.reshape(out, (padded_len, c))
        return out[:t] if pad_n else out


class AsfEncoderLayer(Module):
    """Dilated-conv feed-forward followed by windowed self-attention."""

    def __init__(self, cfg: TemporalConfig, layer: int, rng: SessionRng):
        self.conv = Conv1d(3, cfg.hidden, cfg.hidden, cfg.dilation(layer), rng)
        self.attn = WindowedSelfAttention(cfg.hidden, 2 ** layer, rng)

    def __call__(self, x: Tensor) -> Tensor:
        f = ad.relu(self.conv(x))
        return x + self.attn(f)


class AsfDecoderLayer(Module):
    """Refines via cross-attention from decoder features to encoder output."""

    def __init__(self, cfg: TemporalConfig, layer: int, rng: SessionRng):
        self.conv = Conv1d(3, cfg.hidden, cfg.hidden, cfg.dilation(layer), rng)
        self.attn = MultiHeadAttention(cfg.hidden, 1, rng)

    def __call__(self, x: Tensor, memory: Tensor) -> Tensor:
        f = ad.relu(self.conv(x))
        t, c = f.shape
        q = ad.reshape(f, (1, t, c))
        kv = ad.reshape(memory, (1, memory.shape[0], c))
        return x + ad.reshape(self.attn(q, kv), (t, c))


class ASFormer(TemporalModel):
    """Encoder-decoder temporal transformer with dilated convolutions."""

    variant = "asformer"

    def __init__(self, cfg: TemporalConfig, rng: SessionRng):
        super().__init__(cfg)
        self.embed = Conv1d(1, cfg.feature_dim, cfg.hidden, 1, rng)
        self.encoder = [AsfEncoderLayer(cfg, i, rng)
                        for i in range(cfg.asf_encoder_layers)]
        self.enc_out = Conv1d(1, cfg.hidden, cfg.num_classes, 1, rng)
        self.dec_embed = [Conv1d(1, cfg.num_classes, cfg.hidden, 1, rng)
                          for _ in range(cfg.asf_decoder_layers)]
        self.decoders = [AsfDecoderLayer(cfg, i, rng)
                         for i in range(cfg.asf_decoder_layers)]
        self.dec_out = [Conv1d(1, cfg.hidden, cfg.num_classes, 1, rng)
                        for _ in range(cfg.asf_decoder_layers)]

    def forward(self, features: np.ndarray) -> List[Tensor]:
        x = self.embed(Tensor(np.asarray(features, np.float32)))
        for layer in self.encoder:
            x = layer(x)
        out = self.enc_out(x)
        outputs = [out]
        for emb, dec, head in zip(self.dec_embed, self.decoders, self.dec_out):
            f = emb(ad.softmax(out, axis=1))
            f = dec(f, x)
            out = head(f)
            outputs.append(out)
        return outputs


def build_temporal_model(variant: str, cfg: TemporalConfig,
                         rng: SessionRng) -> TemporalModel:
    if variant == "tcn":
        return MSTCN(cfg, rng)
    if variant == "asformer":
        return ASFormer(cfg, rng)
    raise ConfigError(f"unknown temporal variant: {variant}")


# -- losses ------------------------------------------------------------------


def soft_dice(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Macro-averaged soft dice over all classes; 0 iff prediction equals
    the one-hot ground truth on the simplex."""
    length, k = logits.shape
    probs = ad.softmax(logits, axis=1)
    onehot = np.zeros((length, k), np.float32)
    onehot[np.arange(length), labels] = 1.0
    y = Tensor(onehot)
    inter = ad.reduce_sum(probs * y, axis=0)
    denom = ad.reduce_sum(probs, axis=0) + ad.reduce_sum(y, axis=0)
    dice = 1.0 - (2.0 * inter + 1e-6) / (denom + 1e-6)
    return ad.reduce_mean(dice)


def stage2_loss(outputs: Sequence[Tensor], labels: np.ndarray, variant: str,
                cfg: TemporalConfig,
                prev: Sequence[np.ndarray] | None = None) -> Tensor:
    """TCN: summed frame-wise CE plus truncated-MSE smoothing
    (`autodiff.truncated_mse`), whose previous frame is detached, as in the
    cited formulation.  ASFormer: summed equally weighted CE and soft dice.

    `prev` holds one fixed previous-frame log-probability array per stage
    for the TCN smoothing term, in place of the one taken from the logits.
    """
    labels = np.asarray(labels)
    prev = [None] * len(outputs) if prev is None else prev
    total = None
    for logits, stage_prev in zip(outputs, prev, strict=True):
        if logits.shape[0] != len(labels):
            raise InputError("prediction/label length mismatch")
        ce = ad.cross_entropy(logits, labels)
        if variant == "tcn":
            term = ce + cfg.smoothing_weight * ad.truncated_mse(
                logits, cfg.smoothing_clamp, stage_prev)
        elif variant == "asformer":
            term = 0.5 * ce + 0.5 * soft_dice(logits, labels)
        else:
            raise ConfigError(f"unknown temporal variant: {variant}")
        total = term if total is None else total + term
    return total


# -- training ----------------------------------------------------------------


@dataclass
class TrainTemporalConfig:
    epochs: int = 150
    lr_max: float = 1e-3
    lr_min: float = 1e-7
    seed: int = 0


def train_temporal(model: TemporalModel, dataset: Sequence[tuple],
                   cfg: TrainTemporalConfig) -> List[float]:
    """Train on (FeatureSequence, labels) pairs, one full video per batch.

    Returns the per-epoch mean loss curve.  Raises NumericError naming the
    step when the loss or the pre-clip gradient norm is not finite.
    """
    if not dataset:
        raise ConfigError("empty training dataset")
    for seq, labels in dataset:
        if seq.features.shape[0] != len(labels):
            raise InputError(
                f"{seq.video_id}: {seq.features.shape[0]} features vs "
                f"{len(labels)} labels")
    n = len(dataset)

    def loss_of(batch):
        seq, labels = dataset[batch[0]]
        loss = stage2_loss(model.forward(seq.features), labels, model.variant,
                           model.cfg)
        return loss, {"loss": float(loss.data)}

    rows = train(model.parameters(), n, 1, loss_of, cfg, SessionRng(cfg.seed))
    return [float(np.mean([r["loss"] for r in rows[i:i + n]]))
            for i in range(0, len(rows), n)]
