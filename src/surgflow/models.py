"""Stage-1 video-language model: video encoder, text encoder, weight-shared
multimodal decoder, similarity head, and caption generation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, InputError
from .nn import (LayerNorm, Linear, Module, MultiHeadAttention,
                 TransformerBlock, causal_mask)
from .rng import SessionRng
from .vocab import Vocabulary

MGA_PROMPT = "Project the inputs into common space"
CAPTION_PROMPT = "Describe the video with natural language"


@dataclass
class ModelConfig:
    dim: int = 64                 # shared hidden dim for both encoders
    n_layers: int = 2             # text/video encoder depth (decoder shares it)
    n_heads: int = 4
    ff_mult: int = 2
    n_frames: int = 8             # frames sampled per clip
    frame_size: int = 32
    patch_size: int = 8
    max_text_len: int = 24
    contrast_dim: int = 32
    vocab_size: int = 0           # set from the vocabulary

    def __post_init__(self):
        if self.dim % self.n_heads:
            raise ConfigError("dim must be divisible by n_heads")
        if self.frame_size % self.patch_size:
            raise ConfigError("frame size must be divisible by patch size")

    @property
    def grid(self) -> int:
        return self.frame_size // self.patch_size

    @property
    def spatial_tokens(self) -> int:
        return self.grid * self.grid


@dataclass
class VideoTokens:
    """Encoder output for a batch of clips: [B, N_v, S_v, C]."""
    tokens: Tensor

    @property
    def flat(self) -> Tensor:
        b, nv, sv, c = self.tokens.shape
        return ad.reshape(self.tokens, (b, nv * sv, c))


@dataclass
class TextTokens:
    """Text-encoder output plus bookkeeping for masking and padding."""
    tokens: Tensor                 # [B, N_t, C] encoder output
    ids: np.ndarray                # [B, N_t] token ids (pad-filled)
    pad_mask: np.ndarray           # [B, N_t] True at padding
    prompt_len: int
    mask_flags: np.ndarray = field(default=None)  # [B, N_t] True where maskable

    @property
    def length(self) -> int:
        return self.ids.shape[1]


def uniform_sample_indices(n_frames: int, n_sample: int) -> np.ndarray:
    """Uniform inclusive sampling: floor of linspace over [0, n_frames-1].

    Shorter clips yield repeated indices.
    """
    if n_frames < 1:
        raise InputError("clip must contain at least one frame")
    return np.floor(np.linspace(0.0, n_frames - 1, n_sample)).astype(np.int64)


class VideoEncoder(Module):
    """Per-frame patch embedding + joint space-time transformer blocks."""

    def __init__(self, cfg: ModelConfig, rng: SessionRng):
        self.cfg = cfg
        patch_dim = cfg.patch_size * cfg.patch_size * 3
        self.patch_embed = Linear(patch_dim, cfg.dim, rng)
        self.time_pos = Tensor(rng.normal(0.02, (cfg.n_frames, 1, cfg.dim)),
                               requires_grad=True)
        self.space_pos = Tensor(rng.normal(0.02, (1, cfg.spatial_tokens, cfg.dim)),
                                requires_grad=True)
        self.blocks = [TransformerBlock(cfg.dim, cfg.n_heads, cfg.ff_mult, rng)
                       for _ in range(cfg.n_layers)]
        self.ln_out = LayerNorm(cfg.dim)

    def patches(self, frames: np.ndarray) -> np.ndarray:
        """[B, N_v, H, W, 3] -> [B, N_v * S_v, patch_dim]."""
        b, nv, hgt, wid, ch = frames.shape
        ps = self.cfg.patch_size
        if hgt % ps or wid % ps:
            raise InputError("spatial dims must be divisible by patch size")
        g_h, g_w = hgt // ps, wid // ps
        x = frames.reshape(b, nv, g_h, ps, g_w, ps, ch)
        x = x.transpose(0, 1, 2, 4, 3, 5, 6)
        return x.reshape(b, nv * g_h * g_w, ps * ps * ch).astype(np.float32)

    def __call__(self, frames: np.ndarray) -> VideoTokens:
        """frames: [B, N_v, H, W, 3] already sampled to N_v."""
        b, nv = frames.shape[:2]
        cfg = self.cfg
        x = self.patch_embed(Tensor(self.patches(frames)))
        x = ad.reshape(x, (b, nv, cfg.spatial_tokens, cfg.dim))
        x = x + ad.reshape(self.time_pos + self.space_pos,
                           (1, nv, cfg.spatial_tokens, cfg.dim))
        x = ad.reshape(x, (b, nv * cfg.spatial_tokens, cfg.dim))
        for block in self.blocks:
            x = block(x)
        x = self.ln_out(x)
        return VideoTokens(ad.reshape(x, (b, nv, cfg.spatial_tokens, cfg.dim)))


class TextEncoder(Module):
    """Token + position embeddings followed by bidirectional blocks."""

    def __init__(self, cfg: ModelConfig, vocab: Vocabulary, rng: SessionRng):
        self.cfg = cfg
        self._vocab = vocab
        self.token_embed = Tensor(rng.normal(0.02, (len(vocab), cfg.dim)),
                                  requires_grad=True)
        self.pos_embed = Tensor(rng.normal(0.02, (cfg.max_text_len, cfg.dim)),
                                requires_grad=True)
        self.blocks = [TransformerBlock(cfg.dim, cfg.n_heads, cfg.ff_mult, rng)
                       for _ in range(cfg.n_layers)]
        self.ln_out = LayerNorm(cfg.dim)

    def embed(self, ids: np.ndarray) -> Tensor:
        """[B, N_t] ids -> [B, N_t, C] embeddings with positions added."""
        n_t = ids.shape[1]
        if n_t > self.cfg.max_text_len:
            raise InputError(f"text length {n_t} exceeds max {self.cfg.max_text_len}")
        if ids.size and (ids.min() < 0 or ids.max() >= len(self._vocab)):
            raise InputError("token id outside vocabulary")
        emb = ad.embedding(self.token_embed, ids)
        return emb + self.pos_embed[:n_t]

    def __call__(self, ids: np.ndarray, pad_mask: np.ndarray) -> Tensor:
        x = self.embed(ids)
        for block in self.blocks:
            x = block(x, key_pad=pad_mask)
        return self.ln_out(x)


class MultimodalDecoder(Module):
    """Decoder sharing self-attention/FFN weights with the text encoder,
    with dedicated cross-attention into video tokens."""

    def __init__(self, cfg: ModelConfig, text_encoder: TextEncoder,
                 vocab_size: int, rng: SessionRng):
        self.cfg = cfg
        self._text_encoder = text_encoder  # shared weights, not re-registered
        self.cross_ln = [LayerNorm(cfg.dim) for _ in range(cfg.n_layers)]
        self.cross_attn = [MultiHeadAttention(cfg.dim, cfg.n_heads, rng)
                           for _ in range(cfg.n_layers)]
        self.ln_out = LayerNorm(cfg.dim)
        self.to_logits = Linear(cfg.dim, vocab_size, rng)

    def __call__(self, ids: np.ndarray, pad_mask: np.ndarray,
                 video: VideoTokens, causal: bool) -> tuple:
        """Returns (hidden [B, N_t, C], logits [B, N_t, vocab])."""
        x = self._text_encoder.embed(ids)
        n_t = ids.shape[1]
        mask = causal_mask(n_t) if causal else None
        vid = video.flat
        for block, c_ln, c_attn in zip(self._text_encoder.blocks,
                                       self.cross_ln, self.cross_attn):
            normed = block.ln1(x)
            x = x + block.attn(normed, normed, attn_mask=mask, key_pad=pad_mask)
            x = x + c_attn(c_ln(x), vid)
            x = x + block.ff(block.ln2(x))
        hidden = self.ln_out(x)
        return hidden, self.to_logits(hidden)


class SimilarityHead(Module):
    """Projection to the contrastive space, learned token weighting, and
    a positive temperature stored as the exp of a free parameter."""

    def __init__(self, cfg: ModelConfig, rng: SessionRng, init_tau: float = 0.1):
        self.text_proj = Linear(cfg.dim, cfg.contrast_dim, rng)
        self.video_proj = Linear(cfg.dim, cfg.contrast_dim, rng)
        self.text_score = Linear(cfg.dim, 1, rng)
        self.video_score = Linear(cfg.dim, 1, rng)
        self.log_tau = Tensor(np.array([np.log(init_tau)], np.float32),
                              requires_grad=True)

    @property
    def tau(self) -> Tensor:
        return ad.exp(self.log_tau)

    def pool(self, tokens: Tensor, proj: Linear, score: Linear,
             pad_mask: np.ndarray | None = None) -> tuple:
        """Project tokens, L2-normalize each, and softmax-score weights.

        tokens [B, N, C] -> (unit embeddings [B, N, d], weights [B, N]).
        """
        emb = proj(tokens)
        norm = ad.power(ad.reduce_sum(emb * emb, axis=-1, keepdims=True) + 1e-12, 0.5)
        unit = emb / norm
        scores = ad.reshape(score(tokens), tokens.shape[:2])
        if pad_mask is not None:
            scores = scores + Tensor(np.where(pad_mask, -1e9, 0.0).astype(np.float32))
        return unit, ad.softmax(scores, axis=-1)

    def pool_text(self, text: TextTokens) -> tuple:
        return self.pool(text.tokens, self.text_proj, self.text_score, text.pad_mask)

    def pool_video(self, video: VideoTokens) -> tuple:
        return self.pool(video.flat, self.video_proj, self.video_score)


class Bridge(Module):
    """Pooling bridge from per-clip token sequences to one feature vector.

    Strided average pooling over the token axis, global mean, then a 1x1
    convolution (a linear map) with ReLU.  Constant token inputs map to
    the same output regardless of token count.
    """

    def __init__(self, dim_in: int, dim_out: int, rng: SessionRng,
                 pool_stride: int = 2):
        self.proj = Linear(dim_in, dim_out, rng)
        self.pool_stride = pool_stride

    def __call__(self, tokens: Tensor) -> Tensor:
        """tokens [B, N, C] -> features [B, dim_out]."""
        b, n, c = tokens.shape
        stride = self.pool_stride
        pooled = []
        for start in range(0, n, stride):
            window = tokens[:, start:start + stride]
            pooled.append(ad.reduce_mean(window, axis=1))
        stacked = ad.stack(pooled, axis=1)          # [B, ceil(N/stride), C]
        summary = ad.reduce_mean(stacked, axis=1)   # [B, C]
        return ad.relu(self.proj(summary))


class Stage1Model(Module):
    """The full short-range video-language model."""

    def __init__(self, cfg: ModelConfig, vocab: Vocabulary, rng: SessionRng,
                 feature_dim: int = 64):
        cfg.vocab_size = len(vocab)
        self.cfg = cfg
        self._vocab = vocab
        self.video_encoder = VideoEncoder(cfg, rng)
        self.text_encoder = TextEncoder(cfg, vocab, rng)
        self.decoder = MultimodalDecoder(cfg, self.text_encoder, len(vocab), rng)
        self.head = SimilarityHead(cfg, rng)
        self.bridge = Bridge(cfg.dim, feature_dim, rng)

    @property
    def vocab(self) -> Vocabulary:
        return self._vocab

    # -- encoding -----------------------------------------------------------

    def sample_clip(self, frames: np.ndarray) -> np.ndarray:
        """[T, H, W, 3] -> [N_v, H, W, 3] by uniform inclusive sampling."""
        if frames.ndim != 4 or frames.shape[0] < 1:
            raise InputError("clip must be a nonempty [T, H, W, C] grid")
        idx = uniform_sample_indices(frames.shape[0], self.cfg.n_frames)
        return frames[idx]

    def encode_video_batch(self, clips: Sequence[np.ndarray]) -> VideoTokens:
        sampled = np.stack([self.sample_clip(c) for c in clips])
        return self.video_encoder(sampled)

    def encode_video(self, clip: np.ndarray) -> VideoTokens:
        return self.encode_video_batch([clip])

    def pad_batch(self, ids_list: Sequence[Sequence[int]]) -> tuple:
        n_t = max(len(ids) for ids in ids_list)
        batch = np.full((len(ids_list), n_t), self._vocab.pad_id, np.int64)
        pad = np.ones((len(ids_list), n_t), bool)
        for i, ids in enumerate(ids_list):
            batch[i, :len(ids)] = ids
            pad[i, :len(ids)] = False
        return batch, pad

    def encode_text_batch(self, ids_list: Sequence[Sequence[int]],
                          prompt_len: int) -> TextTokens:
        ids, pad = self.pad_batch(ids_list)
        tokens = self.text_encoder(ids, pad)
        return TextTokens(tokens, ids, pad, prompt_len,
                          self.maskable(ids, pad, prompt_len))

    def maskable(self, ids: np.ndarray, pad: np.ndarray,
                 prompt_len: int) -> np.ndarray:
        """True where a token may be masked: not padding, not a reserved
        id, and not in the leading prompt."""
        flags = ~pad & ~np.isin(ids, sorted(self._vocab.reserved_ids))
        flags[:, :prompt_len] = False
        return flags

    def decode_multimodal(self, ids: np.ndarray, pad_mask: np.ndarray,
                          video: VideoTokens, causal: bool) -> tuple:
        return self.decoder(ids, pad_mask, video, causal)

    # -- generation ---------------------------------------------------------

    def generate_caption(self, video: VideoTokens, prompt_ids: Sequence[int],
                         max_len: int = 16, mode: str = "greedy",
                         temperature: float = 1.0,
                         rng: SessionRng | None = None) -> List[int]:
        """Autoregressive caption token ids (prompt excluded from output).

        Each step appends a MASK slot, decodes causally, and commits the
        predicted token, matching how masked slots are trained.
        """
        if max_len < 1:
            raise InputError("max_len must be >= 1")
        if mode not in ("greedy", "sample"):
            raise ConfigError(f"unknown generation mode: {mode}")
        if mode == "sample" and rng is None:
            raise ConfigError("sampling mode requires an rng")
        generated: List[int] = []
        mask_id = self._vocab.mask_id
        budget = self.cfg.max_text_len - len(prompt_ids) - 1
        for _ in range(min(max_len, budget)):
            seq = list(prompt_ids) + generated + [mask_id]
            ids = np.asarray([seq], np.int64)
            pad = np.zeros_like(ids, bool)
            _, logits = self.decode_multimodal(ids, pad, video, causal=True)
            row = logits.data[0, -1]
            if mode == "greedy":
                nxt = int(np.argmax(row))
            else:
                z = row / temperature
                z = z - z.max()
                p = np.exp(z) / np.exp(z).sum()
                nxt = min(int(np.searchsorted(np.cumsum(p), rng.uniform(0.0, 1.0))),
                          len(p) - 1)
            if nxt == self._vocab.eos_id:
                break
            generated.append(nxt)
        return generated

    # -- prompts ------------------------------------------------------------

    def prompt_ids(self, prompt: str) -> List[int]:
        return self._vocab.encode(prompt, strict=True)
