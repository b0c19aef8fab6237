"""Stage-1 video-language model: video encoder, text encoder, weight-shared
multimodal decoder, similarity head, and caption generation."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, InputError
from .nn import (LayerNorm, Linear, Module, MultiHeadAttention,
                 TransformerBlock, causal_mask)
from .rng import SessionRng
from .serialization import unit_frames
from .vocab import Vocabulary

MGA_PROMPT = "Project the inputs into common space"
CAPTION_PROMPT = "Describe the video with natural language"


def stage1_vocabulary(texts: Sequence[str]) -> Vocabulary:
    """The vocabulary of `texts` and both prompts."""
    return Vocabulary.build(list(texts) + [MGA_PROMPT, CAPTION_PROMPT])


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
    """Text-encoder output and its padding mask."""
    tokens: Tensor                 # [B, N_t, C] encoder output
    pad_mask: np.ndarray           # [B, N_t] True at padding


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
        return unit_frames(x.reshape(b, nv * g_h * g_w, ps * ps * ch))

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

    def embed(self, ids: np.ndarray, start: int = 0) -> Tensor:
        """[B, N_t] ids at positions start.. -> [B, N_t, C] embeddings."""
        n_t = start + ids.shape[1]
        if n_t > self.cfg.max_text_len:
            raise InputError(f"text length {n_t} exceeds max {self.cfg.max_text_len}")
        if ids.size and (ids.min() < 0 or ids.max() >= len(self._vocab)):
            raise InputError("token id outside vocabulary")
        emb = ad.embedding(self.token_embed, ids)
        return emb + self.pos_embed[start:n_t]

    def __call__(self, ids: np.ndarray, pad_mask: np.ndarray) -> Tensor:
        x = self.embed(ids)
        for block in self.blocks:
            x = block(x, key_pad=pad_mask)
        return self.ln_out(x)


@dataclass
class DecodeCache:
    """State of decoding against one video batch: per layer, the
    cross-attention keys and values of the video tokens, and the
    self-attention keys and values of the first `length` text positions,
    each [B, T, C] with the heads unsplit.  Every decode runs through one;
    a whole decode starts from an empty one."""
    video: list = field(default_factory=list)
    text: dict = field(default_factory=dict)
    length: int = 0

    def extend(self, layer: int, k: Tensor, v: Tensor) -> tuple:
        """Cached keys and values followed by (k, v), all kept."""
        if self.length:
            past_k, past_v = self.text[layer]
            k = ad.concat([past_k[:, :self.length], k], axis=1)
            v = ad.concat([past_v[:, :self.length], v], axis=1)
        self.text[layer] = (k, v)
        return k, v


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
                 video: VideoTokens, causal: bool,
                 cache: DecodeCache | None = None) -> tuple:
        """Returns (hidden [B, N_t, C], logits [B, N_t, vocab]).

        Without a cache, `ids` are decoded whole, padding masked, against an
        empty cache.  With one, `ids` are unpadded and continue the cache's
        `length` positions, attending to those through its keys and values,
        and only the last position is returned.  The video is projected into
        cross-attention keys and values on a cache's first call.
        """
        whole = cache is None
        if whole:
            cache = DecodeCache()
        elif pad_mask.any():
            raise InputError("cached decoding takes unpadded ids")
        if not cache.video:
            flat = video.flat
            cache.video = [c_attn.keys_values(flat) for c_attn in self.cross_attn]
        start, n_t = cache.length, ids.shape[1]
        x = self._text_encoder.embed(ids, start)
        mask = causal_mask(start + n_t)[start:] if causal else None
        key_pad = pad_mask if whole else None
        for i, (block, c_ln, c_attn) in enumerate(zip(
                self._text_encoder.blocks, self.cross_ln, self.cross_attn)):
            normed = block.ln1(x)
            kv = cache.extend(i, *block.attn.keys_values(normed))
            x = x + block.attn(normed, attn_mask=mask, key_pad=key_pad, kv=kv)
            x = x + c_attn(c_ln(x), kv=cache.video[i])
            x = x + block.ff(block.ln2(x))
        cache.length += n_t
        if not whole:
            x = x[:, -1:]
        hidden = self.ln_out(x)
        return hidden, self.to_logits(hidden)


class SimilarityHead(Module):
    """Projection to the contrastive space, learned token weighting, and
    a positive temperature stored as the exp of a free parameter."""

    def __init__(self, cfg: ModelConfig, rng: SessionRng):
        self.text_proj = Linear(cfg.dim, cfg.contrast_dim, rng)
        self.video_proj = Linear(cfg.dim, cfg.contrast_dim, rng)
        self.text_score = Linear(cfg.dim, 1, rng)
        self.video_score = Linear(cfg.dim, 1, rng)
        self.log_tau = Tensor(np.array([np.log(0.1)], np.float32),
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


class Stage1Model(Module):
    """The full short-range video-language model."""

    def __init__(self, cfg: ModelConfig, vocab: Vocabulary, rng: SessionRng):
        self.cfg = cfg = replace(cfg, vocab_size=len(vocab))
        self._vocab = vocab
        self.video_encoder = VideoEncoder(cfg, rng)
        self.text_encoder = TextEncoder(cfg, vocab, rng)
        self.decoder = MultimodalDecoder(cfg, self.text_encoder, len(vocab), rng)
        self.head = SimilarityHead(cfg, rng)

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

    def encode_text_batch(self, ids_list: Sequence[Sequence[int]]) -> TextTokens:
        ids, pad = self.pad_batch(ids_list)
        return TextTokens(self.text_encoder(ids, pad), pad)

    def maskable(self, ids: np.ndarray, pad: np.ndarray,
                 prompt_len: int) -> np.ndarray:
        """True where a token may be masked: not padding, not a reserved
        id, and not in the leading prompt."""
        flags = ~pad & ~np.isin(ids, sorted(self._vocab.reserved_ids))
        flags[:, :prompt_len] = False
        return flags

    def decode_multimodal(self, ids: np.ndarray, pad_mask: np.ndarray,
                          video: VideoTokens, causal: bool,
                          cache: DecodeCache | None = None) -> tuple:
        return self.decoder(ids, pad_mask, video, causal, cache)

    # -- generation ---------------------------------------------------------

    def generate_caption(self, video: VideoTokens, prompt_ids: Sequence[int],
                         max_len: int = 16) -> List[int]:
        """Greedy caption token ids (prompt excluded), decoded without a tape.

        Each step appends a MASK slot, decodes causally, and commits the
        predicted token, matching how masked slots are trained.  The K/V
        cache holds the positions before the MASK slot, so after prompt +
        MASK each step decodes only the committed token and a new MASK slot.
        """
        if max_len < 1:
            raise InputError("max_len must be >= 1")
        generated: List[int] = []
        mask_id = self._vocab.mask_id
        budget = self.cfg.max_text_len - len(prompt_ids) - 1
        cache = DecodeCache()
        step = list(prompt_ids)
        with ad.no_grad():
            for _ in range(min(max_len, budget)):
                ids = np.asarray([step + [mask_id]], np.int64)
                _, logits = self.decode_multimodal(
                    ids, np.zeros_like(ids, bool), video, True, cache)
                cache.length -= 1  # the MASK slot is decoded again next step
                nxt = int(np.argmax(logits.data[0, -1]))
                if nxt == self._vocab.eos_id:
                    break
                generated.append(nxt)
                step = [nxt]
        return generated

    # -- prompts ------------------------------------------------------------

    def prompt_ids(self, prompt: str) -> List[int]:
        return self._vocab.encode(prompt, strict=True)
