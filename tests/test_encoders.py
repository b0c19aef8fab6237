"""Video/text encoders, the shared multimodal decoder, similarity head
pooling, caption generation, and the seeded initial weights."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import TINY_TEXTS, make_tiny_model, tiny_clips
from oracles import reference_decode, uncached_generate
from surgflow import autodiff as ad
from surgflow.autodiff import Tensor
from surgflow.errors import ConfigError, InputError
from surgflow.models import (CAPTION_PROMPT, MGA_PROMPT, DecodeCache,
                             ModelConfig, Stage1Model, VideoTokens,
                             uniform_sample_indices)
from surgflow.nn import MultiHeadAttention, causal_mask
from surgflow.rng import SessionRng
from surgflow.vocab import Vocabulary


class TestFrameSampling:
    def test_40_to_8(self):
        idx = uniform_sample_indices(40, 8)
        assert idx.tolist() == [0, 5, 11, 16, 22, 27, 33, 39]

    def test_single_frame_repeats(self):
        assert uniform_sample_indices(1, 4).tolist() == [0, 0, 0, 0]

    def test_endpoints_inclusive(self):
        rng = SessionRng(0)
        for _ in range(50):
            n = int(rng.integers(1, 100))
            k = int(rng.integers(2, 16))
            idx = uniform_sample_indices(n, k)
            assert idx[0] == 0 and idx[-1] == n - 1
            assert np.all(np.diff(idx) >= 0)
            assert np.all((idx >= 0) & (idx < n))

    def test_empty_clip_rejected(self):
        with pytest.raises(InputError):
            uniform_sample_indices(0, 4)


class TestModelConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(dim=10, n_heads=4)

    def test_patch_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(frame_size=30, patch_size=8)

    def test_token_counts(self):
        cfg = ModelConfig(frame_size=32, patch_size=8)
        assert cfg.grid == 4 and cfg.spatial_tokens == 16

    def test_models_built_from_one_config_keep_their_vocab_size(self):
        """Each model records its own vocabulary's size; the caller's
        config is left as it was."""
        cfg = ModelConfig(dim=8, n_layers=1, n_heads=2, ff_mult=2,
                          n_frames=2, frame_size=8, patch_size=4,
                          max_text_len=16, contrast_dim=4)
        small = Stage1Model(cfg, Vocabulary.build(["a"]), SessionRng(0))
        large = Stage1Model(cfg, Vocabulary.build(TINY_TEXTS), SessionRng(0))
        assert cfg.vocab_size == 0
        assert small.cfg.vocab_size == len(small.vocab)
        assert large.cfg.vocab_size == len(large.vocab) > len(small.vocab)


class TestVideoEncoder:
    def test_token_shape(self, tiny_model):
        video = tiny_model.encode_video_batch(tiny_clips(SessionRng(1), 2))
        cfg = tiny_model.cfg
        assert video.tokens.shape == (2, cfg.n_frames, cfg.spatial_tokens, cfg.dim)
        assert video.flat.shape == (2, cfg.n_frames * cfg.spatial_tokens, cfg.dim)

    def test_patch_extraction_partitions_pixels(self, tiny_model):
        frames = SessionRng(2).uniform(0, 1, (1, 2, 8, 8, 3))
        patches = tiny_model.video_encoder.patches(frames)
        assert patches.shape == (1, 2 * 4, 4 * 4 * 3)
        # first patch is the top-left 4x4 block of frame 0, row-major
        expect = frames[0, 0, :4, :4, :].reshape(-1)
        np.testing.assert_allclose(patches[0, 0], expect)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_frames=st.integers(1, 3))
    def test_levels_patch_like_their_float_twin(self, seed, n_frames):
        """A uint8 clip and its float32 k / 255 twin give the same patch
        bytes: the encoder reads levels by the one conversion rule."""
        levels = SessionRng(seed).integers(0, 256, (1, n_frames, 8, 8, 3))
        levels = levels.astype(np.uint8)
        encoder = make_tiny_model().video_encoder
        got = encoder.patches(levels)
        want = encoder.patches(levels.astype(np.float32) / np.float32(255))
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()

    def test_batch_order_independence(self, tiny_model):
        clips = tiny_clips(SessionRng(3), 2)
        fwd = tiny_model.encode_video_batch(clips).tokens.data
        rev = tiny_model.encode_video_batch(clips[::-1]).tokens.data
        np.testing.assert_allclose(fwd[0], rev[1], atol=1e-5)

    def test_bad_clip_shape(self, tiny_model):
        with pytest.raises(InputError):
            tiny_model.sample_clip(np.zeros((8, 8, 3), np.float32))


class TestTextEncoder:
    def test_length_limit(self, tiny_model):
        too_long = np.zeros((1, tiny_model.cfg.max_text_len + 1), np.int64)
        with pytest.raises(InputError):
            tiny_model.text_encoder.embed(too_long)

    def test_id_range_checked(self, tiny_model):
        bad = np.array([[len(tiny_model.vocab)]], np.int64)
        with pytest.raises(InputError):
            tiny_model.text_encoder.embed(bad)

    def test_maskable_excludes_prompt_and_reserved(self, tiny_model):
        vocab = tiny_model.vocab
        prompt = tiny_model.prompt_ids(CAPTION_PROMPT)
        ids = vocab.encode(TINY_TEXTS[0]) + [vocab.eos_id]
        batch, pad = tiny_model.pad_batch([prompt + ids])
        flags = tiny_model.maskable(batch, pad, len(prompt))[0]
        assert not flags[:len(prompt)].any()
        eos_pos = len(prompt) + len(ids) - 1
        assert not flags[eos_pos]
        assert flags[len(prompt):eos_pos].all()

    def test_padding_isolated(self, tiny_model):
        # a sample's encoding must not depend on how much its batch is padded
        a = tiny_model.prompt_ids(MGA_PROMPT)[:4]
        alone = tiny_model.encode_text_batch([a]).tokens.data[0]
        padded = tiny_model.encode_text_batch([a, a + a]).tokens.data[0]
        np.testing.assert_allclose(alone, padded[:4], atol=1e-5)


class TestDecoder:
    def setup_inputs(self, model, seed=4):
        video = model.encode_video_batch(tiny_clips(SessionRng(seed), 1))
        ids = np.array([model.prompt_ids(CAPTION_PROMPT)[:6]], np.int64)
        pad = np.zeros_like(ids, bool)
        return ids, pad, video

    def test_causal_future_perturbation_is_invisible(self, tiny_model):
        ids, pad, video = self.setup_inputs(tiny_model)
        _, logits = tiny_model.decode_multimodal(ids, pad, video, causal=True)
        changed = ids.copy()
        changed[0, -1] = tiny_model.vocab.mask_id
        _, logits2 = tiny_model.decode_multimodal(changed, pad, video, causal=True)
        np.testing.assert_allclose(logits.data[0, :-1], logits2.data[0, :-1],
                                   atol=1e-6)
        assert not np.allclose(logits.data[0, -1], logits2.data[0, -1])

    def test_bidirectional_sees_future(self, tiny_model):
        ids, pad, video = self.setup_inputs(tiny_model)
        _, logits = tiny_model.decode_multimodal(ids, pad, video, causal=False)
        changed = ids.copy()
        changed[0, -1] = tiny_model.vocab.mask_id
        _, logits2 = tiny_model.decode_multimodal(changed, pad, video, causal=False)
        assert not np.allclose(logits.data[0, 0], logits2.data[0, 0])

    def test_video_conditioning_matters(self, tiny_model):
        ids, pad, video = self.setup_inputs(tiny_model)
        other = tiny_model.encode_video_batch(tiny_clips(SessionRng(5), 1))
        _, a = tiny_model.decode_multimodal(ids, pad, video, causal=True)
        _, b = tiny_model.decode_multimodal(ids, pad, other, causal=True)
        assert not np.allclose(a.data, b.data)

    def test_weight_sharing_with_text_encoder(self, tiny_model):
        # the decoder's self-attention blocks ARE the text encoder's blocks
        assert tiny_model.decoder._text_encoder is tiny_model.text_encoder
        names = tiny_model.parameters()
        assert not any(n.startswith("decoder.blocks") for n in names)
        ids, pad, video = self.setup_inputs(tiny_model)
        _, before = tiny_model.decode_multimodal(ids, pad, video, causal=True)
        block = tiny_model.text_encoder.blocks[0]
        block.attn.w_q.weight.data = block.attn.w_q.weight.data + 0.5
        _, after = tiny_model.decode_multimodal(ids, pad, video, causal=True)
        assert not np.allclose(before.data, after.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(n_layers=st.integers(1, 2), causal=st.booleans(),
           lengths=st.lists(st.integers(1, 12), min_size=1, max_size=3),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60)
    def test_whole_decode_equals_reference_bit_for_bit(self, dtype, n_layers,
                                                       causal, lengths, seed):
        """A decode without a cache runs the cached loop from an empty cache;
        its hidden states, logits and every parameter gradient equal, byte
        for byte, the layer-by-layer whole-sequence decoder of the oracle,
        padded rows included.  Two layers, so that one `video.flat` node
        feeding every layer's cross-attention is what keeps the gradients'
        summation order."""
        model = make_tiny_model(seed % 4, n_layers=n_layers)
        params = model.parameters()
        for p in params.values():
            p.data = p.data.astype(dtype)
        rng = SessionRng(seed)
        ids, pad = model.pad_batch([
            [int(i) for i in rng.integers(0, len(model.vocab), (n,))]
            for n in lengths])
        clips = tiny_clips(rng, len(lengths))
        weights = [Tensor(rng.normal(1.0, shape, dtype)) for shape in
                   ((len(lengths), ids.shape[1], model.cfg.dim),
                    (len(lengths), ids.shape[1], len(model.vocab)))]

        def run(decode):
            for p in params.values():
                p.grad = None
            video = model.encode_video_batch(clips)
            outs = decode(model, ids, pad, video, causal)
            loss = sum(ad.reduce_sum(out * w) for out, w in zip(outs, weights))
            loss.backward()
            return ([out.data.tobytes() for out in outs],
                    {n: p.grad.tobytes() for n, p in params.items()
                     if p.grad is not None})

        got = run(lambda m, *args: m.decode_multimodal(*args))
        assert got == run(reference_decode)

    def test_causal_mask_layout(self):
        mask = causal_mask(3)
        assert np.all(mask[np.tril_indices(3)] == 0)
        assert np.all(mask[np.triu_indices(3, k=1)] == -1e9)

    def test_causal_mask_and_key_padding_both_apply(self):
        """Under both masks a query sees neither a padded key nor a later
        one, but does see an earlier unpadded key."""
        rng = SessionRng(7)
        attn = MultiHeadAttention(8, 2, rng)
        query = Tensor(rng.normal(1.0, (2, 5, 8)))
        keyval = rng.normal(1.0, (2, 5, 8))
        pad = np.zeros((2, 5), bool)
        pad[0, 1] = True

        def run(kv):
            return attn(query, Tensor(kv), attn_mask=causal_mask(5),
                        key_pad=pad).data

        base = run(keyval)
        padded, later, earlier = keyval.copy(), keyval.copy(), keyval.copy()
        padded[0, 1] += 1.0
        later[1, 3] += 1.0
        earlier[1, 0] += 1.0
        np.testing.assert_array_equal(run(padded), base)
        np.testing.assert_array_equal(run(later)[1, :3], base[1, :3])
        assert not np.allclose(run(earlier)[1, 2], base[1, 2])


class TestSimilarityHead:
    def test_unit_norm_embeddings_and_normalized_weights(self, tiny_model):
        video = tiny_model.encode_video_batch(tiny_clips(SessionRng(6), 2))
        e_v, w_v = tiny_model.head.pool_video(video)
        np.testing.assert_allclose(np.linalg.norm(e_v.data, axis=-1), 1.0,
                                   atol=1e-4)
        np.testing.assert_allclose(w_v.data.sum(axis=-1), 1.0, atol=1e-5)

    def test_padded_text_tokens_get_zero_weight(self, tiny_model):
        short = tiny_model.prompt_ids(MGA_PROMPT)[:3]
        long = tiny_model.prompt_ids(MGA_PROMPT)
        text = tiny_model.encode_text_batch([short, long])
        _, w_t = tiny_model.head.pool_text(text)
        assert np.all(w_t.data[0, 3:] < 1e-6)
        np.testing.assert_allclose(w_t.data.sum(axis=-1), 1.0, atol=1e-5)

    def test_temperature_positive(self, tiny_model):
        assert tiny_model.head.tau.data[0] > 0


class TestGeneration:
    def test_greedy_is_deterministic(self, tiny_model):
        video = tiny_model.encode_video_batch(tiny_clips(SessionRng(7), 1))
        prompt = tiny_model.prompt_ids(CAPTION_PROMPT)
        a = tiny_model.generate_caption(video, prompt, max_len=5)
        b = tiny_model.generate_caption(video, prompt, max_len=5)
        assert a == b
        assert len(a) <= 5
        assert tiny_model.vocab.eos_id not in a

    def test_budget_respects_context_window(self, tiny_model):
        video = tiny_model.encode_video_batch(tiny_clips(SessionRng(8), 1))
        prompt = tiny_model.prompt_ids(CAPTION_PROMPT)
        out = tiny_model.generate_caption(video, prompt, max_len=100)
        assert len(out) <= tiny_model.cfg.max_text_len - len(prompt) - 1


class TestCachedDecoding:
    """generate_caption's K/V-cached steps against full re-decoding."""

    @staticmethod
    def spy_logits(model) -> list:
        """Record the last-position logits of every decode_multimodal call."""
        rows, decode = [], model.decode_multimodal

        def spied(*args, **kwargs):
            hidden, logits = decode(*args, **kwargs)
            rows.append(logits.data[0, -1])
            return hidden, logits
        model.decode_multimodal = spied
        return rows

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5),
                                            (np.float64, 1e-12)])
    @given(prompt_len=st.integers(1, 12), max_len=st.integers(1, 16),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=40)
    def test_logits_and_ids_match_uncached(self, dtype, tol, prompt_len,
                                           max_len, seed):
        # two layers, so that the second layer's keys and values depend on
        # what the first let each position attend to
        model = make_tiny_model(seed % 4, n_layers=2)
        for p in model.parameters().values():
            p.data = p.data.astype(dtype)
        rng = SessionRng(seed)
        cfg = model.cfg
        video = VideoTokens(Tensor(rng.normal(
            1.0, (1, cfg.n_frames, cfg.spatial_tokens, cfg.dim), dtype)))
        prompt = [int(i) for i in rng.integers(0, len(model.vocab),
                                               (prompt_len,))]
        want_ids, want_rows = uncached_generate(model, video, prompt, max_len)
        rows = self.spy_logits(model)
        assert model.generate_caption(video, prompt, max_len) == want_ids
        assert len(rows) == len(want_rows)
        for got, want in zip(rows, want_rows):
            assert got.dtype == dtype
            np.testing.assert_allclose(got, want, rtol=0, atol=tol)

    def test_decodes_two_positions_per_step_after_the_first(self, tiny_model):
        video = tiny_model.encode_video_batch(tiny_clips(SessionRng(9), 1))
        prompt = tiny_model.prompt_ids(CAPTION_PROMPT)
        widths, decode = [], tiny_model.decode_multimodal

        def counted(ids, *args):
            widths.append(ids.shape[1])
            return decode(ids, *args)
        tiny_model.decode_multimodal = counted
        out = tiny_model.generate_caption(video, prompt, max_len=5)
        assert widths == [len(prompt) + 1] + [2] * (len(widths) - 1)
        assert len(widths) == min(len(out) + 1, 5)

    def test_no_tape_is_recorded(self, tiny_model):
        video = tiny_model.encode_video_batch(tiny_clips(SessionRng(10), 1))
        rows, decode = [], tiny_model.decode_multimodal

        def kept(*args):
            out = decode(*args)
            rows.append(out[1])
            return out
        tiny_model.decode_multimodal = kept
        tiny_model.generate_caption(video, [7], max_len=3)
        assert rows and not any(r.requires_grad or r._parents for r in rows)

    def test_cache_rejects_padded_ids(self, tiny_model):
        video = tiny_model.encode_video_batch(tiny_clips(SessionRng(11), 1))
        ids = np.array([[7, 8]])
        with pytest.raises(InputError):
            tiny_model.decode_multimodal(ids, np.array([[False, True]]),
                                         video, True, DecodeCache())


class TestInitialWeights:
    SEED0_DIGEST = "ded30c6f67abb43dd7765cdb9167cbacc370eb4f83abd3c5b303b35b20ee57a8"

    def test_seed0_state_dict_is_pinned(self):
        """The seeded build draws every tensor in a fixed order: a module
        added, removed or moved changes the weights of those after it."""
        state = make_tiny_model(seed=0).state_dict()
        digest = hashlib.sha256()
        for name in sorted(state):
            digest.update(name.encode())
            digest.update(str(state[name].shape).encode())
            digest.update(state[name].tobytes())
        assert len(state) == 65
        assert digest.hexdigest() == self.SEED0_DIGEST
