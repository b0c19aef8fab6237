"""Low-rank adapters: output-neutral attach, base freezing, exact disable,
merge folding, one-node forward, and parameter accounting."""

import hashlib

import numpy as np
import pytest

from conftest import make_tiny_model, tiny_clips
from oracles import (reference_modules, reference_parameters,
                     unfused_lora_linear)
from surgflow import lora
from surgflow.autodiff import Tensor, power, reduce_sum
from surgflow.errors import ConfigError, InputError, StateError
from surgflow.nn import Linear, Module, MultiHeadAttention, load_parameters
from surgflow.optim import AdamW
from surgflow.rng import SessionRng
from surgflow.temporal import TemporalConfig, build_temporal_model


class Host(Module):
    """A plain stack of self-attention layers used as an adapter target."""

    def __init__(self, dim, n_heads, n_layers, rng):
        self.layers = [MultiHeadAttention(dim, n_heads, rng)
                       for _ in range(n_layers)]

    def __call__(self, x):
        for layer in self.layers:
            x = x + layer(x, x)
        return x


def random_config(rng):
    dim = int(rng.integers(1, 5)) * 4
    n_heads = int(2 ** rng.integers(0, 3))
    n_layers = int(rng.integers(1, 4))
    r = int(rng.integers(1, dim + 1))
    return dim, n_heads, n_layers, r


def base_hash(model):
    digest = hashlib.sha256()
    for name in sorted(model.parameters()):
        if ".lora_" in name:
            continue
        digest.update(name.encode())
        digest.update(model.parameters()[name].data.tobytes())
    return digest.hexdigest()


class TestRandomConfigs:
    @pytest.mark.parametrize("trial", range(20))
    def test_attach_disable_merge_cycle(self, trial):
        rng = SessionRng(100 + trial)
        dim, n_heads, n_layers, r = random_config(rng)
        host = Host(dim, n_heads, n_layers, rng)
        x = Tensor(rng.normal(1.0, (1, 5, dim)))
        base_out = host(x).data.copy()

        adapters = lora.attach(host, r=r, seed=trial)
        assert len(adapters) == 2 * n_layers
        assert lora.adapter_parameter_count(host) == 2 * n_layers * r * 2 * dim

        # zero-initialized B keeps the output unchanged
        np.testing.assert_allclose(host(x).data, base_out, atol=1e-6)

        # give the adapters a real delta
        for a in adapters:
            a.lora_b.data = rng.normal(0.3, a.lora_b.shape)
        adapted_out = host(x).data.copy()
        assert not np.allclose(adapted_out, base_out)

        # disabling restores the base output bit for bit
        lora.set_enabled(host, False)
        np.testing.assert_array_equal(host(x).data, base_out)
        lora.set_enabled(host, True)

        # merging folds the delta into the base weights
        lora.merge(host)
        np.testing.assert_allclose(host(x).data, adapted_out, atol=1e-5)


class TestOneNodeForward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_enabled_equals_unfused_and_disabled_equals_base(self, dtype):
        """An enabled adapter has the bits of the seven-node composition;
        a disabled one those of its base projection alone."""
        rng = SessionRng(14)
        adapter = lora.LoraLinear(Linear(8, 6, rng), 3, 5.0, rng)
        for p in adapter.parameters().values():
            p.data = p.data.astype(dtype)
        adapter.lora_b.data = rng.normal(0.3, adapter.lora_b.shape, dtype)
        x = Tensor(rng.normal(1.0, (2, 5, 8), dtype), requires_grad=True)
        want = unfused_lora_linear(x, adapter.base.weight, adapter.base.bias,
                                   adapter.lora_a, adapter.lora_b,
                                   adapter.scaling)
        got = adapter(x).data
        assert got.dtype == dtype
        assert got.tobytes() == want.data.tobytes()
        adapter.enabled = False
        assert adapter(x).data.tobytes() == adapter.base(x).data.tobytes()


class TestFreezing:
    def test_base_untouched_by_training_step(self):
        rng = SessionRng(0)
        host = Host(8, 2, 2, rng)
        lora.attach(host, r=2, seed=1)
        lora.freeze_base(host)
        before = base_hash(host)
        x = Tensor(rng.normal(1.0, (1, 4, 8)))
        opt = AdamW(host.parameters(), lr=0.1)
        for _ in range(3):
            opt.zero_grad()
            reduce_sum(power(host(x), 2)).backward()
            opt.step()
        assert base_hash(host) == before
        # the adapters themselves did move
        assert any(np.any(a.lora_b.data != 0) for a in lora.iter_adapters(host))

    def test_attach_freezes_base_projections(self):
        host = Host(8, 2, 1, SessionRng(2))
        lora.attach(host, r=2)
        for a in lora.iter_adapters(host):
            assert not a.base.weight.requires_grad
            assert not a.base.bias.requires_grad
            assert a.lora_a.requires_grad and a.lora_b.requires_grad

    def test_freeze_base_trains_exactly_the_checkpointed_factors(self):
        model = make_tiny_model()
        adapters = lora.attach(model, r=2)
        lora.freeze_base(model)
        trainable = {n for n, p in model.parameters().items()
                     if p.requires_grad}
        saved = {k[len("lora."):] for k in lora.adapter_parameters(model)}
        assert trainable == saved
        assert len(trainable) == 2 * len(adapters)

    def test_freeze_base_without_adapters(self):
        host = Host(8, 2, 1, SessionRng(3))
        with pytest.raises(StateError):
            lora.freeze_base(host)


class TestStateMachine:
    def test_double_attach_rejected(self):
        host = Host(8, 2, 1, SessionRng(4))
        lora.attach(host, r=2)
        with pytest.raises(StateError):
            lora.attach(host, r=2)

    def test_double_merge_rejected(self):
        host = Host(8, 2, 1, SessionRng(5))
        lora.attach(host, r=2)
        lora.merge(host)
        with pytest.raises(StateError):
            lora.merge(host)

    def test_merge_disabled_rejected(self):
        host = Host(8, 2, 1, SessionRng(6))
        lora.attach(host, r=2)
        lora.set_enabled(host, False)
        with pytest.raises(StateError):
            lora.merge(host)

    def test_merge_without_adapters_rejected(self):
        with pytest.raises(StateError):
            lora.merge(Host(8, 2, 1, SessionRng(7)))

    @pytest.mark.parametrize("r", [0, 9])
    def test_rank_bounds(self, r):
        host = Host(8, 2, 1, SessionRng(8))
        with pytest.raises(ConfigError):
            lora.attach(host, r=r)

    @pytest.mark.parametrize("alpha", [0.0, -2.0, float("nan"),
                                       float("inf")])
    def test_alpha_must_be_finite_and_positive(self, alpha):
        """A zero alpha scales the delta, and so the factors' gradients, to
        zero: such adapters could never change the output."""
        host = Host(8, 2, 1, SessionRng(8))
        with pytest.raises(ConfigError, match="alpha must be finite and "
                                              "positive"):
            lora.attach(host, r=2, alpha=alpha)
        assert lora.iter_adapters(host) == []

    def test_no_attention_layers(self):
        class Bare(Module):
            pass
        with pytest.raises(ConfigError):
            lora.attach(Bare())


class TestCheckpointing:
    def test_adapter_round_trip(self):
        rng = SessionRng(9)
        host = Host(8, 2, 2, rng)
        adapters = lora.attach(host, r=3, seed=2)
        for a in adapters:
            a.lora_b.data = rng.normal(0.3, a.lora_b.shape)
        x = Tensor(rng.normal(1.0, (1, 4, 8)))
        trained_out = host(x).data.copy()
        entries = {f"lora.{k}": v for k, v in host.state_dict().items()
                   if ".lora_" in k}
        written = lora.adapter_parameters(host)
        assert list(written) == list(entries)
        for k in entries:
            np.testing.assert_array_equal(written[k].data, entries[k])

        fresh = Host(8, 2, 2, SessionRng(9))
        lora.attach(fresh, r=3, seed=99)
        load_parameters(lora.adapter_parameters(fresh), entries)
        np.testing.assert_allclose(fresh(x).data, trained_out, atol=1e-6)

    def test_bad_prefix_rejected(self):
        host = Host(8, 2, 1, SessionRng(10))
        lora.attach(host, r=2)
        entries = {k[len("lora."):]: p.data
                   for k, p in lora.adapter_parameters(host).items()}
        with pytest.raises(InputError, match="unexpected.*missing"):
            load_parameters(lora.adapter_parameters(host), entries)

    def test_unknown_parameter_rejected(self):
        host = Host(8, 2, 1, SessionRng(11))
        lora.attach(host, r=2)
        entries = {k: p.data for k, p in lora.adapter_parameters(host).items()}
        with pytest.raises(InputError, match="a.lora: unexpected keys "
                           r"\['lora.nope'\]"):
            load_parameters(lora.adapter_parameters(host),
                            {**entries, "lora.nope": np.zeros(1)}, "a.lora")


class TestParameterCount:
    def test_desk_scale_worked_example(self):
        # 64-dim model, 2 attention layers, query+value targets, rank 8:
        # 4 adapters x 8 * (64 + 64) = 4096 trainable values
        host = Host(64, 4, 2, SessionRng(12))
        lora.attach(host, r=8)
        assert lora.adapter_parameter_count(host) == 4096

    def test_full_model_attach_covers_every_attention(self):
        model = make_tiny_model()
        adapters = lora.attach(model, r=2, seed=0)
        n_attn = len([m for m in model.modules()
                      if isinstance(m, MultiHeadAttention)])
        assert len(adapters) == 2 * n_attn
        # shared decoder/text-encoder blocks must not be wrapped twice
        video = model.encode_video_batch(tiny_clips(SessionRng(13), 1))
        assert video.tokens.data.shape[0] == 1


def _walked_models():
    attached = make_tiny_model(n_layers=2)
    lora.attach(attached, r=2, seed=1)
    cfg = TemporalConfig(num_classes=3, feature_dim=4, hidden=4, tcn_layers=2,
                         tcn_refinements=2, asf_encoder_layers=2,
                         asf_decoder_layers=2)
    return {"stage1": make_tiny_model(n_layers=2), "stage1+lora": attached,
            "tcn": build_temporal_model("tcn", cfg, SessionRng(0)),
            "asformer": build_temporal_model("asformer", cfg, SessionRng(0))}


WALKED = ["stage1", "stage1+lora", "tcn", "asformer"]


class TestModuleWalk:
    """parameters() and modules() share one attribute walk; names, order
    and identities are those of the separate walks they replaced, which
    checkpoint entry order and AdamW's moment layout depend on."""

    @pytest.mark.parametrize("name", WALKED)
    def test_parameters_match_reference(self, name):
        model = _walked_models()[name]
        got, want = model.parameters(), reference_parameters(model)
        assert list(got) == list(want)
        assert all(got[k] is want[k] for k in want)

    @pytest.mark.parametrize("name", WALKED)
    def test_modules_match_reference(self, name):
        model = _walked_models()[name]
        walk = model.modules()
        assert iter(walk) is walk  # an iterator, not a list
        assert [id(m) for m in walk] == [id(m) for m in reference_modules(model)]

    def test_prefix_and_skipped_names(self):
        host = Host(8, 2, 2, SessionRng(3))
        host._shared = host.layers[0]  # a shared reference is not walked
        host.layers = tuple(host.layers)
        names = list(host.parameters("m."))
        assert names == ["m." + k for k in reference_parameters(host)]
        assert names[:2] == ["m.layers.0.w_q.weight", "m.layers.0.w_q.bias"]
        assert len(names) == 16 and len(list(host.modules())) == 11
