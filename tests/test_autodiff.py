"""Core tensor ops against closed forms and central finite differences."""

import ast
import inspect
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import TINY_TEXTS, make_tiny_model, tiny_clips, traced_bytes
from oracles import (math_erf_cdf, reference_attention, reference_gelu,
                     reference_layer_norm, reference_linear,
                     reference_multihead_attention, unfused_attention,
                     unfused_conv1d, unfused_layer_norm, unfused_linear,
                     unfused_lora_linear)
from surgflow import autodiff as ad
from surgflow import lora, nn
from surgflow.autodiff import Tensor, grad_check
from surgflow.errors import (ConfigError, DimensionError, InputError,
                             NumericError, StateError)
from surgflow.objectives import valor_loss
from surgflow.optim import AdamW, clip_global_norm
from surgflow.rng import SessionRng
from surgflow.temporal import TemporalConfig, build_temporal_model, stage2_loss


def t64(data, requires_grad=True):
    return Tensor(np.asarray(data, np.float64), requires_grad=requires_grad)


def rand64(rng, shape):
    return Tensor(rng.normal(1.0, shape, np.float64), requires_grad=True)


class TestForward:
    def test_matmul_identity(self):
        m = np.arange(9.0).reshape(3, 3)
        out = ad.matmul(t64(np.eye(3)), t64(m))
        np.testing.assert_allclose(out.data, m)

    def test_matmul_hand(self):
        out = ad.matmul(t64([[1, 2], [3, 4]]), t64([[1], [1]]))
        np.testing.assert_allclose(out.data, [[3], [7]])

    def test_matmul_shape_error(self):
        with pytest.raises(DimensionError):
            ad.matmul(t64(np.ones((2, 3))), t64(np.ones((2, 3))))

    def test_softmax_symmetry(self):
        np.testing.assert_allclose(ad.softmax(t64([0.0, 0.0])).data, [0.5, 0.5])

    def test_softmax_closed_form(self):
        e = math.e
        np.testing.assert_allclose(ad.softmax(t64([1.0, 0.0])).data,
                                   [e / (e + 1), 1 / (e + 1)], rtol=1e-12)

    def test_softmax_overflow_stable(self):
        out = ad.softmax(t64([1000.0, 0.0])).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_softmax_rows_sum_to_one(self):
        rng = SessionRng(0)
        out = ad.softmax(rand64(rng, (5, 7)), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), atol=1e-6)

    def test_conv1d_kernel_one_identity(self):
        x = rand64(SessionRng(1), (6, 3))
        kernel = Tensor(np.eye(3, dtype=np.float64)[None], requires_grad=True)
        out = ad.conv1d(x, kernel)
        np.testing.assert_allclose(out.data, x.data)

    def test_conv1d_hand(self):
        x = t64([[1.0], [0.0], [0.0], [0.0]])
        kernel = Tensor(np.ones((3, 1, 1), np.float64))
        out = ad.conv1d(x, kernel)
        np.testing.assert_allclose(out.data[:, 0], [1, 1, 0, 0])

    def test_conv1d_dilation_receptive_field(self):
        # kernel 3, dilation 2 reads {t-2, t, t+2}
        x = np.zeros((7, 1))
        x[3, 0] = 1.0
        out = ad.conv1d(Tensor(x.astype(np.float64)),
                        Tensor(np.ones((3, 1, 1), np.float64)), dilation=2)
        np.testing.assert_allclose(out.data[:, 0], [0, 1, 0, 1, 0, 1, 0])

    def test_conv1d_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            ad.conv1d(t64(np.ones((4, 1))), Tensor(np.ones((2, 1, 1))))

    def test_conv1d_length_preserved(self):
        out = ad.conv1d(rand64(SessionRng(2), (9, 4)),
                        rand64(SessionRng(3), (5, 4, 2)))
        assert out.shape == (9, 2)

    def test_cross_entropy_uniform(self):
        logits = t64(np.zeros((3, 4)))
        out = ad.cross_entropy(logits, np.array([0, 1, 2]))
        assert abs(out.item() - math.log(4)) < 1e-6

    def test_cross_entropy_confident(self):
        logits = np.full((2, 4), -1e4)
        logits[0, 1] = logits[1, 3] = 1e4
        out = ad.cross_entropy(t64(logits), np.array([1, 3]))
        assert out.item() < 1e-6

    def test_cross_entropy_bad_target(self):
        with pytest.raises((InputError, IndexError)):
            ad.cross_entropy(t64(np.zeros((2, 3))), np.array([0, 3]))

    def test_layer_norm_statistics(self):
        x = rand64(SessionRng(4), (5, 8))
        out = ad.layer_norm(x, Tensor(np.ones(8, np.float64)),
                            Tensor(np.zeros(8, np.float64)))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)

    def test_reduce_max_first_argmax_gradient(self):
        x = t64([1.0, 3.0, 3.0, 2.0])
        out = ad.reduce_max(x)
        out.backward()
        np.testing.assert_allclose(x.grad, [0, 1, 0, 0])

    def test_embedding_lookup(self):
        weight = rand64(SessionRng(5), (6, 4))
        ids = np.array([[1, 1, 5]])
        out = ad.embedding(weight, ids)
        np.testing.assert_allclose(out.data[0, 0], weight.data[1])
        np.testing.assert_allclose(out.data[0, 2], weight.data[5])


class TestBackward:
    def test_sum_constant_gradient(self):
        x = rand64(SessionRng(6), (3, 4))
        err = grad_check(lambda: ad.reduce_sum(x), [x])
        assert err < 1e-9

    def test_quadratic(self):
        x = rand64(SessionRng(7), (5,))
        err = grad_check(lambda: ad.reduce_sum(x * x), [x])
        assert err < 1e-6

    def test_diamond_graph_accumulates_once(self):
        # y = x + x must give dy/dx = 2 despite the shared parent
        x = t64([3.0])
        y = ad.reduce_sum(x + x)
        y.backward()
        np.testing.assert_allclose(x.grad, [2.0])

    def test_unused_leaf_gets_no_gradient(self):
        x, y = t64([1.0]), t64([1.0])
        ad.reduce_sum(x * 2.0).backward()
        assert y.grad is None

    def test_broadcast_add_unbroadcasts(self):
        a = rand64(SessionRng(8), (3, 4))
        b = rand64(SessionRng(9), (4,))
        err = grad_check(lambda: ad.reduce_sum((a + b) * (a + b)), [a, b])
        assert err < 1e-6

    @pytest.mark.parametrize("seed", range(20))
    def test_random_small_graphs(self, seed):
        rng = SessionRng(seed)
        a = rand64(rng, (2, 3))
        b = rand64(rng, (3, 4))
        c = rand64(rng, (4,))

        def f():
            h = ad.exp(-0.5 * ad.power(ad.matmul(a, b) + c, 2.0))
            h = ad.gelu(h) * ad.relu(h + 0.3)
            h = ad.softmax(h, axis=-1)
            return ad.reduce_sum(ad.power(h + 1.1, 1.5) * ad.exp(0.1 * h))

        assert grad_check(f, [a, b, c]) < 1e-5

    def test_matmul_4x5_5x3(self):
        rng = SessionRng(11)
        a, b = rand64(rng, (4, 5)), rand64(rng, (5, 3))
        assert grad_check(lambda: ad.reduce_sum(ad.matmul(a, b)), [a, b]) < 1e-6

    def test_batched_matmul_gradient(self):
        rng = SessionRng(12)
        a, b = rand64(rng, (2, 2, 3, 4)), rand64(rng, (2, 2, 4, 2))
        f = lambda: ad.reduce_sum(ad.matmul(a, b) ** 2)
        assert grad_check(f, [a, b]) < 1e-5

    def test_shape_ops_gradient(self):
        rng = SessionRng(13)
        x = rand64(rng, (2, 3, 4))

        def f():
            h = ad.transpose(x, (1, 0, 2))
            h = ad.reshape(h, (3, 8))
            h = ad.concat([h, h * 2.0], axis=1)
            h = ad.pad(h, ((1, 1), (0, 0)))
            return ad.reduce_sum(h[1:3] ** 2)

        assert grad_check(f, [x]) < 1e-6

    def test_stack_getitem_gradient(self):
        rng = SessionRng(14)
        xs = [rand64(rng, (3,)) for _ in range(4)]
        f = lambda: ad.reduce_sum(ad.stack(xs, axis=0)[1:] ** 2)
        assert grad_check(f, xs) < 1e-6

    def test_reduce_ops_gradient(self):
        rng = SessionRng(15)
        x = rand64(rng, (4, 5))

        def f():
            return (ad.reduce_sum(ad.reduce_mean(x, axis=0)) +
                    ad.reduce_sum(ad.reduce_sum(x ** 2, axis=1, keepdims=True)) +
                    ad.reduce_sum(ad.reduce_max(x, axis=1)))

        assert grad_check(f, [x]) < 1e-5

    def test_layer_norm_gradient(self):
        rng = SessionRng(16)
        x = rand64(rng, (3, 6))
        gain = rand64(rng, (6,))
        bias = rand64(rng, (6,))
        f = lambda: ad.reduce_sum(ad.layer_norm(x, gain, bias) ** 2)
        assert grad_check(f, [x, gain, bias]) < 1e-5

    def test_embedding_gradient(self):
        rng = SessionRng(17)
        weight = rand64(rng, (5, 3))
        ids = np.array([[0, 2, 2, 4]])
        f = lambda: ad.reduce_sum(ad.embedding(weight, ids) ** 2)
        assert grad_check(f, [weight]) < 1e-6

    def test_conv1d_gradient(self):
        rng = SessionRng(18)
        x = rand64(rng, (7, 3))
        kernel = rand64(rng, (3, 3, 2))
        bias = rand64(rng, (2,))
        f = lambda: ad.reduce_sum(ad.conv1d(x, kernel, bias, dilation=2) ** 2)
        assert grad_check(f, [x, kernel, bias]) < 1e-5

    def test_softmax_log_softmax_cross_entropy_gradient(self):
        rng = SessionRng(19)
        logits = rand64(rng, (4, 3))
        targets = np.array([0, 2, 1, 1])

        def f():
            return (ad.cross_entropy(logits, targets) +
                    ad.reduce_sum(ad.softmax(logits, axis=1) ** 3) +
                    ad.reduce_sum(ad.log_softmax(logits, axis=0) * 0.1))

        assert grad_check(f, [logits]) < 1e-5

    def test_backward_requires_scalar(self):
        with pytest.raises(DimensionError):
            rand64(SessionRng(20), (3,)).backward()

    def test_grad_check_rejects_bad_eps(self):
        x = t64([1.0])
        with pytest.raises(InputError):
            grad_check(lambda: ad.reduce_sum(x), [x], eps=0.0)

    def test_grad_check_nonfinite_raises(self):
        x = t64([0.0])
        with np.errstate(divide="ignore"), pytest.raises(NumericError):
            grad_check(lambda: ad.power(x, -1.0), [x])


class TestFusedConv1d:
    """conv1d is one tape node whose closed-form backward matches the
    unfused pad / getitem / concat / matmul composition."""

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12),
                                            (np.float32, 1e-5)])
    @given(t=st.integers(1, 50), c_in=st.integers(1, 8),
           c_out=st.integers(1, 8), k=st.sampled_from([1, 3, 5]),
           dilation=st.integers(1, 12), with_bias=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    @example(t=1, c_in=2, c_out=3, k=5, dilation=12, with_bias=True, seed=0)
    @example(t=9, c_in=1, c_out=2, k=3, dilation=12, with_bias=False, seed=1)
    @example(t=50, c_in=8, c_out=8, k=5, dilation=12, with_bias=True, seed=2)
    def test_matches_unfused(self, dtype, tol, t, c_in, c_out, k, dilation,
                             with_bias, seed):
        rng = SessionRng(seed)
        arrays = [rng.normal(1.0, (t, c_in), dtype),
                  rng.normal(1.0, (k, c_in, c_out), dtype)]
        if with_bias:
            arrays.append(rng.normal(1.0, (c_out,), dtype))
        weights = Tensor(rng.normal(1.0, (t, c_out), dtype))
        results = []
        for conv in (ad.conv1d, unfused_conv1d):
            params = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            bias = params[2] if with_bias else None
            out = conv(params[0], params[1], bias, dilation)
            ad.reduce_sum(out * weights).backward()
            results.append([out.data] + [p.grad for p in params])
        for fused, unfused in zip(*results):
            assert fused.dtype == unfused.dtype == dtype
            np.testing.assert_allclose(fused, unfused, rtol=tol, atol=tol)

    @pytest.mark.parametrize("with_bias", [True, False])
    def test_one_tape_node(self, with_bias):
        rng = SessionRng(40)
        x, kernel = rand64(rng, (6, 2)), rand64(rng, (3, 2, 4))
        bias = rand64(rng, (4,)) if with_bias else None
        out = ad.conv1d(x, kernel, bias, dilation=2)
        expected = (x, kernel, bias) if with_bias else (x, kernel)
        assert len(out._parents) == len(expected)
        assert all(p is e for p, e in zip(out._parents, expected))


def _tape_nodes(root):
    """Interior nodes reachable from `root` along the recorded tape."""
    seen, stack, count = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            count += bool(node._parents)
            stack.extend(node._parents)
    return count


def _lora_linear(x, weight, bias, a, b, scaling):
    return ad.linear(x, weight, bias, low_rank=(a, b, scaling))


def _compare_to_unfused(fused_op, unfused_op, arrays, trainable, dtype, tol,
                        seed, atol=None, **kwargs):
    """Run both ops on fresh leaves of `arrays` (None passes through) with the
    given requires_grad flags, backpropagate a weighted sum, and check the
    forward is bit-identical and the gradients agree within `tol` (absolute
    tolerance `atol`, default `tol`); a frozen leaf must get no gradient from
    either."""
    results = []
    for op in (fused_op, unfused_op):
        leaves = [None if a is None else Tensor(a.copy(), requires_grad=r)
                  for a, r in zip(arrays, trainable)]
        out = op(*leaves, **kwargs)
        weights = Tensor(SessionRng(seed).normal(1.0, out.shape, dtype))
        ad.reduce_sum(out * weights).backward()
        results.append((out.data, [leaf and leaf.grad for leaf in leaves]))
    (fused, fused_grads), (unfused, unfused_grads) = results
    assert fused.dtype == unfused.dtype == dtype
    np.testing.assert_array_equal(fused, unfused)
    for a, r, fg, ug in zip(arrays, trainable, fused_grads, unfused_grads):
        if a is None or not r:
            assert fg is None and ug is None
            continue
        assert fg.dtype == ug.dtype == dtype
        np.testing.assert_allclose(fg, ug, rtol=tol,
                                   atol=tol if atol is None else atol)


DTYPES = pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12),
                                                (np.float32, 1e-5)])
LEAD = st.lists(st.integers(1, 3), max_size=2).map(tuple)
MASKS = st.sampled_from(["none", "causal", "key_pad", "both"])
TRAINABLE3 = st.tuples(st.booleans(), st.booleans(), st.booleans())
DTYPE = pytest.mark.parametrize("dtype", [np.float32, np.float64])


def _attention_bias(rng, mask, lead, tq, tk, head_axis=False):
    """(bias, tk) for one of the MASKS, built as MultiHeadAttention builds
    them: the additive causal mask (which makes tk = tq), -1e9 at padded
    keys (with a unit head axis before the query axis when `head_axis`),
    or their sum."""
    if mask in ("causal", "both"):
        tk = tq
    bias = None if mask in ("none", "key_pad") else nn.causal_mask(tq)
    if mask in ("key_pad", "both"):
        pad = rng.uniform(0.0, 1.0, lead + (1,) * head_axis + (1, tk)) < 0.3
        pad = np.where(pad, -1e9, 0.0).astype(np.float32)
        bias = pad if bias is None else bias + pad
    return bias, tk


class TestFusedTransformerOps:
    """linear, layer_norm and attention are one tape node each, with forward
    values bit-identical to the unfused compositions in tests/oracles.py and
    closed-form gradients that agree with theirs."""

    @DTYPES
    @given(lead=LEAD, t=st.integers(1, 40), d_in=st.integers(1, 8),
           d_out=st.integers(1, 8), with_bias=st.booleans(),
           trainable=st.tuples(st.booleans(), st.booleans(), st.booleans()),
           seed=st.integers(0, 2 ** 16))
    def test_linear_matches_unfused(self, dtype, tol, lead, t, d_in, d_out,
                                    with_bias, trainable, seed):
        rng = SessionRng(seed)
        arrays = [rng.normal(1.0, lead + (t, d_in), dtype),
                  rng.normal(1.0, (d_in, d_out), dtype),
                  rng.normal(1.0, (d_out,), dtype) if with_bias else None]
        _compare_to_unfused(ad.linear, unfused_linear, arrays, trainable,
                            dtype, tol, seed + 1)

    @DTYPES
    @given(lead=st.lists(st.integers(1, 3), max_size=1).map(tuple),
           t=st.integers(1, 40), d_in=st.integers(1, 8),
           d_out=st.integers(1, 8), r=st.integers(1, 4),
           with_bias=st.booleans(),
           trainable=st.tuples(*[st.booleans()] * 5),
           scaling=st.sampled_from([1.0, 0.5, 8.0 / 3.0]),
           seed=st.integers(0, 2 ** 16))
    def test_lora_linear_matches_unfused(self, dtype, tol, lead, t, d_in,
                                         d_out, r, with_bias, trainable,
                                         scaling, seed):
        """The low-rank form against its seven-node composition, for 2-D
        and 3-D x and every mix of frozen and trainable x, base and
        factors."""
        rng = SessionRng(seed)
        arrays = [rng.normal(1.0, lead + (t, d_in), dtype),
                  rng.normal(1.0, (d_in, d_out), dtype),
                  rng.normal(1.0, (d_out,), dtype) if with_bias else None,
                  rng.normal(1.0, (r, d_in), dtype),
                  rng.normal(1.0, (d_out, r), dtype)]
        _compare_to_unfused(_lora_linear, unfused_lora_linear, arrays,
                            trainable, dtype, tol, seed + 1, scaling=scaling)

    @DTYPES
    @given(lead=LEAD, t=st.integers(1, 40), dim=st.integers(1, 16),
           trainable=st.tuples(st.booleans(), st.booleans(), st.booleans()),
           seed=st.integers(0, 2 ** 16))
    def test_layer_norm_matches_unfused(self, dtype, tol, lead, t, dim,
                                        trainable, seed):
        """The input gradient of a row scales with its 1/sigma, and so does
        the float32 rounding of both formulations (a row of two nearly equal
        values puts each up to 7e-3 from the float64 result), so in float32
        the absolute tolerance is `tol` times the largest 1/sigma."""
        rng = SessionRng(seed)
        arrays = [rng.normal(1.0, lead + (t, dim), dtype),
                  rng.normal(1.0, (dim,), dtype),
                  rng.normal(1.0, (dim,), dtype)]
        inv_sigma = 1.0 / np.sqrt(arrays[0].var(axis=-1).min() + 1e-5)
        atol = tol if dtype == np.float64 else tol * max(1.0, inv_sigma)
        _compare_to_unfused(ad.layer_norm, unfused_layer_norm, arrays,
                            trainable, dtype, tol, seed + 1, atol=atol,
                            eps=1e-5)

    @DTYPES
    @given(lead=LEAD, tq=st.integers(1, 40), tk=st.integers(1, 40),
           d=st.integers(1, 8), dv=st.integers(1, 8), mask=MASKS,
           trainable=st.tuples(st.booleans(), st.booleans(), st.booleans()),
           seed=st.integers(0, 2 ** 16))
    @example(lead=(2, 2), tq=40, tk=40, d=8, dv=8, mask="both",
             trainable=(True, True, True), seed=0)
    @example(lead=(), tq=1, tk=1, d=1, dv=1, mask="key_pad",
             trainable=(True, True, True), seed=1)
    def test_attention_matches_unfused(self, dtype, tol, lead, tq, tk, d, dv,
                                       mask, trainable, seed):
        rng = SessionRng(seed)
        bias, tk = _attention_bias(rng, mask, lead, tq, tk)
        arrays = [rng.normal(1.0, lead + (tq, d), dtype),
                  rng.normal(1.0, lead + (tk, d), dtype),
                  rng.normal(1.0, lead + (tk, dv), dtype)]
        _compare_to_unfused(ad.attention, unfused_attention, arrays,
                            trainable, dtype, tol, seed + 1, bias=bias)

    @pytest.mark.parametrize("with_bias", [True, False])
    def test_linear_one_tape_node(self, with_bias):
        rng = SessionRng(42)
        x, weight = rand64(rng, (2, 5, 3)), rand64(rng, (3, 4))
        bias = rand64(rng, (4,)) if with_bias else None
        out = ad.linear(x, weight, bias)
        expected = (x, weight, bias) if with_bias else (x, weight)
        assert out._parents == expected
        assert _tape_nodes(out) == 1

    def test_lora_linear_one_tape_node(self):
        """An enabled adapter over a frozen base is one node whose parents
        are x and the two factors."""
        rng = SessionRng(47)
        base = nn.Linear(3, 4, rng)
        adapter = lora.LoraLinear(base, 2, 4.0, rng)
        x = rand64(rng, (2, 5, 3))
        out = adapter(x)
        assert out._parents == (x, adapter.lora_a, adapter.lora_b)
        assert _tape_nodes(out) == 1

    def test_layer_norm_one_tape_node(self):
        rng = SessionRng(43)
        x, gain, bias = rand64(rng, (2, 5, 3)), rand64(rng, (3,)), rand64(rng, (3,))
        out = ad.layer_norm(x, gain, bias)
        assert out._parents == (x, gain, bias)
        assert _tape_nodes(out) == 1

    def test_attention_one_tape_node(self):
        rng = SessionRng(44)
        q, k, v = (rand64(rng, (2, 3, 5, 4)) for _ in range(3))
        out = ad.attention(q, k, v, nn.causal_mask(5))
        assert out._parents == (q, k, v)
        assert _tape_nodes(out) == 1

    def test_linear_shape_error(self):
        with pytest.raises(DimensionError):
            ad.linear(t64(np.ones((2, 3))), t64(np.ones((2, 3))))

    @pytest.mark.parametrize("a_shape, b_shape", [((2, 4), (4, 2)),
                                                  ((2, 3), (4, 3)),
                                                  ((3,), (4, 3))])
    def test_low_rank_shape_error(self, a_shape, b_shape):
        """x [5, 3] and weight [3, 4] need a [r, 3] and b [4, r]."""
        with pytest.raises(DimensionError, match="low-rank"):
            ad.linear(t64(np.ones((5, 3))), t64(np.ones((3, 4))), low_rank=(
                t64(np.ones(a_shape)), t64(np.ones(b_shape)), 1.0))

    def test_attention_shape_error(self):
        with pytest.raises(DimensionError):
            ad.attention(t64(np.ones((2, 3))), t64(np.ones((4, 2))),
                         t64(np.ones((4, 2))))

    @pytest.mark.parametrize("heads", [0, 3])
    def test_attention_heads_shape_error(self, heads):
        """q and k 8 wide, v 6 wide: 3 heads split v but not q."""
        rng = SessionRng(45)
        q, k, v = rand64(rng, (2, 5, 8)), rand64(rng, (2, 4, 8)), rand64(rng, (2, 4, 6))
        with pytest.raises(DimensionError, match="heads"):
            ad.attention(q, k, v, heads=heads)

    def test_transformer_block_records_12_nodes(self):
        """ln1, the q/k/v projections, attention (heads split and merged
        inside it), w_o, the residual add, ln2, fc1, gelu, fc2 and the
        second residual add."""
        rng = SessionRng(46)
        block = nn.TransformerBlock(64, 4, 2, rng)
        x = Tensor(rng.normal(1.0, (8, 128, 64)), requires_grad=True)
        pad = np.zeros((8, 128), bool)
        pad[:, 100:] = True
        out = block(x, attn_mask=nn.causal_mask(128), key_pad=pad)
        assert _tape_nodes(out) == 12

    def test_valor_loss_step_records_211_nodes(self):
        """A two-layer stage-1 model's training step, as in pretraining: its
        12 multi-head attention calls (2 video-encoder, 2 text-encoder and
        8 decoder, self and cross for MGC and MLM) record 5 nodes each.  The
        count depends on the depth, not on the widths."""
        model = make_tiny_model(n_layers=2)
        ids = [model.vocab.encode(t) for t in TINY_TEXTS[:2]]
        report = valor_loss(model, tiny_clips(SessionRng(7), 2), ids,
                            SessionRng(9))
        assert _tape_nodes(report.total) == 211

    def test_lora_valor_loss_step_records_186_nodes(self):
        """The same step with rank-2 adapters on every query and value
        projection and the base frozen, as in LoRA fine-tuning: each
        adapted projection is one node, and no node is recorded where
        nothing it depends on is trainable."""
        model = make_tiny_model(n_layers=2)
        lora.attach(model, r=2, seed=0)
        lora.freeze_base(model)
        ids = [model.vocab.encode(t) for t in TINY_TEXTS[:2]]
        report = valor_loss(model, tiny_clips(SessionRng(7), 2), ids,
                            SessionRng(9))
        assert _tape_nodes(report.total) == 186

    @pytest.mark.parametrize("variant, nodes", [("tcn", 142),
                                                ("asformer", 217)])
    def test_stage2_loss_step_nodes(self, variant, nodes):
        """The default stage-2 models on a 40-row table: ASFormer's 12
        attention calls (9 windowed encoder, 3 decoder) record 5 nodes
        each; the TCN records no attention, pad or window node."""
        cfg = TemporalConfig()
        model = build_temporal_model(variant, cfg, SessionRng(1))
        feats = SessionRng(2).normal(1.0, (40, cfg.feature_dim))
        loss = stage2_loss(model.forward(feats), np.arange(40) % 6, variant, cfg)
        assert _tape_nodes(loss) == nodes


class TestTapeLifetime:
    """backward consumes the tape: it frees each interior node's parents
    and closure once run, keeps every value, and a spent node raises."""

    @staticmethod
    def shared_graph():
        """Leaves x and w and a loss that reads the interior y twice."""
        rng = SessionRng(48)
        x = Tensor(rng.normal(1.0, (3, 4), np.float64), requires_grad=True)
        w = Tensor(rng.normal(1.0, (4,), np.float64), requires_grad=True)
        y = x * w
        return x, w, y, ad.reduce_sum(y * y + y)

    def test_second_backward_raises_and_keeps_the_grads(self):
        x, w, y, loss = self.shared_graph()
        loss.backward()
        grads = [x.grad.tobytes(), w.grad.tobytes()]
        values = [y.data.tobytes(), loss.data.tobytes()]
        with pytest.raises(StateError, match="already freed this graph"):
            loss.backward()
        assert [x.grad.tobytes(), w.grad.tobytes()] == grads
        assert [y.data.tobytes(), loss.data.tobytes()] == values

    def test_loss_on_an_interior_tensor_of_a_spent_graph_raises(self):
        x, w, y, loss = self.shared_graph()
        loss.backward()
        again = ad.reduce_sum(y * 2.0)
        with pytest.raises(StateError, match="already freed this graph"):
            again.backward()

    def test_spent_nodes_drop_parents_and_closure(self):
        x, w, y, loss = self.shared_graph()
        loss.backward()
        assert y._parents == () and loss._parents == ()
        assert y._backward is ad._spent and loss._backward is ad._spent
        assert y.grad is None and loss.grad is None
        assert x._parents == () and x._backward is None

    def test_stage1_step_keeps_little_more_than_the_leaf_grads(self):
        """After backward on a toy stage-1 step, with its loss report still
        held, the bytes left are the leaf grads and a few KiB of objects
        (measured 13.1 KiB more than the grads; 219.9 KiB more when
        backward kept the tape)."""
        model = make_tiny_model()
        ids = [model.vocab.encode(t) for t in TINY_TEXTS[:2]]
        clips = tiny_clips(SessionRng(7), 2)

        def step():
            report = valor_loss(model, clips, ids, SessionRng(9))
            report.total.backward()
            return report
        left, _, report = traced_bytes(step)
        grads = sum(p.grad.nbytes for p in model.parameters().values())
        assert grads > 0 and np.isfinite(report.mga.data)
        assert left <= grads + 32 * 1024


def _bit_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _against_reference(op, reference, arrays, trainable, seed, record=True,
                       g_dtype=None, **kwargs):
    """Run `op` on leaves of `arrays` (None passes through) with the given
    requires_grad flags, recording a tape when `record`, and call its
    backward closure with a seeded upstream gradient g (of the output's
    dtype unless `g_dtype`).  The value, and the gradient each input that
    requires grad receives, must equal bit for bit, and in dtype, what
    `reference` computes for g; any other input gets no gradient."""
    leaves = [None if a is None else Tensor(a.copy(), requires_grad=r)
              for a, r in zip(arrays, trainable)]
    if record:
        out = op(*leaves, **kwargs)
    else:
        with ad.no_grad():
            out = op(*leaves, **kwargs)
    g = SessionRng(seed).normal(1.0, out.shape, g_dtype or out.dtype)
    want, want_grads = reference(*arrays, g=g, **kwargs)
    _bit_equal(out.data, np.asarray(want))
    if not (record and any(r for a, r in zip(arrays, trainable)
                           if a is not None)):
        assert _is_constant(out)
        return
    out._backward(g)
    for leaf, want_grad in zip(leaves, want_grads):
        if leaf is not None and not leaf.requires_grad:
            assert leaf.grad is None
        elif leaf is not None:  # _accum casts to the leaf's dtype
            _bit_equal(leaf.grad, want_grad.astype(leaf.dtype))


class TestPad:
    """pad builds zeros and copies `a` into the interior: the value (and
    dtype) of np.pad, and the interior of g as the gradient."""

    @DTYPE
    @given(shape=st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple),
           data=st.data())
    def test_matches_np_pad(self, dtype, shape, data):
        widths = tuple(data.draw(st.tuples(st.integers(0, 4), st.integers(0, 4)))
                       for _ in shape)
        rng = SessionRng(len(shape))
        x = Tensor(rng.normal(1.0, shape, dtype), requires_grad=True)
        out = ad.pad(x, widths)
        _bit_equal(out.data, np.pad(x.data, widths))
        g = rng.normal(1.0, out.shape, dtype)
        out._backward(g)
        inner = tuple(slice(lo, lo + n) for (lo, _), n in zip(widths, shape))
        _bit_equal(x.grad, g[inner])

    @pytest.mark.parametrize("widths", [((0, -1), (0, 0)), ((-2, 1), (0, 0)),
                                        ((0, 1),), ((0, 1), (0, 0), (0, 0))])
    def test_rejects_negative_or_missing_widths(self, widths):
        with pytest.raises(DimensionError):
            ad.pad(t64(np.ones((3, 4))), widths)


class TestInPlaceKernels:
    """linear, layer_norm, gelu and attention compute in place, in the
    ufuncs and order of the out-of-place arithmetic in tests/oracles.py, so
    their values and gradients equal it bit for bit: in float32 and
    float64, for every mix of trainable inputs, and under no_grad."""

    @DTYPE
    @given(lead=LEAD, t=st.integers(1, 40), d_in=st.integers(1, 8),
           d_out=st.integers(1, 8), with_bias=st.booleans(),
           trainable=TRAINABLE3, record=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_linear(self, dtype, lead, t, d_in, d_out, with_bias, trainable,
                    record, seed):
        rng = SessionRng(seed)
        arrays = [rng.normal(1.0, lead + (t, d_in), dtype),
                  rng.normal(1.0, (d_in, d_out), dtype),
                  rng.normal(1.0, (d_out,), dtype) if with_bias else None]
        _against_reference(ad.linear, reference_linear, arrays, trainable,
                           seed + 1, record)

    @DTYPE
    @given(lead=LEAD, t=st.integers(1, 40), dim=st.integers(1, 16),
           trainable=TRAINABLE3, record=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_layer_norm(self, dtype, lead, t, dim, trainable, record, seed):
        rng = SessionRng(seed)
        arrays = [rng.normal(1.0, lead + (t, dim), dtype),
                  rng.normal(1.0, (dim,), dtype),
                  rng.normal(1.0, (dim,), dtype)]
        _against_reference(ad.layer_norm, reference_layer_norm, arrays,
                           trainable, seed + 1, record, eps=1e-5)

    @DTYPE
    @given(shape=st.lists(st.integers(1, 6), max_size=3).map(tuple),
           scale=st.sampled_from([0.1, 1.0, 4.0]), trainable=st.booleans(),
           record=st.booleans(), seed=st.integers(0, 2 ** 16))
    def test_gelu(self, dtype, shape, scale, trainable, record, seed):
        """Shapes include 0-d; scale 4 reaches the saturated tails."""
        arrays = [SessionRng(seed).normal(scale, shape, dtype)]
        _against_reference(ad.gelu, reference_gelu, arrays, [trainable],
                           seed + 1, record)

    @DTYPE
    @given(lead=LEAD, tq=st.integers(1, 40), tk=st.integers(1, 40),
           d=st.integers(1, 8), dv=st.integers(1, 8), mask=MASKS,
           trainable=TRAINABLE3, record=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    @example(lead=(2, 2), tq=40, tk=40, d=8, dv=8, mask="both",
             trainable=(True, True, True), record=True, seed=0)
    def test_attention(self, dtype, lead, tq, tk, d, dv, mask, trainable,
                       record, seed):
        rng = SessionRng(seed)
        bias, tk = _attention_bias(rng, mask, lead, tq, tk)
        arrays = [rng.normal(1.0, lead + (tq, d), dtype),
                  rng.normal(1.0, lead + (tk, d), dtype),
                  rng.normal(1.0, lead + (tk, dv), dtype)]
        _against_reference(ad.attention, reference_attention, arrays,
                           trainable, seed + 1, record, bias=bias)

    @DTYPE
    @given(lead=LEAD, heads=st.integers(1, 4), tq=st.integers(1, 12),
           tk=st.integers(1, 12), d=st.integers(1, 6), dv=st.integers(1, 6),
           mask=MASKS, trainable=TRAINABLE3, record=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    @example(lead=(2,), heads=4, tq=40, tk=40, d=16, dv=16, mask="both",
             trainable=(True, True, True), record=True, seed=0)
    def test_attention_heads(self, dtype, lead, heads, tq, tk, d, dv, mask,
                             trainable, record, seed):
        """With `heads`, q, k, v [..., T, heads * d] are split into heads
        inside the node and the value and gradients merged back, with the
        bits of reshape + transpose around reference_attention."""
        rng = SessionRng(seed)
        bias, tk = _attention_bias(rng, mask, lead, tq, tk, head_axis=True)
        arrays = [rng.normal(1.0, lead + (tq, heads * d), dtype),
                  rng.normal(1.0, lead + (tk, heads * d), dtype),
                  rng.normal(1.0, lead + (tk, heads * dv), dtype)]
        _against_reference(ad.attention, reference_multihead_attention,
                           arrays, trainable, seed + 1, record, bias=bias,
                           heads=heads)

    @pytest.mark.parametrize("q_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bias_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("g_dtype", [np.float32, np.float64])
    def test_attention_mixed_dtypes(self, q_dtype, bias_dtype, g_dtype):
        """An in-place p += bias keeps p's dtype where scores + bias
        promotes, and an in-place step on a buffer narrower than g rounds
        to the buffer's dtype: the result keeps the promoted dtype and the
        out-of-place values.  k and v are float32."""
        rng = SessionRng(50)
        bias, _ = _attention_bias(rng, "both", (2,), 5, 5)
        arrays = [rng.normal(1.0, (2, 5, 4), q_dtype),
                  rng.normal(1.0, (2, 5, 4), np.float32),
                  rng.normal(1.0, (2, 5, 3), np.float32)]
        bias = bias.astype(bias_dtype)
        out = ad.attention(*(Tensor(a) for a in arrays), bias)
        assert out.dtype == np.result_type(q_dtype, bias_dtype)
        _against_reference(ad.attention, reference_attention, arrays,
                           (True, True, True), 51, g_dtype=g_dtype, bias=bias)

    @pytest.mark.parametrize("op, x_dtype, bias_dtype, g_dtype", [
        (op, x, b, g) for op in ("linear", "layer_norm", "gelu")
        for x, b, g in itertools.product([np.float32, np.float64], repeat=3)
        if op != "gelu" or b == np.float32])  # gelu has no bias
    def test_mixed_dtypes(self, op, x_dtype, bias_dtype, g_dtype):
        """The same for the bias of linear and layer_norm (the weight and
        gain are float32) and the upstream gradient of all three."""
        rng = SessionRng(52)
        x = rng.normal(1.0, (2, 5, 4), x_dtype)
        fn, reference, arrays = {
            "linear": (ad.linear, reference_linear,
                       [x, rng.normal(1.0, (4, 3), np.float32),
                        rng.normal(1.0, (3,), bias_dtype)]),
            "layer_norm": (ad.layer_norm, reference_layer_norm,
                           [x, rng.normal(1.0, (4,), np.float32),
                            rng.normal(1.0, (4,), bias_dtype)]),
            "gelu": (ad.gelu, reference_gelu, [x]),
        }[op]
        assert fn(*map(Tensor, arrays)).dtype == np.result_type(*arrays)
        _against_reference(fn, reference, arrays, [True] * len(arrays), 53,
                           g_dtype=g_dtype)

    @pytest.mark.parametrize("op", ["linear", "linear/low_rank",
                                    "layer_norm", "attention", "gelu",
                                    "conv1d"])
    def test_backward_mutates_nothing(self, op):
        """A backward closure leaves g, the inputs' data and the output's
        data as they were, and a second call with the same g gives the same
        gradients: it consumes no array it saved (p, x_hat, cdf, taps)."""
        fn, shapes = RECORDING_OPS[op]
        inputs = _op_inputs(op, [True] * len(shapes))
        out = fn(*inputs)
        g = SessionRng(54).normal(1.0, out.shape, out.dtype)
        before = [a.tobytes() for a in [g, out.data] + [t.data for t in inputs]]
        grads = []
        for _ in range(2):
            for t in inputs:
                t.grad = None
            out._backward(g)
            grads.append([t.grad.tobytes() for t in inputs])
        after = [a.tobytes() for a in [g, out.data] + [t.data for t in inputs]]
        assert after == before
        assert grads[0] == grads[1]


EDGE_SCORES = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, -1e9, 2.0, -3.0])


def _split(x, heads):
    """[..., T, heads * d] -> [..., heads, T, d] by reshape and transpose."""
    x = x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads))
    return np.swapaxes(x, -2, -3)


class TestAttentionEdgeValues:
    """attention shifts the scores by their row's fmax, the unfused
    composition's softmax by max: on scores holding NaN, +-inf, +-0.0 and
    -1e9-masked keys the two agree on where the result is NaN and,
    everywhere else, bit for bit, zero signs included."""

    @staticmethod
    def check(q, k, v, bias, heads):
        with np.errstate(all="ignore"):
            got = ad.attention(Tensor(q), Tensor(k), Tensor(v), bias,
                               heads=heads).data
            if heads is None:
                want = unfused_attention(Tensor(q), Tensor(k), Tensor(v),
                                         bias).data
            else:
                want = unfused_attention(*(Tensor(_split(a, heads))
                                           for a in (q, k, v)), bias).data
                want = np.swapaxes(want, -2, -3)
                want = want.reshape(want.shape[:-2] + (-1,))
        nan = np.isnan(want)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    @DTYPE
    @pytest.mark.parametrize("heads", [None, 2])
    @given(lead=st.lists(st.integers(1, 2), max_size=1).map(tuple),
           tq=st.integers(1, 5), tk=st.integers(1, 5), d=st.integers(1, 3),
           seed=st.integers(0, 2 ** 16))
    def test_matches_max_shifted_composition(self, dtype, heads, lead, tq,
                                             tk, d, seed):
        """q, k and v hold a few edge values, some query rows are signed
        zeros (so their scores are zeros), the bias holds edge values at
        random scores and -1e9 at random padded keys."""
        rng = SessionRng(seed)
        width = (heads or 1) * d

        def edged(shape, rate, rest):
            pick = EDGE_SCORES[rng.integers(0, len(EDGE_SCORES), shape)]
            return np.where(rng.uniform(0.0, 1.0, shape) < rate, pick, rest)

        q, k, v = (edged(shape, 0.05, rng.normal(1.0, shape, dtype))
                   .astype(dtype) for shape in [lead + (tq, width)]
                   + [lead + (tk, width)] * 2)
        q[..., rng.uniform(0.0, 1.0, tq) < 0.4, :] = (0.0, -0.0)[
            rng.integers(0, 2)]
        pad = rng.uniform(0.0, 1.0, lead + (1,) * (heads is not None)
                          + (1, tk)) < 0.3
        bias = (edged((tq, tk), 0.4, 0.0)
                + np.where(pad, -1e9, 0.0)).astype(np.float32)
        self.check(q, k, v, bias, heads)

    @DTYPE
    @pytest.mark.parametrize("heads", [None, 2])
    def test_hand_rows(self, dtype, heads):
        """Zero queries, so each score row is its bias row: a NaN, +inf,
        all -inf, zeros of both signs beside a -1e9 key, and finite."""
        bias = np.array([[np.nan, 0.0, 1.0], [np.inf, 0.0, -1e9],
                         [-np.inf, -np.inf, -np.inf], [-0.0, 0.0, -1e9],
                         [-0.0, -0.0, -0.0], [1.0, -1e9, 2.0]], np.float32)
        q = np.full((6, 2 * (heads or 1)), -0.0, dtype)
        k = SessionRng(55).normal(1.0, (3, q.shape[1]), dtype)
        v = SessionRng(56).normal(1.0, (3, q.shape[1]), dtype)
        v[0] = -0.0
        self.check(q, k, v, bias, heads)


class TestTensorDtypes:
    """A Tensor holds a plain float32 or float64 ndarray: such an array as
    given, anything else through np.asarray and, unless that is float32 or
    float64, a cast to float32."""

    class Sub(np.ndarray):
        pass

    @pytest.mark.parametrize("data, dtype, shape", [
        (1.5, np.float64, ()),
        ([1, 2, 3], np.float32, (3,)),
        ([[1.0, 2.0]], np.float64, (1, 2)),
        (np.ones(3, np.float32).sum(), np.float32, ()),
        (np.ones(3).sum(), np.float64, ()),
        (np.arange(3).sum(), np.float32, ()),
        (np.array(2.0), np.float64, ()),
        (np.array(2.0, np.float32), np.float32, ()),
        (np.arange(6).reshape(2, 3), np.float32, (2, 3)),
        (np.ones(4, np.float16), np.float32, (4,)),
        (np.ones(4, bool), np.float32, (4,)),
        (np.ones((2, 2)).view(Sub), np.float64, (2, 2)),
        (np.ones(2, np.float32).view(Sub), np.float32, (2,)),
        (np.ones(2, np.int32).view(Sub), np.float32, (2,)),
    ])
    def test_dtype_and_shape(self, data, dtype, shape):
        t = Tensor(data)
        assert type(t.data) is np.ndarray
        assert t.dtype == dtype and t.shape == shape
        np.testing.assert_array_equal(t.data, np.asarray(data, dtype))

    @DTYPE
    def test_float_array_is_kept(self, dtype):
        a = np.ones(3, dtype)
        assert Tensor(a).data is a


class TestFloat64Cdf:
    """float64 _normal_cdf is the standard library's math.erf cdf, element
    by element and bit for bit, in an array of x's shape."""

    @given(st.lists(st.floats() | st.floats(-8.0, 8.0), max_size=64))
    @example([])
    @example([0.0, -0.0, math.inf, -math.inf, math.nan])
    @example([5e-324, -5e-324, 2.2250738585072e-308, -1e-310, 1e-300, -1e-300])
    def test_matches_math_erf(self, xs):
        x = np.array(xs, np.float64)
        got = ad._normal_cdf(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert got.tobytes() == math_erf_cdf(x).tobytes()

    @given(st.floats())
    @example(-0.0)
    @example(math.nan)
    def test_zero_dim_stays_an_array(self, v):
        x = np.asarray(v, np.float64)
        got = ad._normal_cdf(x)
        assert type(got) is np.ndarray and got.shape == ()
        assert got.tobytes() == math_erf_cdf(x).tobytes()
        assert type(ad.gelu(Tensor(x)).data) is np.ndarray

    def test_seeded_draws_in_a_strided_view(self):
        x = SessionRng(63).normal(2.0, (64, 128), np.float64).T[::2]
        assert ad._normal_cdf(x).tobytes() == math_erf_cdf(x).tobytes()


class TestFloat32Gelu:
    """float32 gelu takes its normal cdf from a tanh-of-polynomial form
    instead of an erf: within 2.5e-7 (about 2 ulp of 1.0) of the float64
    math.erf cdf, saturated, warning-free on special values, and the same
    for an element whatever the array around it."""

    BOUND = 2.5e-7

    def _cdf_error(self, x):
        x = np.asarray(x, np.float32)
        return np.abs(ad._normal_cdf(x).astype(np.float64)
                      - ad._normal_cdf(x.astype(np.float64)))

    def test_cdf_within_bound_on_grid(self):
        x = np.linspace(-12.0, 12.0, 1 << 22, dtype=np.float32)
        assert self._cdf_error(x).max() <= self.BOUND

    @given(st.lists(st.floats(-12.0, 12.0, width=32), min_size=1, max_size=64))
    def test_cdf_within_bound_on_draws(self, xs):
        assert self._cdf_error(xs).max() <= self.BOUND

    def test_saturates(self):
        x = np.concatenate([np.linspace(6.0, 1e4, 100001),
                            [1e19, 1e30, 3.4e38,
                             np.finfo(np.float32).max]]).astype(np.float32)
        np.testing.assert_array_equal(ad.gelu(Tensor(x)).data, x)
        np.testing.assert_array_equal(ad.gelu(Tensor(-x)).data, 0.0)

    def test_special_values_without_warnings(self):
        """The values erf gave, except at -inf, where -inf * cdf(-inf) =
        -inf * 0 is nan and gelu gives its limit -0.0."""
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 3.4e38, -3.4e38],
                     np.float32)
        want = np.array([0.0, -0.0, np.inf, -0.0, np.nan, 3.4e38, -0.0],
                        np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ad.gelu(Tensor(x)).data
        assert got.dtype == np.float32
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    def test_value_independent_of_array_size(self):
        """Every element of a [16, 128, 128] tensor equals, bit for bit,
        the same element put through gelu in [1, 2, 128] tensors; a seeded
        sample of 4096 elements also equals it from [1, 1, 1] tensors (a
        call per element for all of them would take about 30 s)."""
        x = SessionRng(60).normal(3.0, (16, 128, 128), np.float32)
        whole = ad.gelu(Tensor(x)).data.reshape(-1, 2, 128)
        for row, want in zip(x.reshape(-1, 1, 2, 128), whole):
            assert ad.gelu(Tensor(row)).data[0].tobytes() == want.tobytes()
        flat, whole = x.reshape(-1), whole.reshape(-1)
        for i in np.random.default_rng(61).choice(flat.size, 4096, replace=False):
            one = ad.gelu(Tensor(flat[i].reshape(1, 1, 1))).data
            assert one.tobytes() == whole[i].tobytes()

    def test_float32_never_calls_erf(self, monkeypatch):
        def no_erf(*args, **kwargs):
            raise AssertionError("erf called")
        monkeypatch.setattr(ad, "erf", no_erf)
        x = Tensor(SessionRng(62).normal(2.0, (4, 8), np.float32),
                   requires_grad=True)
        ad.reduce_sum(ad.gelu(x)).backward()
        assert x.grad.dtype == np.float32
        with pytest.raises(AssertionError, match="erf called"):
            ad.gelu(Tensor(x.data.astype(np.float64)))

    def test_gradient_matches_float64(self):
        """The backward pass pairs the approximate cdf with the exact pdf:
        the float32 input gradient is within 1e-6 of the float64 one."""
        x = np.linspace(-12.0, 12.0, 200001, dtype=np.float32)
        grads = []
        for dtype in (np.float32, np.float64):
            leaf = Tensor(x.astype(dtype), requires_grad=True)
            ad.reduce_sum(ad.gelu(leaf)).backward()
            grads.append(leaf.grad.astype(np.float64))
        assert np.abs(grads[0] - grads[1]).max() <= 1e-6


class TestGeluGradientTails:
    """gelu's input gradient is finite and warning-free for every non-nan
    input: exactly 1 or 0 where the pdf term underflows, up to ±inf, and
    the old bits wherever the old arithmetic was finite and warning-free."""

    @DTYPE
    def test_tails_are_exactly_one_and_zero(self, dtype):
        big = np.finfo(dtype).max
        x = np.array([40.0, 41.5, 1e3, 1e19, 1e30, big, np.inf], dtype)
        for sign, want in ((1.0, 1.0), (-1.0, 0.0)):
            leaf = Tensor(sign * x, requires_grad=True)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                node = ad.gelu(leaf)
                node._backward(np.ones_like(x))
            assert leaf.grad.dtype == dtype
            assert (leaf.grad == want).all(), (sign, leaf.grad)

    @DTYPE
    def test_old_bits_where_the_old_gradient_was_clean(self, dtype):
        """Across the clip at |x| = 40, and out to the largest float, the
        gradient equals the out-of-place oracle wherever the oracle's
        x * x did not overflow."""
        big = np.finfo(dtype).max
        mag = np.concatenate([np.linspace(0.0, 60.0, 120001),
                              np.logspace(0.0, 0.999 * np.log10(big), 2000),
                              [big]]).astype(dtype)
        x = np.concatenate([mag, -mag])
        g = SessionRng(63).normal(1.0, x.shape, dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_gelu(x, g)[1][0]
            clean = np.isfinite(x * x) & np.isfinite(want)
        leaf = Tensor(x, requires_grad=True)
        ad.gelu(leaf)._backward(g)
        assert np.isfinite(leaf.grad).all()
        assert clean.sum() > 0.9 * x.size
        assert leaf.grad[clean].tobytes() == want[clean].tobytes()


class TestGeluAtMinusInfinity:
    @DTYPE
    def test_limit_at_minus_inf_and_old_bits_elsewhere(self, dtype):
        """gelu(-inf) is its limit -0.0, in an array and as a 0-d value;
        every other input, nan and +inf among them, keeps the bits of
        x * cdf(x)."""
        big = np.finfo(dtype).max
        x = np.concatenate([
            SessionRng(64).normal(5.0, (1000,), dtype),
            np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e30,
                      -1e30, big, -big, -np.inf], dtype)])
        with np.errstate(over="ignore", invalid="ignore"):
            old = x * ad._normal_cdf(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ad.gelu(Tensor(x)).data
            scalar = ad.gelu(Tensor(np.asarray(-np.inf, dtype))).data
        at = x == -np.inf
        assert got.dtype == scalar.dtype == dtype
        assert got[at].tobytes() == np.full(2, -0.0, dtype).tobytes()
        assert scalar.tobytes() == np.asarray(-0.0, dtype).tobytes()
        assert got[~at].tobytes() == old[~at].tobytes()


def _two(like):
    return Tensor(np.asarray(2.0, like.dtype))


class TestSub:
    """a - b is one node with the value and gradients of the two-node
    add(a, mul(b, -1.0)): a + b * (-1) equals a - b in IEEE arithmetic."""

    CASES = {  # the operator, and the two-node form it replaced
        "tensor - tensor": (lambda a, b: a - b,
                            lambda a, b: ad.add(a, ad.mul(b, -1.0))),
        "tensor - scalar": (lambda a, b: a - 2.0,
                            lambda a, b: ad.add(a, ad.mul(_two(a), -1.0))),
        "scalar - tensor": (lambda a, b: 2.0 - a,
                            lambda a, b: ad.add(_two(a), ad.mul(a, -1.0))),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("b_shape", [(3, 4), (4,), (3, 1)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_node_bit_equal_to_add_of_negation(self, case, b_shape, dtype):
        results = []
        for fn in self.CASES[case]:
            rng = SessionRng(47)
            a = Tensor(rng.normal(1.0, (3, 4), dtype), requires_grad=True)
            b = Tensor(rng.normal(1.0, b_shape, dtype), requires_grad=True)
            out = fn(a, b)
            nodes = _tape_nodes(out)  # counted before backward consumes it
            weights = Tensor(rng.normal(1.0, out.shape, dtype))
            ad.reduce_sum(out * weights).backward()
            results.append((out, a, b, nodes))
        (out, a, b, nodes), (ref_out, ref_a, ref_b, _) = results
        assert nodes == 1
        assert out.dtype == ref_out.dtype == dtype
        assert out.data.tobytes() == ref_out.data.tobytes()
        for got, want in ((a, ref_a), (b, ref_b)):
            if want.grad is None:
                assert got.grad is None
            else:
                assert got.grad.dtype == want.grad.dtype
                assert got.grad.tobytes() == want.grad.tobytes()


def _grad_writes(tree):
    """Line of each in-place write to a `.grad` array: an augmented
    assignment to `<x>.grad` or `<x>.grad[...]`, an assignment to
    `<x>.grad[...]`, a call passing `out=<x>.grad` or `out=<x>.grad[...]`,
    or `copyto(<x>.grad..., ...)`."""
    def grad_array(node):
        if isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Attribute) and node.attr == "grad"
    def copyto(func):
        return (isinstance(func, ast.Attribute) and func.attr == "copyto"
                or isinstance(func, ast.Name) and func.id == "copyto")
    for node in ast.walk(tree):
        if (isinstance(node, ast.AugAssign) and grad_array(node.target)
                or isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Subscript) and grad_array(t)
                    for t in node.targets)
                or isinstance(node, ast.Call) and any(
                    kw.arg == "out" and grad_array(kw.value)
                    for kw in node.keywords)
                or isinstance(node, ast.Call) and copyto(node.func)
                and (node.args and grad_array(node.args[0]) or any(
                    kw.arg == "dst" and grad_array(kw.value)
                    for kw in node.keywords))):
            yield node.lineno


class TestGradOwnership:
    """Gradients are stored without a copy, so tensors may share one grad
    array; nothing in the library may write into a grad array in place."""

    SRC = Path(ad.__file__).parent

    def test_no_code_writes_into_a_grad(self):
        found = [f"{path.name}:{line}" for path in sorted(self.SRC.glob("*.py"))
                 for line in _grad_writes(ast.parse(path.read_text()))]
        assert found == []

    def test_checker_sees_each_grad_write(self):
        source = """
p.grad += g; p.grad[0] -= 1; p.grad[...] = 0; np.multiply(p.grad, s, out=p.grad)
np.add(p.grad[1:], 1, out=p.grad[1:])
p.grad = p.grad * s; g = p.grad[0]; np.sum(p.grad, out=buf); p.data += g; x[0] = 1
np.copyto(p.grad, g); np.copyto(p.grad[1:], 0); copyto(dst=q.grad, src=g)
np.copyto(p.data, p.grad); np.copyto(w, g.grad[0]); np.concatenate([p.grad])
"""
        assert sorted(_grad_writes(ast.parse(source))) == [2, 2, 2, 2, 3, 5, 5, 5]

    def test_shared_grad_ends_like_separate_copies(self):
        """Two leaves fed by one add share their grad array; clipping (which
        fires here) and an AdamW step leave them where separate copies of
        that grad leave them, and the shared array keeps its values."""
        rng = SessionRng(48)
        init = [rng.normal(1.0, (3, 4), np.float32) for _ in range(2)]
        weights = Tensor(rng.normal(50.0, (3, 4), np.float32))
        shared = {n: Tensor(a.copy(), requires_grad=True)
                  for n, a in zip("ab", init)}
        ad.reduce_sum((shared["a"] + shared["b"]) * weights).backward()
        g = shared["a"].grad
        assert shared["b"].grad is g
        before = g.copy()
        separate = {n: Tensor(a.copy(), requires_grad=True)
                    for n, a in zip("ab", init)}
        for p in separate.values():
            p.grad = g.copy()
        results = []
        for params in (shared, separate):
            norm = clip_global_norm(params, max_norm=1.0)
            assert norm > 1.0
            AdamW(params, lr=0.1, weight_decay=0.5).step()
            results.append([params[n].data.tobytes() for n in "ab"] +
                           [params[n].grad.tobytes() for n in "ab"])
        assert results[0] == results[1]
        assert g.tobytes() == before.tobytes()


def _foreign_in_place_writes(tree):
    """(function, line) of each augmented assignment, or `out=` argument,
    whose target (or the array it subscripts) is not a name the function
    itself binds: a parameter, an attribute such as `.data` or `.grad`, a
    name captured from an enclosing function, or an alias (a name bound to
    an attribute, name or subscript, such as `x = a.data`)."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        args = fn.args
        params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                  + [args.vararg, args.kwarg] if a is not None}
        own, stack = [], list(ast.iter_child_nodes(fn))
        while stack:  # this function's nodes, not those of nested ones
            node = stack.pop()
            own.append(node)
            if not isinstance(node, (ast.FunctionDef, ast.Lambda,
                                     ast.ClassDef)):
                stack.extend(ast.iter_child_nodes(node))
        augmented = {id(n.target) for n in own if isinstance(n, ast.AugAssign)}
        bound = {n.id for n in own if isinstance(n, ast.Name)
                 and isinstance(n.ctx, ast.Store) and id(n) not in augmented}
        bound -= {t.id for n in own if isinstance(n, ast.Assign) and isinstance(
                      n.value, (ast.Attribute, ast.Name, ast.Subscript))
                  for t in n.targets if isinstance(t, ast.Name)}
        for node in own:
            targets = ([node.target] if isinstance(node, ast.AugAssign) else
                       [kw.value for kw in node.keywords if kw.arg == "out"]
                       if isinstance(node, ast.Call) else [])
            for target in targets:
                while isinstance(target, ast.Subscript):
                    target = target.value
                if not (isinstance(target, ast.Name) and target.id in bound
                        and target.id not in params):
                    yield getattr(fn, "name", "<lambda>"), node.lineno


class TestInPlaceOnlyOnOwnBuffers:
    """An autodiff kernel writes in place only into arrays it allocated in
    the same call: never into a parameter (g included), an attribute, or
    an array a backward closure captured from its op."""

    def test_autodiff_writes_only_its_own_buffers(self):
        tree = ast.parse(Path(ad.__file__).read_text())
        assert list(_foreign_in_place_writes(tree)) == []

    def test_checker_sees_each_foreign_write(self):
        source = """
def op(x, g, *rest, out=None, **kw):
    x += 1; g[0] -= 1; np.exp(g, out=g); t.data *= 2; x.grad[1:] += 1
    rest += (); out += 1; kw["a"] += 1; np.sin(x, out=x.data)
    buf = np.zeros(3); buf += 1; buf[0] *= 2; np.exp(buf, out=buf[1:])
    taps = np.ones(3); taps[0] = 5; view = x.data; view *= 2; y = x; y += 1
    for i in range(2):
        i += 1
    def bwd(h):
        taps[1:] += h; np.exp(h, out=buf); buf += 1
        mine = h * 2; mine += taps; np.add(mine, 1, out=mine)
    f = lambda a: np.exp(a, out=taps)
    return buf
"""
        found = sorted(_foreign_in_place_writes(ast.parse(source)))
        assert found == sorted([("op", 3)] * 5 + [("op", 4)] * 4
                               + [("op", 6)] * 2 + [("bwd", 10)] * 3
                               + [("<lambda>", 12)])


class TestGetitemGradient:
    @pytest.mark.parametrize("index", [
        slice(1, 4), slice(None, None, -2), 2, -1, np.int64(3),
        (slice(0, 2), 1), (1, slice(None, None, 2)), (-2, -1),
        np.array([0, 0, 3]), (np.array([1, 1, 4]), np.array([2, 2, 0])),
    ], ids=repr)
    def test_matches_add_at(self, index):
        """Basic indices assign the upstream gradient into place; integer
        arrays accumulate repeats.  Both equal np.add.at."""
        rng = SessionRng(41)
        x = rand64(rng, (5, 4))
        out = ad.getitem(x, index)
        g = rng.normal(1.0, out.shape, np.float64)
        ad.reduce_sum(out * Tensor(g)).backward()
        expected = np.zeros_like(x.data)
        np.add.at(expected, index, g)
        np.testing.assert_array_equal(x.grad, expected)


# Every op that records a tape node, and each further form of one under
# "<op>/<form>": (call, input shapes).
RECORDING_OPS = {
    "add": (ad.add, [(3, 4), (4,)]),
    "sub": (ad.sub, [(3, 4), (4,)]),
    "mul": (ad.mul, [(3, 4), (3, 1)]),
    "power": (lambda a: ad.power(a, 3.0), [(3, 4)]),
    "exp": (ad.exp, [(3, 4)]),
    "relu": (ad.relu, [(3, 4)]),
    "gelu": (ad.gelu, [(3, 4)]),
    "matmul": (ad.matmul, [(2, 3, 4), (4, 2)]),
    "linear": (ad.linear, [(2, 3, 4), (4, 2), (2,)]),
    "linear/low_rank": (lambda x, w, bias, a, b: _lora_linear(
        x, w, bias, a, b, 0.5), [(2, 3, 4), (4, 2), (2,), (3, 4), (2, 3)]),
    "reshape": (lambda a: ad.reshape(a, (4, 3)), [(3, 4)]),
    "transpose": (lambda a: ad.transpose(a, (2, 0, 1)), [(2, 3, 4)]),
    "concat": (lambda *p: ad.concat(p, axis=1), [(3, 4), (3, 2), (3, 1)]),
    "stack": (lambda *p: ad.stack(p, axis=1), [(3, 4), (3, 4)]),
    "pad": (lambda a: ad.pad(a, ((1, 0), (0, 2))), [(3, 4)]),
    "getitem": (lambda a: ad.getitem(a, (np.array([0, 0, 2]), slice(1, 3))),
                [(3, 4)]),
    "reduce_sum": (lambda a: ad.reduce_sum(a, axis=1), [(3, 4)]),
    "reduce_mean": (lambda a: ad.reduce_mean(a, axis=(0, 2)), [(2, 3, 4)]),
    "reduce_max": (lambda a: ad.reduce_max(a, axis=0, keepdims=True), [(3, 4)]),
    "softmax": (ad.softmax, [(3, 4)]),
    "log_softmax": (lambda a: ad.log_softmax(a, axis=0), [(3, 4)]),
    "layer_norm": (ad.layer_norm, [(2, 3, 4), (4,), (4,)]),
    "attention": (lambda q, k, v: ad.attention(q, k, v, nn.causal_mask(5)[:3]),
                  [(2, 3, 4), (2, 5, 4), (2, 5, 2)]),
    "conv1d": (lambda x, k, b: ad.conv1d(x, k, b, dilation=2),
               [(6, 3), (3, 3, 2), (2,)]),
}
OPS = pytest.mark.parametrize("op", sorted(RECORDING_OPS))


def _op_inputs(op, trainable):
    """The op's inputs, seeded by its name; input i requires grad when
    trainable[i] does."""
    rng = SessionRng(sum(map(ord, op)))
    return [Tensor(rng.normal(1.0, shape, np.float64), requires_grad=t)
            for shape, t in zip(RECORDING_OPS[op][1], trainable)]


def _is_constant(out):
    return out._parents == () and out._backward is None and not out.requires_grad


class TestNoGrad:
    """The recording rule of `_node`, op by op: a node holds exactly the
    inputs that require grad, and nothing is recorded under no_grad or when
    no input requires grad."""

    def test_table_lists_every_recording_op(self):
        tree = ast.parse(inspect.getsource(ad))
        recording = {fn.name for fn in tree.body
                     if isinstance(fn, ast.FunctionDef) and any(
                         isinstance(c, ast.Call) and getattr(c.func, "id", "") == "_node"
                         for c in ast.walk(fn))}
        assert recording == {op.partition("/")[0] for op in RECORDING_OPS}

    @OPS
    def test_results_are_constants(self, op):
        fn, shapes = RECORDING_OPS[op]
        inputs = _op_inputs(op, [True] * len(shapes))
        with ad.no_grad():
            out = fn(*inputs)
        assert _is_constant(out)
        np.testing.assert_array_equal(out.data, fn(*inputs).data)

    @OPS
    def test_frozen_inputs_record_no_node(self, op):
        fn, shapes = RECORDING_OPS[op]
        assert _is_constant(fn(*_op_inputs(op, [False] * len(shapes))))

    @OPS
    def test_node_holds_exactly_the_grad_inputs(self, op):
        """Every mix of frozen and grad inputs: the parents are the grad
        inputs in argument order, and backward gives each of them the
        gradient it gets when every input requires grad."""
        fn, shapes = RECORDING_OPS[op]
        masks = [m for m in itertools.product([True, False], repeat=len(shapes))
                 if any(m)]
        expected = None
        for mask in masks:
            inputs = _op_inputs(op, mask)
            out = fn(*inputs)
            assert out.requires_grad and out._backward is not None
            assert out._parents == tuple(t for t in inputs if t.requires_grad)
            weights = SessionRng(9).normal(1.0, out.shape, np.float64)
            ad.reduce_sum(out * Tensor(weights)).backward()
            grads = [t.grad for t in inputs]
            expected = expected or grads  # the all-grad mask comes first
            for t, g, want in zip(inputs, grads, expected):
                if t.requires_grad:
                    np.testing.assert_array_equal(g, want)
                else:
                    assert g is None

    def test_nesting_restores_outer_state(self):
        x = t64([1.0, 2.0])
        with ad.no_grad():
            with ad.no_grad():
                assert not (x * 2.0).requires_grad
            assert not (x * 2.0).requires_grad
        out = ad.reduce_sum(x * 2.0)
        assert out.requires_grad
        out.backward()
        np.testing.assert_allclose(x.grad, [2.0, 2.0])

    def test_exception_restores_recording(self):
        x = t64([1.0])
        with pytest.raises(DimensionError):
            with ad.no_grad():
                ad.matmul(x, t64(np.ones((2, 2))))
        assert (x * 2.0).requires_grad
