"""The sum rule of the autodiff kernels: a sum along an array's last axis is
the product a @ ones[n, 1] (`autodiff._sum_last`), and a sum over the rows
of a 2-D array is ones[M] @ a (`autodiff._sum_rows`).

Op level: the helpers equal the rule as tests/oracles.py writes it in NumPy,
bit for bit, and stay within a measured bound of an exact sum, as NumPy's
pairwise sums (the oracles kept from before the rule) do.  Model level:
seeded, untrained stage-1 and stage-2 models give the same outputs, within
a measured tolerance, with the helpers swapped for the pairwise oracles.
An AST check keeps every other sum in autodiff.py on a named list.
"""

import ast
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import TINY_TEXTS
from oracles import (pairwise_sum_last, pairwise_sum_rows, product_sum_last,
                     product_sum_rows)
from surgflow import autodiff as ad
from surgflow.models import (CAPTION_PROMPT, ModelConfig, Stage1Model,
                             stage1_vocabulary)
from surgflow.pipeline import extract_features, partition
from surgflow.rng import SessionRng
from surgflow.temporal import TemporalConfig, build_temporal_model

# Worst error against an exact sum, in units of the dtype's eps times the
# sum of |a|, measured on 4,400 draws of the inputs below (float32 and
# float64, every distribution and layout, a fifth at the largest shapes):
# - the product along at most 128 columns: 8.4; over at most 2,048 rows: 19.1;
# - NumPy's sum, for comparison: 12.9 and 21.3.  Its pairwise tree runs
#   only along a contiguous axis; across rows it adds one row at a time.
# The bounds leave about half as much again.
SUM_LAST_BOUND = 12.0
SUM_ROWS_BOUND = 28.0
PAIRWISE_LAST_BOUND = 20.0
PAIRWISE_ROWS_BOUND = 32.0

DISTRIBUTIONS = st.sampled_from(["normal", "positive", "wide"])
LAYOUTS = st.sampled_from(["contiguous", "step", "transposed"])
DTYPE = pytest.mark.parametrize("dtype", [np.float32, np.float64])


def _summands(seed, shape, dist, dtype):
    """Seeded summands: standard normal; uniform on [0, 1), with no
    cancellation, which gives the largest error relative to sum |a|; or
    log-normal magnitudes over about eight decades with random signs."""
    rng = SessionRng(seed)
    if dist == "normal":
        return rng.normal(1.0, shape, dtype)
    if dist == "positive":
        return rng.uniform(0.0, 1.0, shape, dtype)
    wide = np.exp(rng.normal(3.0, shape, np.float64))
    return np.where(rng.uniform(0.0, 1.0, shape, np.float64) < 0.5,
                    -wide, wide).astype(dtype)


def _laid_out(seed, shape, dist, dtype, layout):
    """Summands of `shape` in one of three layouts: a contiguous array,
    every second element along the last axis of one twice as long, or the
    swapped last two axes of a contiguous array (contiguous for 1-D)."""
    if layout == "step":
        wide = _summands(seed, shape[:-1] + (2 * shape[-1],), dist, dtype)
        return wide[..., ::2]
    if layout == "transposed" and len(shape) > 1:
        return _summands(seed, shape[:-2] + shape[:-3:-1], dist,
                         dtype).swapaxes(-1, -2)
    return _summands(seed, shape, dist, dtype)


def _exact_last(a):
    """(sum, sum of |a|) along a's last axis, kept, in float64: a float64
    sum for float32 summands, whose rounding lies far below float32's, and
    math.fsum (exact) for float64 summands."""
    rows = a.reshape(-1, a.shape[-1]).astype(np.float64)
    if a.dtype == np.float32:
        total = rows.sum(axis=-1)
    else:
        total = np.array([math.fsum(r) for r in rows.tolist()])
    shape = a.shape[:-1] + (1,)
    return total.reshape(shape), np.abs(rows).sum(axis=-1).reshape(shape)


def _error(got, want, scale, dtype):
    """The largest |got - want| relative to `scale` (sum |a|), in units of
    `dtype`'s eps."""
    err = np.abs(got.astype(np.float64) - want) / np.maximum(scale, 1e-300)
    return float(err.max()) / np.finfo(dtype).eps


def _bit_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestSumRuleOps:
    """`_sum_last` and `_sum_rows` follow the rule bit for bit, and bound
    their error against an exact sum."""

    @DTYPE
    @settings(max_examples=60)
    @given(ndim=st.integers(1, 4),
           sizes=st.tuples(st.integers(1, 16), st.integers(1, 4),
                           st.integers(1, 128), st.integers(1, 128)),
           dist=DISTRIBUTIONS, layout=LAYOUTS, seed=st.integers(0, 2 ** 16))
    @example(ndim=4, sizes=(16, 4, 128, 128), dist="positive",
             layout="contiguous", seed=0)
    @example(ndim=4, sizes=(16, 4, 128, 128), dist="normal",
             layout="transposed", seed=1)
    def test_sum_last(self, dtype, ndim, sizes, dist, layout, seed):
        a = _laid_out(seed, sizes[4 - ndim:], dist, dtype, layout)
        got = ad._sum_last(a)
        _bit_equal(got, product_sum_last(a))
        exact, scale = _exact_last(a)
        pairwise = pairwise_sum_last(a)
        assert _error(got, exact, scale, dtype) <= SUM_LAST_BOUND
        assert _error(pairwise, exact, scale, dtype) <= PAIRWISE_LAST_BOUND
        assert (_error(got, pairwise, scale, dtype)
                <= SUM_LAST_BOUND + PAIRWISE_LAST_BOUND)

    @DTYPE
    @settings(max_examples=60)
    @given(m=st.integers(1, 2048), n=st.integers(1, 64), dist=DISTRIBUTIONS,
           layout=LAYOUTS, seed=st.integers(0, 2 ** 16))
    @example(m=2048, n=64, dist="positive", layout="contiguous", seed=0)
    @example(m=2048, n=64, dist="wide", layout="transposed", seed=1)
    def test_sum_rows(self, dtype, m, n, dist, layout, seed):
        a = _laid_out(seed, (m, n), dist, dtype, layout)
        got = ad._sum_rows(a)
        _bit_equal(got, product_sum_rows(a))
        exact, scale = (x[:, 0] for x in _exact_last(a.T))
        pairwise = pairwise_sum_rows(a)
        assert _error(got, exact, scale, dtype) <= SUM_ROWS_BOUND
        assert _error(pairwise, exact, scale, dtype) <= PAIRWISE_ROWS_BOUND
        assert (_error(got, pairwise, scale, dtype)
                <= SUM_ROWS_BOUND + PAIRWISE_ROWS_BOUND)

    @DTYPE
    def test_ones_come_from_one_read_only_buffer_that_grows(self, dtype):
        dtype = np.dtype(dtype)
        before = ad._ones(3, dtype)
        longer = ad._ones(ad._ONES[dtype].shape[0] + 5, dtype)
        assert not longer.flags.writeable and (longer == 1).all()
        assert ad._ones(4, dtype).base is longer.base
        assert (before == 1).all() and not before.flags.writeable

    @DTYPE
    def test_empty_axes(self, dtype):
        _bit_equal(ad._sum_last(np.ones((3, 0), dtype)), np.zeros((3, 1), dtype))
        _bit_equal(ad._sum_rows(np.ones((0, 4), dtype)), np.zeros(4, dtype))


def _reductions(tree):
    """(scope, axis) of each `.sum(`, `.mean(` and `np.add.reduce(` call in
    `tree`: the name of the module-level function or class it sits in
    (closures included), and the source of its axis argument, which is
    "None" when it has none ("0" for np.add.reduce, NumPy's default)."""
    for top in tree.body:
        scope = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            func = node.func
            add_reduce = (func.attr == "reduce"
                          and isinstance(func.value, ast.Attribute)
                          and func.value.attr == "add")
            if not (add_reduce or func.attr in ("sum", "mean")):
                continue
            module_call = add_reduce or (isinstance(func.value, ast.Name)
                                         and func.value.id in ("np", "numpy"))
            axis = next((kw.value for kw in node.keywords if kw.arg == "axis"),
                        None)
            if axis is None and len(node.args) > module_call:
                axis = node.args[int(module_call)]
            yield scope, (ast.unparse(axis) if axis is not None
                          else "0" if add_reduce else "None")


# The sums in autodiff.py left to NumPy.  `_unbroadcast` undoes broadcasting
# over leading and unit axes; `_sum_kept` and `reduce_mean` take their axis
# as an argument and send the last axis to the helpers instead.
NUMPY_SUMS = sorted([("_unbroadcast", "0"), ("_unbroadcast", "axis"),
                     ("_sum_kept", "axis"), ("reduce_mean", "axis")])


class TestOneSumRule:
    """No last-axis or row sum in autodiff.py bypasses the two helpers: a
    sum outside them is one of NUMPY_SUMS, none of which names the last
    axis or a row sum itself."""

    def test_autodiff_sums_are_the_listed_ones(self):
        tree = ast.parse(Path(ad.__file__).read_text())
        assert sorted(_reductions(tree)) == NUMPY_SUMS

    def test_checker_sees_each_sum(self):
        source = """
def op(a, d):
    a.sum(axis=-1, keepdims=True); a.reshape(-1, d).sum(axis=0); a.mean()
    np.add.reduce(a, -1); np.add.reduce(a); np.sum(a, 0); a.sum(-1)
    def bwd(g):
        return g.sum(axis=axis) + np.mean(g, axis=(0, 1)) + g.max(axis=-1)
class T:
    def total(self):
        return self.data.sum()
np.cumsum(x); x.cumsum(-1); np.add(a, b)
"""
        assert sorted(_reductions(ast.parse(source))) == sorted([
            ("op", "-1"), ("op", "0"), ("op", "None"), ("op", "-1"),
            ("op", "0"), ("op", "0"), ("op", "-1"), ("op", "axis"),
            ("op", "(0, 1)"), ("T", "None")])


def _model_outputs(seed):
    """Stage-1 features of a 6-s video, the last-position logits of each
    caption step with the caption's ids, and the per-stage logits of a TCN
    and an ASFormer on a [40, 64] table, from seeded untrained models at
    the library's default sizes."""
    model = Stage1Model(ModelConfig(), stage1_vocabulary(TINY_TEXTS),
                        SessionRng(seed))
    frames = SessionRng(seed + 1).uniform(0.0, 1.0, (48, 32, 32, 3))
    features = extract_features(frames, model,
                                partition(6.0, 1.0, 8.0)).features
    logits, decode = [], model.decode_multimodal

    def recording_decode(*args, **kwargs):
        hidden, out = decode(*args, **kwargs)
        logits.append(out.data[0, -1].copy())
        return hidden, out
    with ad.no_grad():
        video = model.encode_video(frames[:8])
    with mock.patch.object(model, "decode_multimodal", recording_decode):
        ids = model.generate_caption(video, model.prompt_ids(CAPTION_PROMPT))
    table = SessionRng(seed + 2).normal(1.0, (40, 64))
    stages = []
    for variant in ("tcn", "asformer"):
        net = build_temporal_model(variant, TemporalConfig(),
                                   SessionRng(seed + 3))
        with ad.no_grad():
            stages.append(np.stack([t.data for t in net.forward(table)]))
    return ids, [features, np.stack(logits)] + stages


# The largest |shipped - pairwise| relative to the output's largest |value|,
# measured at seeds 0-4: features 2.4e-7, caption logits 4.1e-7, TCN 0
# (its softmax sums 6 classes, where both orders agree), ASFormer 5.8e-7.
MODEL_TOLERANCE = 2e-6


class TestSumRuleModels:
    def test_pairwise_sums_move_outputs_within_tolerance(self):
        """The same seeded weights with the helpers swapped for the pairwise
        oracles, the kernels' sums before the rule: every output agrees
        within MODEL_TOLERANCE and the greedy caption is the same, while the
        features show that the swap took effect."""
        ids, shipped = _model_outputs(0)
        with mock.patch.object(ad, "_sum_last", pairwise_sum_last), \
                mock.patch.object(ad, "_sum_rows", pairwise_sum_rows):
            pairwise_ids, pairwise = _model_outputs(0)
        assert ids == pairwise_ids and len(ids) > 0
        assert not np.array_equal(shipped[0], pairwise[0])
        for got, want in zip(shipped, pairwise):
            assert got.shape == want.shape
            assert (np.abs(got - want).max()
                    <= MODEL_TOLERANCE * np.abs(want).max())
