"""Optimizer, learning-rate schedule, gradient clipping, and the training loop."""

import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import TINY_TEXTS, make_tiny_model, tiny_clips, traced_bytes
from oracles import (reference_adamw_step, reference_clip_global_norm,
                     reference_folded_adamw_step,
                     reference_grouped_clip_global_norm)
import surgflow
from surgflow import optim
from surgflow.autodiff import Tensor, reduce_sum
from surgflow.errors import ConfigError, NumericError
from surgflow.objectives import valor_loss
from surgflow.optim import AdamW, CosineWarmupSchedule, clip_global_norm, train
from surgflow.rng import SessionRng
from surgflow.temporal import (TemporalConfig, build_temporal_model,
                               stage2_loss)


_OTHER = {np.float32: np.float64, np.float64: np.float32}
_G = optim._GROUP_SIZE
# 0-d, 1-element, small, just under, at and just over one group, and the
# [3, 64, 64] conv kernel of the temporal models
SHAPES = [(), (1,), (64,), (7, 9), (_G // 128 - 1, 128), (_G // 128, 128),
          (_G // 128 + 1, 128), (3, 64, 64)]
# a tensor's shape, whether its weight takes the other float dtype, its grad
# dtype (None: no grad), and whether its weight and grad are transposed
LAID_OUT_TENSOR = st.fixed_dictionaries({
    "shape": st.sampled_from(SHAPES), "other": st.booleans(),
    "grad": st.sampled_from([None, np.float32, np.float64]),
    "t_data": st.booleans(), "t_grad": st.booleans()})
# every case at once: a None grad between two tensors of one group, the
# dtypes interleaved, a tensor larger than a group
MIXED_LAYOUT = [
    dict(shape=(7, 9), other=False, grad=np.float64, t_data=True, t_grad=True),
    dict(shape=(), other=False, grad=np.float32, t_data=False, t_grad=False),
    dict(shape=(1,), other=False, grad=None, t_data=False, t_grad=False),
    dict(shape=(64,), other=False, grad=np.float64, t_data=False,
         t_grad=False),
    dict(shape=(64,), other=True, grad=np.float32, t_data=False, t_grad=False),
    dict(shape=(_G // 128 + 1, 128), other=False, grad=np.float32,
         t_data=True, t_grad=False),
    dict(shape=(_G // 128 - 1, 128), other=False, grad=np.float64,
         t_data=False, t_grad=True),
    dict(shape=(3, 64, 64), other=True, grad=np.float64, t_data=True,
         t_grad=True)]


# a grad's shape and dtype, whether its weight takes the other float dtype,
# and how the grad lies in memory (None: no grad)
CLIPPED_GRAD = st.fixed_dictionaries({
    "shape": st.sampled_from(SHAPES),
    "dtype": st.sampled_from([np.float32, np.float64]), "other": st.booleans(),
    "kind": st.sampled_from([None, "plain", "transposed", "sliced"])})


def _laid_out(a, transposed):
    """`a` itself, or an array of equal values stored transposed."""
    return a.T.copy().T if transposed else a


def quad_params(seed=0):
    rng = SessionRng(seed)
    return {"x": Tensor(rng.normal(1.0, (4,)), requires_grad=True)}


class TestAdamW:
    def test_minimizes_quadratic(self):
        params = quad_params()
        opt = AdamW(params, lr=0.1, weight_decay=0.0)
        for _ in range(200):
            opt.zero_grad()
            loss = reduce_sum(params["x"] * params["x"])
            loss.backward()
            opt.step()
        assert np.all(np.abs(params["x"].data) < 1e-2)

    def test_first_step_size_is_lr(self):
        # with bias correction, |update| == lr regardless of gradient scale
        params = {"x": Tensor(np.array([5.0], np.float32), requires_grad=True)}
        opt = AdamW(params, lr=0.25, weight_decay=0.0)
        opt.zero_grad()
        reduce_sum(params["x"] * 3.0).backward()
        before = params["x"].data.copy()
        opt.step()
        assert abs(before[0] - params["x"].data[0]) == pytest.approx(0.25, rel=1e-4)

    def test_weight_decay_decoupled(self):
        # zero gradient: only the decay term moves the weights
        params = {"x": Tensor(np.array([2.0], np.float32), requires_grad=True)}
        opt = AdamW(params, lr=0.1, weight_decay=0.5)
        params["x"].grad = np.zeros(1, np.float32)
        opt.step()
        assert params["x"].data[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_frozen_params_skipped(self):
        """Frozen tensors are not the optimizer's; over an empty or an
        all-frozen dict it steps without error and touches nothing."""
        frozen = Tensor(np.ones(2, np.float32), requires_grad=False)
        for params in ({}, {"f": frozen}):
            opt = AdamW(params, lr=0.1)
            assert opt.params == {}
            opt.step()
            opt.step()
            assert opt.t == 2
        assert frozen.grad is None
        assert frozen.data.tobytes() == np.ones(2, np.float32).tobytes()

    @pytest.mark.parametrize("weight_decay", [0.0, 0.5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @settings(max_examples=50)
    @given(layout=st.lists(LAID_OUT_TENSOR, min_size=1, max_size=8),
           seed=st.integers(0, 2 ** 16))
    @example(layout=MIXED_LAYOUT, seed=0)
    def test_bit_equal_to_out_of_place_reference(self, dtype, weight_decay,
                                                 layout, seed):
        """Five in-place steps leave the weights and both moments with the
        bits of the per-tensor out-of-place arithmetic of the folded
        update (reference_folded_adamw_step), over layouts that
        straddle the optimizer's groups: 0-d, 1-element and larger-than-a-
        group tensors, `dtype` weights interleaved with the other float
        dtype, grads of either dtype, transposed grads and transposed
        weights.  A tensor whose grad is None stays untouched, and every
        weight is updated in its own array."""
        rng = SessionRng(seed)
        init, grad_dtypes = {}, {}
        for i, spec in enumerate(layout):
            name = f"t{i}"
            init[name] = np.asarray(rng.normal(
                1.0, spec["shape"], _OTHER[dtype] if spec["other"] else dtype))
            grad_dtypes[name] = spec["grad"]
        sides = [{n: Tensor(_laid_out(a.copy(), spec["t_data"]),
                            requires_grad=True)
                  for (n, a), spec in zip(init.items(), layout)}
                 for _ in range(2)]
        arrays = {n: p.data for n, p in sides[0].items()}
        opt = AdamW(sides[0], lr=0.1, weight_decay=weight_decay)
        m = {n: np.zeros_like(a) for n, a in init.items()}
        v = {n: np.zeros_like(a) for n, a in init.items()}
        for step in range(1, 6):
            for (name, gd), spec in zip(grad_dtypes.items(), layout):
                if gd is None:
                    continue
                g = _laid_out(np.asarray(rng.normal(1.0, spec["shape"], gd)),
                              spec["t_grad"])
                for side in sides:
                    side[name].grad = g.copy(order="K")
            opt.lr = 0.1 / step
            opt.step()
            reference_folded_adamw_step(sides[1], m, v, step, 0.1 / step,
                                        weight_decay=weight_decay)
            for name in init:
                got, want = sides[0][name].data, sides[1][name].data
                assert got is arrays[name]
                assert got.dtype == want.dtype == init[name].dtype
                assert got.tobytes() == want.tobytes(), (step, name)
                assert opt._m[name].tobytes() == m[name].tobytes()
                assert opt._v[name].tobytes() == v[name].tobytes()
        for name, gd in grad_dtypes.items():
            if gd is None:
                assert sides[0][name].data.tobytes() == init[name].tobytes()
                assert not opt._m[name].any() and not opt._v[name].any()


class TestRealLayouts:
    @pytest.mark.parametrize("variant", ["tcn", "asformer"])
    def test_temporal_training_ends_like_the_per_tensor_oracles(self, variant):
        """Three full training steps (forward, stage2_loss, backward, clip,
        AdamW) of the real TCN or ASFormer parameter layout: the library and
        the per-tensor oracles give the same norms and leave every
        parameter byte-equal."""
        cfg = TemporalConfig()
        rng = SessionRng(21)
        feats = rng.normal(1.0, (40, cfg.feature_dim), np.float32)
        labels = rng.integers(0, cfg.num_classes, 40)
        models = [build_temporal_model(variant, cfg, SessionRng(3))
                  for _ in range(2)]
        params = [model.parameters() for model in models]
        opt = AdamW(params[0], lr=1e-3, weight_decay=0.01)
        m = {n: np.zeros_like(p.data) for n, p in params[1].items()}
        v = {n: np.zeros_like(p.data) for n, p in params[1].items()}
        norms = []
        for step in range(1, 4):
            for model, ps in zip(models, params):
                for p in ps.values():
                    p.zero_grad()
                stage2_loss(model.forward(feats), labels, variant,
                            cfg).backward()
            norms.append((clip_global_norm(params[0], 5.0),
                          reference_grouped_clip_global_norm(
                              params[1], 5.0, optim._GROUP_SIZE)))
            opt.step()
            reference_folded_adamw_step(params[1], m, v, step, 1e-3,
                                        weight_decay=0.01)
        assert all(a == b for a, b in norms) and norms[0][0] > 5.0
        for name, p in params[0].items():
            assert p.data.tobytes() == params[1][name].data.tobytes(), name


class TestSchedule:
    def test_warmup_then_cosine(self):
        sched = CosineWarmupSchedule(1.0, 0.0, warmup_steps=4, total_steps=12)
        assert sched.lr(0) == pytest.approx(0.25)
        assert sched.lr(3) == pytest.approx(1.0)
        # midpoint of the cosine phase
        assert sched.lr(8) == pytest.approx(0.5)
        assert sched.lr(12) == pytest.approx(0.0, abs=1e-12)
        assert sched.lr(50) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_decay_after_warmup(self):
        sched = CosineWarmupSchedule(1e-3, 1e-6, warmup_steps=5, total_steps=40)
        values = [sched.lr(s) for s in range(5, 41)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1e-6)

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            CosineWarmupSchedule(1.0, 0.0, warmup_steps=0, total_steps=5)
        with pytest.raises(ConfigError):
            CosineWarmupSchedule(1.0, 0.0, warmup_steps=5, total_steps=5)
        with pytest.raises(ConfigError):
            CosineWarmupSchedule(1.0, 2.0, warmup_steps=1, total_steps=5)


class TestClipping:
    def test_norm_preserved_below_threshold(self):
        params = quad_params(1)
        params["x"].grad = np.array([0.3, 0.0, 0.0, 0.0], np.float32)
        norm = clip_global_norm(params, max_norm=5.0)
        assert norm == pytest.approx(0.3)
        np.testing.assert_allclose(params["x"].grad, [0.3, 0, 0, 0])

    def test_scaled_to_max_norm(self):
        params = quad_params(2)
        params["x"].grad = np.full(4, 10.0, np.float32)
        before = math.sqrt(4 * 100.0)
        norm = clip_global_norm(params, max_norm=5.0)
        assert norm == pytest.approx(before)
        after = np.linalg.norm(params["x"].grad)
        assert after == pytest.approx(5.0, rel=1e-5)

    def test_global_across_tensors(self):
        a = Tensor(np.zeros(1, np.float32), requires_grad=True)
        b = Tensor(np.zeros(1, np.float32), requires_grad=True)
        a.grad = np.array([3.0], np.float32)
        b.grad = np.array([4.0], np.float32)
        clip_global_norm({"a": a, "b": b}, max_norm=1.0)
        total = math.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
        assert total == pytest.approx(1.0, rel=1e-5)
        # direction preserved
        assert a.grad[0] / b.grad[0] == pytest.approx(0.75, rel=1e-5)

    def test_none_grads_ignored(self):
        """Without any grad the norm is 0.0 and nothing is touched."""
        params = quad_params(3)
        assert clip_global_norm(params, 1.0) == 0.0
        assert clip_global_norm({}, 1.0) == 0.0
        before = params["x"].data.copy()
        assert clip_global_norm(params, 0.0) == 0.0
        assert params["x"].grad is None
        assert params["x"].data.tobytes() == before.tobytes()

    @given(layout=st.lists(CLIPPED_GRAD, min_size=1, max_size=10),
           seed=st.integers(0, 2 ** 16))
    @example(layout=[dict(shape=(5, 7), dtype=np.float32, other=False,
                          kind="plain"),
                     dict(shape=(2, 6), dtype=np.float64, other=False,
                          kind="transposed"),
                     dict(shape=(9,), dtype=np.float32, other=False,
                          kind="plain")], seed=12)
    def test_norm_is_the_float64_sum_of_squares(self, layout, seed):
        """The norm has the bits of reference_grouped_clip_global_norm: per
        group of tensors, one float64 sum of squares, summed in order; a
        transposed or sliced grad is read as it lies.  The layouts span
        several groups and mix f32 and f64 grads and weights."""
        rng = SessionRng(seed)
        params = {}
        for i, spec in enumerate(layout):
            dtype = _OTHER[spec["dtype"]] if spec["other"] else spec["dtype"]
            params[str(i)] = Tensor(np.zeros(spec["shape"], dtype),
                                    requires_grad=True)
            if spec["kind"] is None:
                continue
            g = np.asarray(rng.normal(3.0, spec["shape"], spec["dtype"]))
            if spec["kind"] == "transposed":
                g = _laid_out(g, True)
            elif spec["kind"] == "sliced" and g.ndim:
                wide = rng.normal(3.0, g.shape[:-1] + (2 * g.shape[-1],),
                                  spec["dtype"])
                g = wide[..., ::2]
            params[str(i)].grad = g
        expected = reference_grouped_clip_global_norm(params, math.inf, _G)
        assert clip_global_norm(params, max_norm=1.0) == expected


# Item 4's op level for the folded update and the per-group norm: the error
# against an exact evaluation, measured on 6,000 seeded draws per check
# (float32 and float64, up to 400 elements, steps 1 to 2e5, lr 1e-9 to 0.1,
# decay 0, 0.01 and 0.5, gradients over eleven decades, zeros among the
# gradients and moments; norms over up to 11 tensors of up to 4 groups):
# - the weights after one step against the textbook update
#   w - lr (m_hat / (sqrt(v_hat) + eps) + wd w), in units of eps times
#   |w'| + lr (|m_hat| / (sqrt(v_hat) + eps) + wd |w|): folded 1.45 for
#   float32 and 1.51 for float64; the unfolded arithmetic before it, 1.61
#   and 1.44;
# - the norm against math.fsum of the same float64 squares, in units of
#   float64's eps times the norm: per group 1.82; per tensor, as before,
#   1.82.
# The bounds leave about half as much again.
UPDATE_BOUND = 2.5
NORM_BOUND = 3.0


def _textbook_weights(w, m, v, step, lr, weight_decay):
    """(w', scale): the weights after the textbook AdamW update from moments
    `m` and `v` (already updated for `step`), evaluated in float64 for
    float32 weights and in NumPy's longdouble (64-bit mantissa here) for
    float64 weights, with the bias corrections of the library's float64
    scalars; and the scale the error is measured in, eps times
    |w'| + lr (|m_hat| / (sqrt(v_hat) + eps) + wd |w|)."""
    hi = np.float64 if w.dtype == np.float32 else np.longdouble
    bc1, bc2 = hi(1.0 - AdamW.beta1 ** step), hi(1.0 - AdamW.beta2 ** step)
    m_hat, w_hi = m.astype(hi) / bc1, w.astype(hi)
    denom = np.sqrt(v.astype(hi) / bc2) + hi(AdamW.eps)
    want = w_hi - hi(lr) * (m_hat / denom + hi(weight_decay) * w_hi)
    size = hi(lr) * (np.abs(m_hat) / denom + hi(weight_decay) * np.abs(w_hi))
    return want, (np.abs(want) + size) * hi(np.finfo(w.dtype).eps)


class TestValueBounds:
    """The folded update and the per-group norm stay within stated bounds of
    an exact evaluation, as the arithmetic before them does."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(n=st.integers(1, 400), step=st.integers(1, 200_000),
           lr_exp=st.floats(-9.0, -1.0), weight_decay=st.sampled_from(
               [0.0, 0.01, 0.5]), g_exp=st.floats(-8.0, 3.0),
           seed=st.integers(0, 2 ** 16))
    @example(n=400, step=1, lr_exp=-3.0, weight_decay=0.01, g_exp=0.0, seed=0)
    @example(n=400, step=200_000, lr_exp=-9.0, weight_decay=0.01, g_exp=-8.0,
             seed=1)
    def test_update_within_bound_of_textbook(self, dtype, n, step, lr_exp,
                                             weight_decay, g_exp, seed):
        """One step from drawn moments: the moments keep their bits, and the
        weights of the library and of the unfolded oracle are each within
        UPDATE_BOUND of the textbook update."""
        rng = SessionRng(seed)
        lr = 10.0 ** lr_exp
        w = rng.normal(1.0, (n,), dtype)
        sign = np.where(rng.uniform(0.0, 1.0, (n,), np.float64) < 0.5, -1, 1)
        g = np.exp(rng.normal(3.0, (n,), np.float64)) * 10.0 ** g_exp * sign
        g[rng.uniform(0.0, 1.0, (n,), np.float64) < 0.1] = 0.0
        m0 = (g * rng.uniform(-1.5, 1.5, (n,), np.float64)).astype(dtype)
        v0 = (g * rng.uniform(0.0, 2.0, (n,), np.float64)) ** 2
        v0[rng.uniform(0.0, 1.0, (n,), np.float64) < 0.1] = 0.0
        v0, g = v0.astype(dtype), g.astype(dtype)
        params = {"w": Tensor(w.copy(), requires_grad=True)}
        opt = AdamW(params, lr=lr, weight_decay=weight_decay)
        opt.t = step - 1
        opt._m["w"][...], opt._v["w"][...] = m0, v0
        params["w"].grad = g
        opt.step()
        old = {"w": Tensor(w.copy(), requires_grad=True)}
        old["w"].grad = g
        m, v = {"w": m0.copy()}, {"w": v0.copy()}
        reference_adamw_step(old, m, v, step, lr, weight_decay=weight_decay)
        assert opt._m["w"].tobytes() == m["w"].tobytes()
        assert opt._v["w"].tobytes() == v["w"].tobytes()
        want, scale = _textbook_weights(w, m["w"], v["w"], step, lr,
                                        weight_decay)
        for got in (params["w"].data, old["w"].data):
            assert np.max(np.abs(got - want) / scale) <= UPDATE_BOUND

    @given(layout=st.lists(CLIPPED_GRAD, min_size=1, max_size=10),
           dist=st.sampled_from(["normal", "positive", "wide"]),
           seed=st.integers(0, 2 ** 16))
    def test_norm_within_bound_of_fsum(self, layout, dist, seed):
        """The per-group norm and the per-tensor norm before it are each
        within NORM_BOUND of the square root of math.fsum of the grads'
        float64 squares."""
        rng = SessionRng(seed)
        params, squares = {}, []
        for i, spec in enumerate(layout):
            dtype = _OTHER[spec["dtype"]] if spec["other"] else spec["dtype"]
            params[str(i)] = Tensor(np.zeros(spec["shape"], dtype),
                                    requires_grad=True)
            if spec["kind"] is None:
                continue
            shape = spec["shape"]
            if dist == "normal":
                g = rng.normal(3.0, shape, spec["dtype"])
            elif dist == "positive":
                g = rng.uniform(0.0, 1.0, shape, spec["dtype"])
            else:
                g = (np.exp(rng.normal(3.0, shape, np.float64)) * np.where(
                    rng.uniform(0.0, 1.0, shape, np.float64) < 0.5, -1, 1))
            params[str(i)].grad = np.asarray(g, spec["dtype"])
            squares += (params[str(i)].grad.astype(np.float64) ** 2).ravel(
                ).tolist()
        exact = math.sqrt(math.fsum(squares))
        scale = np.finfo(np.float64).eps * exact
        assert abs(clip_global_norm(params, math.inf) - exact) <= (
            NORM_BOUND * scale)
        assert abs(reference_clip_global_norm(params, math.inf) - exact) <= (
            NORM_BOUND * scale)


class TestOptimizerThreads:
    """Clipping and AdamW give the same bits under one BLAS thread and two."""

    SCRIPT = """
import hashlib
import surgflow.cli  # caps the thread pools from WL_THREADS before NumPy
from surgflow.autodiff import Tensor
from surgflow.optim import AdamW, clip_global_norm
from surgflow.rng import SessionRng
rng = SessionRng(5)
params = {name: Tensor(rng.normal(1.0, shape), requires_grad=True)
          for name, shape in (("big", (40000,)), ("a", (64, 64)),
                              ("b", (3, 64, 64)))}
opt = AdamW(params, lr=1e-2)
for _ in range(3):
    for p in params.values():
        p.grad = rng.normal(3.0, p.shape)
    print(repr(clip_global_norm(params)))
    opt.step()
print(hashlib.sha256(b"".join(p.data.tobytes()
                             for p in params.values())).hexdigest())
"""

    def run(self, threads):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
        src = str(Path(surgflow.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        env["WL_THREADS"] = str(threads)
        return subprocess.run([sys.executable, "-c", self.SCRIPT], env=env,
                              check=True, capture_output=True, text=True,
                              timeout=120).stdout.split()

    def test_norms_and_weights_equal_across_thread_counts(self):
        """Three clip + AdamW steps over groups of 40,000 and 16,384
        elements, where a BLAS reduction would split its sum across two
        threads: the printed norm reprs and the weights' hash agree."""
        one, two = self.run(1), self.run(2)
        assert len(one) == 4 and float(one[0]) > optim.CLIP_NORM
        assert one == two


def loop_cfg(epochs):
    return SimpleNamespace(epochs=epochs, lr_max=0.1, lr_min=1e-3)


class TestTrain:
    """optim.train: batching, schedule, and the stop on a non-finite step."""

    def quad_loss(self, params, batches):
        def loss_of(batch):
            batches.append(list(batch))
            loss = reduce_sum(params["x"] * params["x"])
            return loss, {"loss": float(loss.data)}
        return loss_of

    def test_single_step_trains_at_lr_max(self):
        params = quad_params(4)
        before = params["x"].data.copy()
        rows = train(params, 1, 1, self.quad_loss(params, []), loop_cfg(1),
                     SessionRng(0))
        assert [r["step"] for r in rows] == [0]
        assert rows[0]["lr"] == 0.1
        # the first AdamW step moves each weight by lr (sign(g) + decay w),
        # and g = 2w has the weight's sign
        np.testing.assert_allclose(
            before - params["x"].data,
            0.1 * (np.sign(before) + optim.WEIGHT_DECAY * before), rtol=1e-5)

    def test_peak_memory_holds_one_tape(self):
        """The loop drops each step's tape before the next forward: three
        stage-1 steps peak within a few KiB of one (measured 10.8 KiB
        higher; 258.2 KiB when the previous tape lived on)."""
        def peak(steps):
            model = make_tiny_model()
            clips = tiny_clips(SessionRng(7), 8)
            ids = [model.vocab.encode(TINY_TEXTS[i % 3]) for i in range(8)]
            rng = SessionRng(9)

            def loss_of(batch):
                report = valor_loss(model, [clips[i] for i in batch],
                                    [ids[i] for i in batch], rng)
                return report.total, {}
            return traced_bytes(lambda: train(
                model.parameters(), 8, 4, loss_of, loop_cfg(2), rng,
                max_steps=steps))[1]
        assert peak(3) <= peak(1) + 32 * 1024

    def test_max_steps_ends_partway_through_an_epoch(self):
        params = quad_params(5)
        batches = []
        # 5 items in batches of 2: 3 steps per epoch, 9 in all, cut at 4
        rows = train(params, 5, 2, self.quad_loss(params, batches),
                     loop_cfg(3), SessionRng(8), max_steps=4)
        assert [r["step"] for r in rows] == [0, 1, 2, 3]
        sched = CosineWarmupSchedule(0.1, 1e-3, warmup_steps=3, total_steps=4)
        assert [r["lr"] for r in rows] == [sched.lr(s) for s in range(4)]
        assert list(rows[0]) == ["step", "lr", "loss", "grad_norm", "clipped"]
        orders = SessionRng(8)
        first, second = orders.permutation(5), orders.permutation(5)
        assert batches == [list(first[:2]), list(first[2:4]), list(first[4:]),
                           list(second[:2])]

    # the gradient norm starts near 3.9 * scale: below and above CLIP_NORM
    @pytest.mark.parametrize("scale", [1.0, 100.0])
    def test_rows_carry_pre_clip_norm_and_whether_it_clipped(self, scale):
        params = quad_params(9)
        norms = []

        def loss_of(batch):
            loss = scale * reduce_sum(params["x"] * params["x"])
            # d/dx scale sum(x^2) = 2 scale x, taken before this step's update
            norms.append(float(np.linalg.norm(2.0 * scale * params["x"].data
                                              .astype(np.float64))))
            return loss, {}

        rows = train(params, 3, 1, loss_of, loop_cfg(1), SessionRng(2))
        for row, norm in zip(rows, norms):
            assert row["grad_norm"] == pytest.approx(norm, rel=1e-6)
            assert row["clipped"] is (norm > optim.CLIP_NORM)
        assert {r["clipped"] for r in rows} == {scale == 100.0}

    def test_nan_loss_stops_before_updating(self):
        params = quad_params(6)
        starts = []  # the weights at the start of each step

        def loss_of(batch):
            step = len(starts)
            starts.append(params["x"].data.copy())
            loss = reduce_sum(params["x"] * params["x"])
            if step == 2:
                loss = loss * float("nan")
            return loss, {}

        with pytest.raises(NumericError, match="step 2"):
            train(params, 4, 1, loss_of, loop_cfg(2), SessionRng(1))
        assert len(starts) == 3
        # still the weights step 1 left behind
        np.testing.assert_array_equal(params["x"].data, starts[2])
        assert not np.array_equal(starts[2], starts[1])

    @pytest.mark.parametrize("name", ["epochs", "batch_size", "max_steps"])
    def test_values_below_one_rejected_before_a_step(self, name):
        params = quad_params(7)
        batches = []
        args = {"epochs": 2, "batch_size": 1, "max_steps": None, name: 0}
        with pytest.raises(ConfigError, match=name):
            train(params, 3, args["batch_size"],
                  self.quad_loss(params, batches), loop_cfg(args["epochs"]),
                  SessionRng(0), max_steps=args["max_steps"])
        assert batches == []
