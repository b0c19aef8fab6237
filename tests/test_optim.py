"""Optimizer, learning-rate schedule, gradient clipping, and the training loop."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import reference_adamw_step
from surgflow.autodiff import Tensor, reduce_sum
from surgflow.errors import ConfigError, NumericError
from surgflow.optim import AdamW, CosineWarmupSchedule, clip_global_norm, train
from surgflow.rng import SessionRng


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
        frozen = Tensor(np.ones(2, np.float32), requires_grad=False)
        opt = AdamW({"f": frozen}, lr=0.1)
        assert "f" not in opt.params

    @pytest.mark.parametrize("weight_decay", [0.0, 0.5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_out_of_place_reference(self, dtype, weight_decay):
        """Five in-place steps leave the weights and both moments with the
        bits of the out-of-place arithmetic, for an f64 grad on an f32
        weight too; a tensor whose grad is None stays untouched."""
        rng = SessionRng(11)
        shapes = {"w": (3, 4), "b": (4,), "idle": (2,)}
        init = {n: rng.normal(1.0, s, dtype) for n, s in shapes.items()}
        sides = [{n: Tensor(a.copy(), requires_grad=True)
                  for n, a in init.items()} for _ in range(2)]
        opt = AdamW(sides[0], lr=0.1, weight_decay=weight_decay)
        m = {n: np.zeros_like(a) for n, a in init.items()}
        v = {n: np.zeros_like(a) for n, a in init.items()}
        for step in range(1, 6):
            grads = {"w": rng.normal(1.0, shapes["w"], dtype),
                     "b": rng.normal(1.0, shapes["b"], np.float64)}
            for side in sides:
                for name, g in grads.items():
                    side[name].grad = g.copy()
            opt.lr = 0.1 / step
            opt.step()
            reference_adamw_step(sides[1], m, v, step, 0.1 / step,
                                 weight_decay=weight_decay)
            for name in shapes:
                got, want = sides[0][name].data, sides[1][name].data
                assert got.dtype == want.dtype == dtype
                assert got.tobytes() == want.tobytes(), (step, name)
                assert opt._m[name].tobytes() == m[name].tobytes()
                assert opt._v[name].tobytes() == v[name].tobytes()
        assert sides[0]["idle"].data.tobytes() == init["idle"].tobytes()
        assert not opt._m["idle"].any() and not opt._v["idle"].any()


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
        params = quad_params(3)
        assert clip_global_norm(params, 1.0) == 0.0

    def test_norm_is_the_float64_sum_of_squares(self):
        """The norm keeps its bits: per tensor, the float64 sum of squares,
        summed in parameter order; a transposed grad is read as it lies."""
        rng = SessionRng(12)
        grads = [rng.normal(3.0, (5, 7), np.float32),
                 rng.normal(3.0, (6, 2), np.float64).T,
                 rng.normal(3.0, (9,), np.float32)]
        params = {}
        for i, g in enumerate(grads):
            params[str(i)] = Tensor(np.zeros(g.shape, g.dtype), requires_grad=True)
            params[str(i)].grad = g
        expected = math.sqrt(sum(np.sum(g.astype(np.float64) ** 2)
                                 for g in grads))
        assert clip_global_norm(params, max_norm=1.0) == expected


def loop_cfg(epochs):
    return SimpleNamespace(epochs=epochs, lr_max=0.1, lr_min=1e-3,
                           clip_norm=5.0, weight_decay=0.0)


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
        # the first AdamW step moves each weight by exactly lr
        np.testing.assert_allclose(np.abs(params["x"].data - before), 0.1,
                                   rtol=1e-5)

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

    @pytest.mark.parametrize("clip_norm", [1.0, 100.0])
    def test_rows_carry_pre_clip_norm_and_whether_it_clipped(self, clip_norm):
        params = quad_params(9)
        norms = []

        def loss_of(batch):
            loss = reduce_sum(params["x"] * params["x"])
            # d/dx sum(x^2) = 2x, taken before this step's update
            norms.append(float(np.linalg.norm(2.0 * params["x"].data.astype(
                np.float64))))
            return loss, {}

        cfg = loop_cfg(1)
        cfg.clip_norm = clip_norm
        rows = train(params, 3, 1, loss_of, cfg, SessionRng(2))
        for row, norm in zip(rows, norms):
            assert row["grad_norm"] == pytest.approx(norm, rel=1e-6)
            assert row["clipped"] is (norm > clip_norm)
        assert {r["clipped"] for r in rows} == {clip_norm == 1.0}

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
