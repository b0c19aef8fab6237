"""Long-range temporal models: stage counts, receptive-field bounds, loss
composition, shift equivariance of the convolutional variant, and training."""

import numpy as np
import pytest

from oracles import reference_train_temporal
from surgflow import autodiff as ad
from surgflow.autodiff import Tensor
from surgflow.errors import ConfigError, InputError, NumericError
from surgflow.rng import SessionRng
from surgflow.temporal import (ASFormer, Conv1d, FeatureSequence,
                               FramePrediction, MSTCN, TemporalConfig,
                               TrainTemporalConfig, WindowedSelfAttention,
                               build_temporal_model, soft_dice, stage2_loss,
                               train_temporal)

TOY = TemporalConfig(num_classes=3, feature_dim=4, hidden=8, tcn_layers=2,
                     tcn_refinements=1, asf_encoder_layers=2,
                     asf_decoder_layers=2)


def toy_features(rng, length):
    return rng.normal(1.0, (length, TOY.feature_dim))


class TestArchitecture:
    def test_tcn_stage_count_and_shapes(self):
        model = build_temporal_model("tcn", TemporalConfig(num_classes=5,
                                                           feature_dim=4,
                                                           hidden=8), SessionRng(0))
        outs = model.forward(SessionRng(1).normal(1.0, (7, 4)))
        assert len(outs) == 1 + 3  # prediction + default refinements
        for out in outs:
            assert out.shape == (7, 5)

    def test_asformer_stage_count_and_shapes(self):
        model = build_temporal_model("asformer", TOY, SessionRng(2))
        outs = model.forward(toy_features(SessionRng(3), 9))
        assert len(outs) == 1 + TOY.asf_decoder_layers
        for out in outs:
            assert out.shape == (9, TOY.num_classes)

    @pytest.mark.parametrize("variant", ["tcn", "asformer"])
    def test_single_frame_sequence(self, variant):
        model = build_temporal_model(variant, TOY, SessionRng(4))
        outs = model.forward(toy_features(SessionRng(5), 1))
        assert all(o.shape == (1, TOY.num_classes) for o in outs)
        preds = model(FeatureSequence(toy_features(SessionRng(5), 1)))
        assert preds[-1].labels.shape == (1,)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            build_temporal_model("lstm", TOY, SessionRng(6))

    def test_dilation_clamped(self):
        cfg = TemporalConfig(tcn_layers=8)
        assert [cfg.dilation(i) for i in range(8)] == [1, 2, 4, 8, 12, 12, 12, 12]

    @pytest.mark.parametrize("variant", ["tcn", "asformer"])
    def test_per_layer_span_at_most_25(self, variant):
        cfg = TemporalConfig(num_classes=4, feature_dim=4, hidden=8,
                             tcn_layers=8, asf_encoder_layers=6)
        model = build_temporal_model(variant, cfg, SessionRng(7))
        convs = [m for m in model.modules() if isinstance(m, Conv1d)]
        assert convs
        for conv in convs:
            k = conv.kernel.shape[0]
            span = (k - 1) * conv.dilation + 1
            assert span <= 25

    def test_frame_prediction_labels(self):
        pred = FramePrediction(np.array([[0.1, 0.9], [2.0, -1.0]]))
        assert pred.labels.tolist() == [1, 0]

    def test_feature_sequence_validation(self):
        with pytest.raises(InputError):
            FeatureSequence(np.zeros((0, 4), np.float32))
        with pytest.raises(InputError):
            FeatureSequence(np.zeros(4, np.float32))


class TestShiftEquivariance:
    def test_tcn_interior_predictions_shift_with_input(self):
        model = build_temporal_model("tcn", TOY, SessionRng(8))
        rng = SessionRng(9)
        length, shift, margin = 60, 3, 12
        x = toy_features(rng, length)
        prefix = toy_features(rng, shift)
        y = model.forward(x)[-1].data
        y2 = model.forward(np.vstack([prefix, x]))[-1].data
        np.testing.assert_allclose(y2[shift + margin:length - margin + shift],
                                   y[margin:length - margin],
                                   atol=1e-4)


class TestWindowedSelfAttention:
    """Windows that tile the sequence pass no key mask, so no all-zero bias
    is built and added; value and gradients keep the bits an explicit
    all-False mask gives (adding 0.0 only turns a -0.0 score into +0.0,
    and exp maps both to 1.0)."""

    @pytest.mark.parametrize("length, window", [(8, 4), (12, 1), (5, 16)])
    def test_tiling_windows_equal_an_all_false_mask(self, length, window,
                                                    monkeypatch):
        layer = WindowedSelfAttention(8, window, SessionRng(20))
        feats = SessionRng(21).normal(1.0, (length, 8))
        weights = Tensor(SessionRng(22).normal(1.0, (length, 8)))
        w = min(window, length)

        def run(explicit):
            for p in layer.parameters().values():
                p.grad = None
            x = Tensor(feats.copy(), requires_grad=True)
            if explicit:
                chunks = ad.reshape(x, (length // w, w, 8))
                pad = np.zeros((length // w, w), bool)
                out = ad.reshape(layer.attn(chunks, chunks, key_pad=pad),
                                 (length, 8))
            else:
                out = layer(x)
            ad.reduce_sum(out * weights).backward()
            return [out.data, x.grad] + [
                p.grad for p in layer.parameters().values()]

        biases = []
        attention = ad.attention

        def spy(q, k, v, bias=None, **kwargs):
            biases.append(bias)
            return attention(q, k, v, bias, **kwargs)

        monkeypatch.setattr(ad, "attention", spy)
        got, want = run(False), run(True)
        assert biases[0] is None and biases[1] is not None
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_padded_windows_mask_the_padding(self):
        """10 rows in windows of 4: the last window's two padded keys get no
        weight, so the output equals attention over the real rows alone."""
        layer = WindowedSelfAttention(8, 4, SessionRng(23))
        x = Tensor(SessionRng(24).normal(1.0, (10, 8)))
        tail = Tensor(x.data[8:].reshape(1, 2, 8))
        want = layer.attn(tail, tail).data.reshape(2, 8)
        np.testing.assert_allclose(layer(x).data[8:], want, rtol=1e-6, atol=1e-6)


class TestLosses:
    def test_soft_dice_zero_iff_correct(self):
        labels = np.array([0, 1, 2, 1])
        confident = np.full((4, 3), -50.0, np.float32)
        confident[np.arange(4), labels] = 50.0
        assert soft_dice(Tensor(confident), labels).item() == pytest.approx(0.0, abs=1e-4)
        wrong = np.roll(confident, 1, axis=1)
        assert soft_dice(Tensor(wrong), labels).item() > 0.5

    def test_smoothing_zero_for_constant_logits(self):
        logits = Tensor(np.tile(np.array([1.0, -2.0, 0.5], np.float32), (6, 1)))
        assert ad.truncated_mse(logits, 16.0).item() == pytest.approx(0.0, abs=1e-10)

    def test_smoothing_clamped(self):
        # huge jumps: every squared difference exceeds the clamp
        logits = Tensor(np.array([[100.0, -100.0], [-100.0, 100.0]], np.float32))
        assert ad.truncated_mse(logits, 16.0).item() == pytest.approx(16.0)

    def test_tcn_loss_composition(self):
        rng = SessionRng(10)
        outputs = [Tensor(rng.normal(1.0, (5, 3))) for _ in range(2)]
        labels = np.array([0, 1, 2, 1, 0])
        got = stage2_loss(outputs, labels, "tcn", TOY).item()
        want = sum(ad.cross_entropy(o, labels).item() +
                   TOY.smoothing_weight * ad.truncated_mse(
                       o, TOY.smoothing_clamp).item()
                   for o in outputs)
        assert got == pytest.approx(want, abs=1e-5)

    def test_fixed_prev_frames(self):
        rng = SessionRng(12)
        outputs = [Tensor(rng.normal(1.0, (5, 3)), requires_grad=True)
                   for _ in range(2)]
        labels = np.array([0, 1, 2, 1, 0])
        own = [ad.log_softmax(o, axis=1).data[:-1] for o in outputs]
        assert stage2_loss(outputs, labels, "tcn", TOY, prev=own).item() == \
            stage2_loss(outputs, labels, "tcn", TOY).item()
        # A fixed previous frame replaces the detached one of the logits.
        shifted = [p + 1.0 for p in own]
        for o, p in zip(outputs, shifted):
            diff = ad.log_softmax(o, axis=1).data[1:] - p
            want = np.minimum(diff * diff, TOY.smoothing_clamp).mean()
            assert ad.truncated_mse(o, TOY.smoothing_clamp, p).item() == \
                pytest.approx(want, rel=1e-6)
        with pytest.raises(ValueError):
            stage2_loss(outputs, labels, "tcn", TOY, prev=own[:1])

    def test_asformer_loss_composition(self):
        rng = SessionRng(11)
        outputs = [Tensor(rng.normal(1.0, (5, 3))) for _ in range(2)]
        labels = np.array([2, 1, 0, 1, 2])
        got = stage2_loss(outputs, labels, "asformer", TOY).item()
        want = sum(0.5 * ad.cross_entropy(o, labels).item() +
                   0.5 * soft_dice(o, labels).item() for o in outputs)
        assert got == pytest.approx(want, abs=1e-5)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            stage2_loss([Tensor(np.zeros((4, 3)))], np.array([0, 1]), "tcn", TOY)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            stage2_loss([Tensor(np.zeros((2, 3)))], np.array([0, 1]), "rnn", TOY)


class TestTraining:
    def make_dataset(self, n_videos=3, length=12):
        rng = SessionRng(12)
        dataset = []
        for v in range(n_videos):
            labels = np.repeat(np.arange(TOY.num_classes), length // TOY.num_classes)
            feats = np.zeros((len(labels), TOY.feature_dim), np.float32)
            feats[np.arange(len(labels)), labels] = 1.0
            feats += rng.normal(0.05, feats.shape)
            dataset.append((FeatureSequence(feats, f"v{v}"), labels))
        return dataset

    @pytest.mark.parametrize("variant", ["tcn", "asformer"])
    def test_loss_descends_and_fits(self, variant):
        dataset = self.make_dataset()
        model = build_temporal_model(variant, TOY, SessionRng(13))
        curve = train_temporal(model, dataset,
                               TrainTemporalConfig(epochs=60, lr_max=3e-3,
                                                   seed=0))
        assert len(curve) == 60
        assert curve[-1] < curve[0]
        preds = model(dataset[0][0])[-1].labels
        acc = np.mean(preds == dataset[0][1])
        assert acc > 0.8

    def test_deterministic_under_seed(self):
        dataset = self.make_dataset()
        curves = []
        for _ in range(2):
            model = build_temporal_model("tcn", TOY, SessionRng(14))
            curves.append(train_temporal(model, dataset,
                                         TrainTemporalConfig(epochs=3, seed=2)))
        assert curves[0] == curves[1]

    @pytest.mark.parametrize("variant", ["tcn", "asformer"])
    def test_matches_reference_loop(self, variant):
        dataset = self.make_dataset()
        cfg = TrainTemporalConfig(epochs=2, seed=3)
        models = [build_temporal_model(variant, TOY, SessionRng(19))
                  for _ in range(2)]
        expected = reference_train_temporal(models[0], dataset, cfg)
        assert train_temporal(models[1], dataset, cfg) == expected
        assert len(expected) == 2
        want = models[0].state_dict()
        for name, value in models[1].state_dict().items():
            np.testing.assert_array_equal(value, want[name], err_msg=name)

    def test_empty_dataset(self):
        model = build_temporal_model("tcn", TOY, SessionRng(15))
        with pytest.raises(ConfigError):
            train_temporal(model, [], TrainTemporalConfig())

    def test_nan_feature_row_stops_at_step_zero(self):
        dataset = self.make_dataset(n_videos=1)
        dataset[0][0].features[3] = np.nan
        model = build_temporal_model("tcn", TOY, SessionRng(18))
        before = model.state_dict()
        with pytest.raises(NumericError, match="step 0"):
            train_temporal(model, dataset, TrainTemporalConfig(epochs=2))
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[name])

    def test_one_row_table_stops_at_step_zero(self):
        """One row has no consecutive pair: the TCN smoothing mean is over
        no elements, NaN, so training stops before any update."""
        model = build_temporal_model("tcn", TOY, SessionRng(20))
        seq = FeatureSequence(toy_features(SessionRng(21), 1))
        before = model.state_dict()
        with pytest.warns(RuntimeWarning), \
                pytest.raises(NumericError, match="step 0"):
            train_temporal(model, [(seq, np.zeros(1, np.int64))],
                           TrainTemporalConfig(epochs=1))
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[name])

    def test_label_length_checked(self):
        model = build_temporal_model("tcn", TOY, SessionRng(16))
        seq = FeatureSequence(toy_features(SessionRng(17), 5))
        with pytest.raises(InputError):
            train_temporal(model, [(seq, np.zeros(4, np.int64))],
                           TrainTemporalConfig(epochs=2))
