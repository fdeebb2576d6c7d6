from __future__ import annotations

import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capstream import classifier
from capstream.classifier import (
    DEFAULT_FRAME_LENGTH,
    ClassifierModel,
    FrameGeometry,
    TrainConfig,
    _softmax,
    backward_and_update,
    cross_entropy,
    evaluate,
    frame_to_tensor,
    load_model,
    one_hot,
    save_model,
    train,
)
from capstream.detector import DetectorConfig, GestureFrame
from capstream.dsp import DspConfig
from capstream.errors import ConfigError, InvalidParameterError, ModelError, TrainingDivergedError


def _toy(cell="gru", seed=5, hidden=3, dense=(4,), classes=2):
    return ClassifierModel.initialize(
        cell, seed=seed, input_dim=4, hidden_size=hidden, dense_sizes=dense, n_classes=classes
    )


def _frame(length=200, seed=0):
    rng = np.random.default_rng(seed)
    channels = rng.normal(size=(4, length))
    channels[0, length // 3] = 8.0
    return GestureFrame(k=1, start=100, end=100 + length - 1, channels=channels)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_gru_forward(params, x):
    """Independent single-example recurrence, written step by step."""
    h = np.zeros(params["U_z"].shape[0])
    for t in range(x.shape[0]):
        xt = x[t]
        z = _sigmoid(xt @ params["W_z"] + h @ params["U_z"] + params["b_z"])
        r = _sigmoid(xt @ params["W_r"] + h @ params["U_r"] + params["b_r"])
        n = np.tanh(xt @ params["W_n"] + (r * h) @ params["U_n"] + params["b_n"])
        h = (1.0 - z) * n + z * h
    return h


def reference_lstm_forward(params, x):
    h = np.zeros(params["U_i"].shape[0])
    c = np.zeros_like(h)
    for t in range(x.shape[0]):
        xt = x[t]
        i = _sigmoid(xt @ params["W_i"] + h @ params["U_i"] + params["b_i"])
        f = _sigmoid(xt @ params["W_f"] + h @ params["U_f"] + params["b_f"])
        g = np.tanh(xt @ params["W_g"] + h @ params["U_g"] + params["b_g"])
        o = _sigmoid(xt @ params["W_o"] + h @ params["U_o"] + params["b_o"])
        c = f * c + i * g
        h = o * np.tanh(c)
    return h


def reference_dense_softmax(model, h):
    a = h
    n_layers = len(model.dense_sizes) + 1
    for layer in range(n_layers - 1):
        a = np.maximum(a @ model.params[f"D{layer}_W"] + model.params[f"D{layer}_b"], 0.0)
    logits = a @ model.params[f"D{n_layers - 1}_W"] + model.params[f"D{n_layers - 1}_b"]
    e = np.exp(logits - logits.max())
    return e / e.sum()


class TestFrameToTensor:
    def test_same_length_standardized(self):
        t = frame_to_tensor(_frame(256), length=256)
        assert t.shape == (256, 4)
        np.testing.assert_allclose(t.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(t.std(axis=0), 1.0, atol=1e-6)

    def test_double_length_keeps_peak_position(self):
        frame = _frame(512, seed=1)
        frame.channels[2, 300] = 30.0
        t = frame_to_tensor(frame, length=256)
        assert t.shape == (256, 4)
        # Oracle: peak position scales by the resampling ratio within +-1.
        assert abs(int(t[:, 2].argmax()) - round(300 * 255 / 511)) <= 1

    def test_constant_channel_becomes_zero(self):
        channels = np.ones((4, 100))
        frame = GestureFrame(k=1, start=0, end=99, channels=channels)
        t = frame_to_tensor(frame, length=64)
        np.testing.assert_array_equal(t, np.zeros((64, 4)))

    def test_empty_frame_rejected(self):
        frame = GestureFrame(k=1, start=0, end=10)
        with pytest.raises(InvalidParameterError):
            frame_to_tensor(frame)


class TestForward:
    def test_zero_model_uniform_probabilities(self):
        model = _toy(classes=10, dense=(4,))
        for name in model.params:
            model.params[name][:] = 0.0
        probs = model.forward(np.zeros((3, 5, 4)))
        np.testing.assert_allclose(probs, 0.1, atol=1e-12)

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_probability_simplex(self, seed):
        rng = np.random.default_rng(seed)
        model = _toy(seed=seed, classes=10)
        probs = model.forward(rng.normal(size=(2, 6, 4)))
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    def test_matches_handrolled_recurrence(self, cell):
        model = _toy(cell=cell, seed=9, hidden=4, dense=(5,), classes=3)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(7, 4))
        ref_h = (
            reference_gru_forward(model.params, x)
            if cell == "gru"
            else reference_lstm_forward(model.params, x)
        )
        expected = reference_dense_softmax(model, ref_h)
        np.testing.assert_allclose(model.forward(x), expected, atol=1e-12)

    def test_dimension_mismatch(self):
        model = _toy()
        with pytest.raises(ModelError):
            model.forward(np.zeros((2, 5, 3)))

    def test_predict_returns_class_id(self):
        model = _toy(classes=10, dense=(8,))
        pred = model.predict(np.random.default_rng(1).normal(size=(model.frame_length, 4)))
        assert 1 <= pred.class_id <= 10
        assert pred.probabilities.shape == (10,)

    @pytest.mark.parametrize("steps", [DEFAULT_FRAME_LENGTH // 2, 2 * DEFAULT_FRAME_LENGTH])
    def test_predict_rejects_another_frame_length(self, steps):
        model = _toy(classes=10, dense=(8,))
        assert model.frame_length == DEFAULT_FRAME_LENGTH
        with pytest.raises(ModelError, match=f"\\({DEFAULT_FRAME_LENGTH}, 4\\) frame tensor"):
            model.predict(np.zeros((steps, 4)))


class TestFusedCoreParity:
    """The fused-gate core against the step-by-step references at production size."""

    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    def test_forward_matches_reference(self, cell):
        model = ClassifierModel.initialize(cell, seed=4)  # H=20, dense (32, 64, 32)
        x = np.random.default_rng(6).normal(size=(10, 256, 4))
        ref_forward = reference_gru_forward if cell == "gru" else reference_lstm_forward
        expected = np.stack(
            [reference_dense_softmax(model, ref_forward(model.params, xb)) for xb in x]
        )
        np.testing.assert_allclose(model.forward(x), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    def test_gradient_pass_probabilities_equal_forward(self, cell):
        model = ClassifierModel.initialize(cell, seed=4)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(10, 256, 4))
        y = one_hot(rng.integers(1, 11, size=10), 10)
        loss, _, probs = model._loss_gradients_probs(x, y)
        np.testing.assert_array_equal(probs, model.forward(x))
        assert loss == cross_entropy(probs, y)

    @pytest.mark.parametrize("scale", [1.0, 3.0])
    @pytest.mark.parametrize("steps", [128, 256])
    @pytest.mark.parametrize("batch", [1, 3, 64])
    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    def test_forward_bits_equal_gradient_pass_state(self, cell, batch, steps, scale):
        # Both passes run the same step kernel; x3 weights saturate the gates.
        model = ClassifierModel.initialize(cell, seed=4)
        for name in model.params:
            model.params[name] *= scale
        x = np.random.default_rng(batch * steps).normal(size=(batch, steps, 4))
        logits, _ = model._dense_forward(model._recurrent_forward(x)["hs"][-1])
        np.testing.assert_array_equal(model.forward(x), _softmax(logits))

    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    def test_forward_keeps_no_bptt_cache(self, cell):
        model = ClassifierModel.initialize(cell, seed=4)
        x = np.random.default_rng(8).normal(size=(64, 256, 4))
        gates = 3 if cell == "gru" else 4
        # The gradient pass's "act" (T, B, G*H) and "hs" (T + 1, B, H), in bytes.
        cache_bytes = 8 * (256 * 64 * gates * 20 + 257 * 64 * 20)
        tracemalloc.start()
        try:
            model.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cache_bytes

    # train_loss of this run, recorded from the per-gate implementation
    # that preceded the fused core.
    PER_GATE_TRAIN_LOSS = {
        "gru": [9.382041694717962, 5.600210168820061, 3.6812550111452054],
        "lstm": [12.07978489820955, 10.355337535111262, 8.6590980210702],
    }

    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    def test_train_loss_matches_per_gate_core(self, cell):
        tensors, labels = _toy_dataset(n_per_class=3, classes=10, t=32)
        _, history = train(tensors, labels, TrainConfig(epochs=3, batch_size=10, seed=3), cell_type=cell)
        np.testing.assert_allclose(history.train_loss, self.PER_GATE_TRAIN_LOSS[cell], rtol=1e-9)

    # train_loss and val_loss of this run, recorded from the step kernel that
    # allocated its results on every step.
    ALLOCATING_STEP_LOSSES = {
        "gru": ([6.600587556474777, 4.9840882500751], [6.484987426148903, 5.880325524339751]),
        "lstm": ([12.541863430945575, 8.399887669083832], [7.723228465636538, 6.182023839571084]),
    }

    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    def test_train_losses_bit_equal_allocating_step(self, cell):
        tensors, labels = _toy_dataset(n_per_class=3, classes=10, t=128, seed=1)
        _, history = train(tensors, labels, TrainConfig(epochs=2, batch_size=10, seed=5), cell_type=cell)
        train_loss, val_loss = self.ALLOCATING_STEP_LOSSES[cell]
        np.testing.assert_array_equal(history.train_loss, train_loss)
        np.testing.assert_array_equal(history.val_loss, val_loss)

    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    def test_backward_steps_allocate_nothing(self, cell, monkeypatch):
        # The loop function may hold its scratch, 2 (B, H) and G (H, H)
        # arrays, the views of one step, and the buffer numpy fills for a
        # strided ufunc operand (at most np.getbufsize() elements). A step
        # result or copy it allocated would add a whole (B, H) array, larger
        # than that buffer at this batch size.
        batch, hh = 1024, 20
        assert batch * hh > 2 * np.getbufsize()
        name = f"_{cell}_back_steps"
        steps = getattr(classifier, name)
        peaks = []

        def traced(*args):
            tracemalloc.start()
            try:
                steps(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(classifier, name, traced)
        model = ClassifierModel.initialize(cell, seed=4, hidden_size=hh)
        rng = np.random.default_rng(9)
        model.loss_and_gradients(
            rng.normal(size=(batch, 16, 4)), one_hot(rng.integers(1, 11, size=batch), 10)
        )
        gates = 3 if cell == "gru" else 4
        scratch = 8 * (2 * batch * hh + gates * hh * hh)
        allowance = 8 * np.getbufsize() + 16 * 1024
        assert len(peaks) == 1 and peaks[0] < scratch + allowance

    # SHA-256 of the loss and then every gradient, in param_order, recorded
    # from the backward passes that allocated their step results.
    GRADIENT_SHA256 = {
        ("gru", 128, 1.0): "983ec2ba6aa0ffaf077618eecab26bbb06b47d17aa9bbab4cf3b3d15ae5d7093",
        ("gru", 128, 3.0): "9548e83671123a7adfa1fd2ee62372f34779768110a10a10abb098a448f1c419",
        ("gru", 256, 1.0): "9055d1338d6b54b5aa39c0e19d5f91ee65a27ca5f0ce79997154411fae29996f",
        ("gru", 256, 3.0): "6a2ef38252b77d9b0557cb81a46aa9c64455fae3fb6858c3935221124965cd7d",
        ("lstm", 128, 1.0): "ab2a1807f8f110989cc6d28e47a355b18b7797a7e45036548bb21f95a809306c",
        ("lstm", 128, 3.0): "b27ce2fc3f5763fd197d179b943d855f33cba9cd47caf23c0a16cecc3001dbfa",
        ("lstm", 256, 1.0): "0ce27af34fb4f4808449d72a09bca4bc69266adcc19232d528b017a7d58301da",
        ("lstm", 256, 3.0): "83ff64c6b39de032262dd216d43a1e1c05c334a1ff18b1a8a50d2f8842275e7f",
    }

    @pytest.mark.parametrize("scale", [1.0, 3.0])
    @pytest.mark.parametrize("steps", [128, 256])
    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    def test_gradients_bit_equal_recorded(self, cell, steps, scale):
        model = ClassifierModel.initialize(cell, seed=4)
        for name in model.params:
            model.params[name] *= scale
        rng = np.random.default_rng(steps)
        x = rng.normal(size=(10, steps, 4))
        y = one_hot(rng.integers(1, 11, size=10), 10)
        loss, grads = model.loss_and_gradients(x, y)
        digest = hashlib.sha256(np.float64(loss).tobytes())
        for name in model.param_order():
            digest.update(grads[name].tobytes())
        assert digest.hexdigest() == self.GRADIENT_SHA256[(cell, steps, scale)]


class TestLoss:
    def test_uniform_prediction(self):
        probs = np.full((1, 10), 0.1)
        y = one_hot(np.array([3]), 10)
        assert cross_entropy(probs, y) == pytest.approx(np.log(10.0), rel=1e-9)

    def test_perfect_prediction(self):
        y = one_hot(np.array([2]), 10)
        assert cross_entropy(y, y) == pytest.approx(0.0, abs=1e-9)

    def test_zero_probability_clamped(self):
        probs = np.zeros((1, 10))
        probs[0, 0] = 1.0
        y = one_hot(np.array([5]), 10)
        loss = cross_entropy(probs, y)
        assert np.isfinite(loss)
        assert loss == pytest.approx(-np.log(1e-12))


class TestBackward:
    def test_zero_learning_rate_keeps_model(self):
        model = _toy()
        before = {k: v.copy() for k, v in model.params.items()}
        x = np.random.default_rng(0).normal(size=(2, 5, 4))
        y = one_hot(np.array([1, 2]), 2)
        backward_and_update(model, x, y, learning_rate=0.0)
        for k in before:
            np.testing.assert_array_equal(model.params[k], before[k])

    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    def test_gradients_match_finite_differences(self, cell):
        # Oracle: central finite differences at h=1e-4 over every parameter.
        model = _toy(cell=cell, seed=3)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 5, 4))
        y = one_hot(np.array([1, 2]), 2)
        _, grads = model.loss_and_gradients(x, y)
        h = 1e-4
        worst = 0.0
        for name in model.param_order():
            p = model.params[name]
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                lp = cross_entropy(model.forward(x), y)
                p[idx] = orig - h
                lm = cross_entropy(model.forward(x), y)
                p[idx] = orig
                fd = (lp - lm) / (2 * h)
                rel = abs(grads[name][idx] - fd) / max(abs(grads[name][idx]), abs(fd), 1e-8)
                worst = max(worst, rel)
        assert worst <= 1e-4

    def test_single_step_reduces_loss(self):
        model = _toy(seed=11)
        x = np.random.default_rng(4).normal(size=(1, 5, 4))
        y = one_hot(np.array([1]), 2)
        before = cross_entropy(model.forward(x), y)
        backward_and_update(model, x, y, learning_rate=1e-3)
        after = cross_entropy(model.forward(x), y)
        assert after < before

    def test_empty_batch_rejected(self):
        model = _toy()
        with pytest.raises(InvalidParameterError):
            backward_and_update(model, np.zeros((0, 5, 4)), np.zeros((0, 2)), 0.1)

    def test_target_rows_must_match_batch(self):
        # A single target row must not be broadcast over a batch of two.
        model = _toy()
        before = {k: v.copy() for k, v in model.params.items()}
        with pytest.raises(ModelError, match="one-hot"):
            backward_and_update(model, np.zeros((2, 5, 4)), one_hot(np.array([1]), 2), 0.1)
        with pytest.raises(ModelError, match="one-hot"):
            model.loss_and_gradients(np.zeros((2, 5, 4)), one_hot(np.array([1]), 2))
        for k in before:
            np.testing.assert_array_equal(model.params[k], before[k])

    def test_channel_count_must_match_input_dim(self):
        model = _toy()
        y = one_hot(np.array([1, 2]), 2)
        with pytest.raises(ModelError, match="input must have shape"):
            backward_and_update(model, np.zeros((2, 5, 3)), y, 0.1)
        with pytest.raises(ModelError, match="input must have shape"):
            model.loss_and_gradients(np.zeros((2, 5, 3)), y)

    def test_nonfinite_gradient_raises(self):
        model = _toy()
        model.params["D0_W"][:] = 1e308  # forces inf activations downstream
        x = np.full((1, 5, 4), 10.0)
        y = one_hot(np.array([1]), 2)
        with pytest.raises(TrainingDivergedError):
            backward_and_update(model, x, y, 0.1)


def _toy_dataset(n_per_class=6, classes=3, t=32, seed=0):
    """Tiny separable set: each class peaks a different channel-time cell."""
    rng = np.random.default_rng(seed)
    tensors, labels = [], []
    for c in range(1, classes + 1):
        for _ in range(n_per_class):
            x = rng.normal(0, 0.3, size=(t, 4))
            x[(c * 7) % t, c % 4] += 6.0
            tensors.append(x)
            labels.append(c)
    return np.stack(tensors), np.asarray(labels)


class TestTrain:
    def test_single_class_trivial(self):
        rng = np.random.default_rng(0)
        tensors = rng.normal(size=(10, 16, 4))
        labels = np.full(10, 4)
        model, history = train(
            tensors,
            labels,
            TrainConfig(epochs=60, batch_size=4, learning_rate=0.1, seed=0),
            cell_type="gru",
            hidden_size=4,
            dense_sizes=(4,),
        )
        assert history.val_acc[-1] == 1.0
        # loss heads to zero: well below its start and still decreasing
        assert history.train_loss[-1] < history.train_loss[0] / 10
        assert history.train_loss[-1] < history.train_loss[-10]

    def test_seeded_determinism(self):
        tensors, labels = _toy_dataset()
        cfg = TrainConfig(epochs=4, batch_size=6, seed=9)
        m1, h1 = train(tensors, labels, cfg, hidden_size=4, dense_sizes=(4,))
        m2, h2 = train(tensors, labels, cfg, hidden_size=4, dense_sizes=(4,))
        assert h1.train_loss == h2.train_loss
        assert h1.val_acc == h2.val_acc
        for k in m1.params:
            np.testing.assert_array_equal(m1.params[k], m2.params[k])

    def test_loss_moving_average_non_increasing(self):
        tensors, labels = _toy_dataset(n_per_class=10)
        _, history = train(
            tensors, labels, TrainConfig(epochs=30, batch_size=6, seed=1),
            hidden_size=6, dense_sizes=(8,), n_classes=3,
        )
        losses = np.asarray(history.train_loss)
        window = 10
        ma = np.convolve(losses, np.ones(window) / window, mode="valid")
        violations = int((np.diff(ma) > 1e-9).sum())
        assert violations <= 1

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidParameterError):
            train(np.zeros((0, 8, 4)), np.zeros(0, dtype=int))

    def test_empty_validation_split_rejected(self):
        # round(2 * 0.2) = 0 frames held out per class.
        tensors, labels = _toy_dataset(n_per_class=2)
        with pytest.raises(InvalidParameterError, match="validation split is empty"):
            train(tensors, labels, TrainConfig(epochs=1), hidden_size=4, dense_sizes=(4,), n_classes=3)

    def test_model_records_tensor_length(self):
        tensors, labels = _toy_dataset(t=24)
        model, _ = train(tensors, labels, TrainConfig(epochs=1), hidden_size=4, dense_sizes=(4,), n_classes=3)
        assert model.frame_length == 24
        assert model.copy().frame_length == 24
        assert model.geometry == FrameGeometry()

    def test_model_records_the_geometry_it_is_given(self):
        tensors, labels = _toy_dataset(t=24)
        geometry = FrameGeometry(pre_pad=40, post_pad=35, sensitivity=(0.5, 0.6, 0.7, 0.8), smooth_window=3)
        model, _ = train(tensors, labels, TrainConfig(epochs=1), hidden_size=4, dense_sizes=(4,),
                         n_classes=3, geometry=geometry)
        assert model.geometry == geometry
        assert model.copy().geometry == geometry

    def test_epoch_seconds_per_epoch(self):
        tensors, labels = _toy_dataset()
        cfg = TrainConfig(epochs=3, batch_size=6, seed=2)
        _, history = train(tensors, labels, cfg, hidden_size=4, dense_sizes=(4,))
        assert len(history.epoch_seconds) == cfg.epochs
        assert all(s > 0 for s in history.epoch_seconds)


class TestEvaluate:
    def test_all_correct(self):
        tensors, labels = _toy_dataset(n_per_class=4)
        model, _ = train(
            tensors, labels, TrainConfig(epochs=40, batch_size=4, seed=2),
            hidden_size=6, dense_sizes=(8,), n_classes=3,
        )
        report = evaluate(model, tensors, labels)
        if report.accuracy == 1.0:
            assert report.macro_f1 == pytest.approx(1.0)

    def test_single_class_predictor_on_balanced_set(self):
        model = _toy(classes=10, dense=(4,))
        for name in model.params:
            model.params[name][:] = 0.0
        model.params["D1_b"][:] = np.linspace(1.0, 0.1, 10)  # always class 1
        rng = np.random.default_rng(3)
        tensors = rng.normal(size=(50, 8, 4))
        labels = np.repeat(np.arange(1, 11), 5)
        report = evaluate(model, tensors, labels)
        assert report.accuracy == pytest.approx(0.1)

    def test_macro_f1_matches_confusion_recomputation(self):
        # Oracle: recompute every metric from the confusion matrix alone.
        tensors, labels = _toy_dataset(n_per_class=5)
        model, _ = train(
            tensors, labels, TrainConfig(epochs=10, batch_size=5, seed=4),
            hidden_size=5, dense_sizes=(6,), n_classes=3,
        )
        report = evaluate(model, tensors, labels)
        cm = report.confusion
        accuracy = np.trace(cm) / cm.sum()
        assert report.accuracy == pytest.approx(accuracy)
        f1s = []
        for c in range(3):
            tp = cm[c, c]
            prec = tp / cm[:, c].sum() if cm[:, c].sum() else 0.0
            rec = tp / cm[c, :].sum() if cm[c, :].sum() else 0.0
            f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
            assert report.precision[c] == pytest.approx(prec)
            assert report.recall[c] == pytest.approx(rec)
        assert report.macro_f1 == pytest.approx(np.mean(f1s))

    def test_label_permutation_permutes_confusion(self):
        tensors, labels = _toy_dataset(n_per_class=5)
        model, _ = train(
            tensors, labels, TrainConfig(epochs=8, batch_size=5, seed=5),
            hidden_size=5, dense_sizes=(6,), n_classes=3,
        )
        base = evaluate(model, tensors, labels).confusion
        perm = {1: 2, 2: 3, 3: 1}
        permuted_labels = np.asarray([perm[c] for c in labels])
        # Permuting true labels permutes confusion rows the same way.
        permuted = evaluate(model, tensors, permuted_labels).confusion
        for c in range(1, 4):
            np.testing.assert_array_equal(permuted[perm[c] - 1], base[c - 1])


class TestPersistence:
    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    def test_round_trip_bit_exact(self, tmp_path, cell):
        model = _toy(cell=cell, seed=8, hidden=6, dense=(5, 3), classes=4)
        path = tmp_path / "model.bin"
        save_model(model, path)
        assert (tmp_path / "model.bin.json").exists()
        loaded = load_model(path)
        assert loaded.cell_type == cell
        assert loaded.dense_sizes == (5, 3)
        for k in model.params:
            np.testing.assert_array_equal(loaded.params[k], model.params[k])

    def test_round_trip_keeps_frame_length(self, tmp_path):
        model = ClassifierModel.initialize("gru", seed=1, hidden_size=3, dense_sizes=(4,), frame_length=77)
        save_model(model, tmp_path / "m.bin")
        assert load_model(tmp_path / "m.bin").frame_length == 77
        sidecar = json.loads((tmp_path / "m.bin.json").read_text())
        assert sidecar["format_version"] == 3
        assert sidecar["frame_length"] == 77

    def test_round_trip_keeps_geometry(self, tmp_path):
        geometry = FrameGeometry(pre_pad=40, post_pad=35, sensitivity=(0.5, 0.6, 0.7, 0.8), smooth_window=3)
        model = ClassifierModel.initialize("gru", seed=1, hidden_size=3, dense_sizes=(4,), geometry=geometry)
        save_model(model, tmp_path / "m.bin")
        assert load_model(tmp_path / "m.bin").geometry == geometry
        sidecar = json.loads((tmp_path / "m.bin.json").read_text())
        assert {k: sidecar[k] for k in ("pre_pad", "post_pad", "sensitivity", "smooth_window")} == {
            "pre_pad": 40, "post_pad": 35, "sensitivity": [0.5, 0.6, 0.7, 0.8], "smooth_window": 3,
        }

    def test_prediction_survives_round_trip(self, tmp_path):
        model = _toy(seed=10, classes=10, dense=(8,))
        x = np.random.default_rng(5).normal(size=(6, 4))
        save_model(model, tmp_path / "m.bin")
        loaded = load_model(tmp_path / "m.bin")
        np.testing.assert_array_equal(loaded.forward(x), model.forward(x))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ModelError):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = _toy()
        path = tmp_path / "m.bin"
        save_model(model, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ModelError):
            load_model(path)

    @pytest.mark.parametrize("data", [b"CAPM\x01\x00", b"CAPM" + struct.pack("<5I", 1, 0, 4, 3, 2)])
    def test_header_cut_off_rejected(self, tmp_path, data):
        path = tmp_path / "m.bin"
        path.write_bytes(data)
        with pytest.raises(ModelError):
            load_model(path)

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"CAPM" + struct.pack("<5I", 2, 0, 4, 3, 2), "cut off"),  # ends before frame_length
            (b"CAPM" + struct.pack("<6I", 2, 0, 4, 3, 2, 128), "cut off"),  # ends before dense count
            (b"CAPM" + struct.pack("<8I", 3, 0, 4, 3, 2, 128, 1, 4), "cut off"),  # ends in the geometry
            (b"CAPM" + struct.pack("<8I", 4, 0, 4, 3, 2, 128, 1, 4), "unsupported format version 4"),
        ],
        ids=["v2-before-frame-length", "v2-before-dense-count", "v3-in-geometry", "v4"],
    )
    def test_v2_header_faults_rejected(self, tmp_path, data, message):
        path = tmp_path / "m.bin"
        path.write_bytes(data)
        with pytest.raises(ModelError, match=message):
            load_model(path)

    def test_v2_frame_length_zero_rejected(self, tmp_path):
        model = ClassifierModel.initialize("gru", seed=1, hidden_size=3, dense_sizes=(4,), n_classes=2)
        path = tmp_path / "m.bin"
        save_model(model, path)
        data = bytearray(path.read_bytes())
        data[24:28] = struct.pack("<I", 0)  # frame_length
        path.write_bytes(bytes(data))
        with pytest.raises(ModelError, match="frame_length must be >= 1"):
            load_model(path)

    @pytest.mark.parametrize(
        "offset, value, message",
        [
            (28, struct.pack("<I", 0), "pre_pad must be > 0"),
            (36, struct.pack("<I", 0), "smooth_window must be >= 1"),
            (40, struct.pack("<d", float("nan")), "sensitivity must lie in"),
        ],
        ids=["pre-pad-0", "smooth-window-0", "sensitivity-nan"],
    )
    def test_v3_bad_geometry_rejected(self, tmp_path, offset, value, message):
        model = ClassifierModel.initialize("gru", seed=1, hidden_size=3, dense_sizes=(4,), n_classes=2)
        path = tmp_path / "m.bin"
        save_model(model, path)
        data = bytearray(path.read_bytes())
        data[offset : offset + len(value)] = value
        path.write_bytes(bytes(data))
        with pytest.raises(ModelError, match=message):
            load_model(path)

    def test_reads_v1_layout(self, tmp_path):
        # Oracle: the CAPM v1, v2 and v3 layouts packed by hand. v1 header:
        # magic, version, cell code, input_dim, hidden, n_classes, dense
        # count, dense sizes (all <u4); v2 adds frame_length after n_classes;
        # v3 adds pre_pad, post_pad, smooth_window (<u4) and four <f8
        # sensitivities after frame_length. Then every parameter as
        # row-major <f8, gates in i f g o order, then the dense layers. A v1
        # file reads as frame_length 256 with the default geometry and
        # saves back as v3.
        model = _toy(cell="lstm", seed=8, hidden=3, dense=(5, 2), classes=4)
        order = [f"{k}_{g}" for g in "ifgo" for k in "WUb"]
        order += [f"D{layer}_{k}" for layer in range(3) for k in "Wb"]
        params = b"".join(model.params[name].astype("<f8").tobytes() for name in order)
        path = tmp_path / "v1.bin"
        path.write_bytes(struct.pack("<4s8I", b"CAPM", 1, 1, 4, 3, 4, 2, 5, 2) + params)
        loaded = load_model(path)
        assert loaded.frame_length == 256
        assert loaded.geometry == FrameGeometry()
        assert sorted(loaded.params) == sorted(order)
        for name in order:
            np.testing.assert_array_equal(loaded.params[name], model.params[name])
        save_model(loaded, tmp_path / "again.bin")
        v3 = (struct.pack("<4s9I4d", b"CAPM", 3, 1, 4, 3, 4, 256, 70, 70, 5, 0.5, 0.5, 0.5, 0.5)
              + struct.pack("<3I", 2, 5, 2) + params)
        assert (tmp_path / "again.bin").read_bytes() == v3

    def test_reads_v2_layout_with_the_default_geometry(self, tmp_path):
        model = _toy(cell="gru", seed=8, hidden=3, dense=(5,), classes=4)
        order = [f"{k}_{g}" for g in "zrn" for k in "WUb"]
        order += [f"D{layer}_{k}" for layer in range(2) for k in "Wb"]
        params = b"".join(model.params[name].astype("<f8").tobytes() for name in order)
        path = tmp_path / "v2.bin"
        path.write_bytes(struct.pack("<4s8I", b"CAPM", 2, 0, 4, 3, 4, 96, 1, 5) + params)
        loaded = load_model(path)
        assert (loaded.frame_length, loaded.geometry) == (96, FrameGeometry())
        for name in order:
            np.testing.assert_array_equal(loaded.params[name], model.params[name])


class TestFrameGeometry:
    def test_defaults_are_the_config_defaults(self):
        assert FrameGeometry.of(DspConfig(), DetectorConfig()) == FrameGeometry()
        assert FrameGeometry().configs() == (DspConfig(), DetectorConfig())

    def test_configs_cut_frames_as_recorded(self):
        geometry = FrameGeometry(pre_pad=40, post_pad=35, sensitivity=(0.5, 0.6, 0.7, 0.8), smooth_window=3)
        assert FrameGeometry.of(*geometry.configs()) == geometry

    def test_only_frame_shaping_settings_are_checked(self):
        FrameGeometry().check(DspConfig(), DetectorConfig(phi=30.0, init_period=100, update_period=200))

    def test_mismatch_names_every_differing_setting(self):
        geometry = FrameGeometry(post_pad=35, smooth_window=3)
        with pytest.raises(ConfigError, match=r"post_pad 70 \(model: 35\), smooth_window 5 \(model: 3\)"):
            geometry.check(DspConfig(), DetectorConfig())

    @pytest.mark.parametrize(
        "kwargs",
        [{"pre_pad": 0}, {"post_pad": -1}, {"smooth_window": 0}, {"sensitivity": (0.5, 0.5, 0.5)},
         {"sensitivity": (0.5, 0.5, 0.5, 1.5)}],
    )
    def test_invalid_geometry_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            FrameGeometry(**kwargs)
