from __future__ import annotations

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capstream.classifier import (
    ClassifierModel,
    TrainConfig,
    backward_and_update,
    cross_entropy,
    evaluate,
    frame_to_tensor,
    load_model,
    one_hot,
    save_model,
    train,
)
from capstream.detector import GestureFrame
from capstream.errors import InvalidParameterError, ModelError, TrainingDivergedError


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
        pred = model.predict(np.random.default_rng(1).normal(size=(5, 4)))
        assert 1 <= pred.class_id <= 10
        assert pred.probabilities.shape == (10,)


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

    def test_reads_v1_layout(self, tmp_path):
        # Oracle: the CAPM v1 layout packed by hand. Header: magic, version,
        # cell code, input_dim, hidden, n_classes, dense count, dense sizes
        # (all <u4); then every parameter as row-major <f8, gates in i f g o
        # order, then the dense layers.
        model = _toy(cell="lstm", seed=8, hidden=3, dense=(5, 2), classes=4)
        order = [f"{k}_{g}" for g in "ifgo" for k in "WUb"]
        order += [f"D{layer}_{k}" for layer in range(3) for k in "Wb"]
        blob = struct.pack("<4s8I", b"CAPM", 1, 1, 4, 3, 4, 2, 5, 2)
        blob += b"".join(model.params[name].astype("<f8").tobytes() for name in order)
        path = tmp_path / "v1.bin"
        path.write_bytes(blob)
        loaded = load_model(path)
        assert sorted(loaded.params) == sorted(order)
        for name in order:
            np.testing.assert_array_equal(loaded.params[name], model.params[name])
        save_model(loaded, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == blob
