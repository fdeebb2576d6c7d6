"""From-scratch recurrent gesture classifier (GRU or LSTM plus dense head).

The recurrent pass runs over the frame's time axis (input: 4 channels per
step); the final hidden state feeds a relu dense stack ending in softmax
over the 10 gesture classes. Training is plain gradient descent on the
categorical cross entropy, with analytic gradients via backpropagation
through time. Everything is float64 numpy; no autodiff framework.
"""
from __future__ import annotations

import json
import math
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .detector import GestureFrame
from .errors import InvalidParameterError, ModelError, TrainingDivergedError

CELL_TYPES = ("gru", "lstm")
DEFAULT_FRAME_LENGTH = 256

# Frame tensors are (T, channels) float64 arrays, standardized per channel.
FrameTensor = np.ndarray

# Time steps per input projection in the state-only forward.
_STEP_CHUNK = 32

_MAGIC = b"CAPM"
_FORMAT_VERSION = 1


@dataclass
class TrainConfig:
    epochs: int = 60
    batch_size: int = 10
    learning_rate: float = 0.005
    seed: int = 0
    val_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.batch_size <= 0 or self.learning_rate < 0:
            raise InvalidParameterError("epochs/batch_size must be > 0, learning_rate >= 0")
        if not 0.0 < self.val_fraction < 1.0:
            raise InvalidParameterError("val_fraction must lie in (0, 1)")


@dataclass
class Prediction:
    class_id: int
    probabilities: np.ndarray


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function as 0.5 * tanh(x / 2) + 0.5: no overflow for any input."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


# Per-gate parameter names, in CAPM file order.
_GATES = {"gru": ("z", "r", "n"), "lstm": ("i", "f", "g", "o")}
# Column order of the fused gate arrays: sigmoid gates first, the tanh gate last.
_FUSED_GATES = {"gru": ("z", "r", "n"), "lstm": ("i", "f", "o", "g")}


def _param_shapes(
    cell_type: str,
    input_dim: int,
    hidden_size: int,
    dense_sizes: tuple[int, ...],
    n_classes: int,
) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every model parameter, in CAPM file order."""
    shapes: list[tuple[str, tuple[int, ...]]] = []
    for g in _GATES[cell_type]:
        shapes += [
            (f"W_{g}", (input_dim, hidden_size)),
            (f"U_{g}", (hidden_size, hidden_size)),
            (f"b_{g}", (hidden_size,)),
        ]
    widths = (hidden_size, *dense_sizes, n_classes)
    for layer, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        shapes += [(f"D{layer}_W", (fan_in, fan_out)), (f"D{layer}_b", (fan_out,))]
    return shapes


class ClassifierModel:
    """Recurrent cell + dense stack with explicit parameter tensors."""

    def __init__(
        self,
        cell_type: str,
        params: dict[str, np.ndarray],
        input_dim: int,
        hidden_size: int,
        dense_sizes: tuple[int, ...],
        n_classes: int,
    ) -> None:
        if cell_type not in CELL_TYPES:
            raise ModelError(f"cell_type must be one of {CELL_TYPES}, got {cell_type!r}")
        self.cell_type = cell_type
        self.params = params
        self.input_dim = input_dim
        self.hidden_size = hidden_size
        self.dense_sizes = tuple(dense_sizes)
        self.n_classes = n_classes
        self._check_dims()

    # ------------------------------------------------------------------
    # construction / bookkeeping

    @classmethod
    def initialize(
        cls,
        cell_type: str = "gru",
        seed: int = 0,
        input_dim: int = 4,
        hidden_size: int = 20,
        dense_sizes: tuple[int, ...] = (32, 64, 32),
        n_classes: int = 10,
    ) -> "ClassifierModel":
        """Seeded parameter initialization, tuned so plain gradient descent at
        small rates converges.

        Input weights are uniform, the recurrence is orthogonal, memory-gate
        biases spread log-uniformly over time constants up to one frame, and
        the relu dense stack is scaled above variance-preservation so the
        error signal survives the depth.
        """
        if cell_type not in CELL_TYPES:
            raise ModelError(f"cell_type must be one of {CELL_TYPES}, got {cell_type!r}")
        if hidden_size < 1:
            raise InvalidParameterError(f"hidden_size must be >= 1, got {hidden_size}")
        rng = np.random.default_rng(seed)
        input_bound = 4.0 / np.sqrt(input_dim)
        gain = 2.0 if cell_type == "gru" else 2.5
        params: dict[str, np.ndarray] = {}
        for name, shape in _param_shapes(cell_type, input_dim, hidden_size, dense_sizes, n_classes):
            if name.startswith("W_"):
                params[name] = rng.uniform(-input_bound, input_bound, shape)
            elif name.startswith("U_"):
                params[name], _ = np.linalg.qr(rng.normal(size=shape))
            elif name.startswith("b_"):
                params[name] = np.zeros(shape)
            elif name.endswith("_W"):
                bound = gain * np.sqrt(6.0 / shape[0])
                params[name] = rng.uniform(-bound, bound, shape)
            else:
                params[name] = np.full(shape, 0.05)
        # Memory-gate biases spread over log-spaced time constants up to one
        # frame, so the final hidden state retains multi-scale history from
        # the start.
        spread = np.exp(np.linspace(np.log(2.0), np.log(DEFAULT_FRAME_LENGTH), hidden_size))
        gate_bias = np.log(spread - 1.0 + 1e-9)
        if cell_type == "gru":
            params["b_z"] = gate_bias
        else:
            params["b_f"] = gate_bias
            params["b_i"] = -gate_bias.copy()
        return cls(cell_type, params, input_dim, hidden_size, dense_sizes, n_classes)

    def _shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        return _param_shapes(
            self.cell_type, self.input_dim, self.hidden_size, self.dense_sizes, self.n_classes
        )

    def param_order(self) -> list[str]:
        return [name for name, _ in self._shapes()]

    def _check_dims(self) -> None:
        for name, shape in self._shapes():
            if name not in self.params:
                raise ModelError(f"missing parameter {name}")
            got = self.params[name].shape
            if got != shape:
                raise ModelError(f"parameter {name} has shape {got}, expected {shape}")
            if not np.all(np.isfinite(self.params[name])):
                raise ModelError(f"parameter {name} contains non-finite values")

    def copy(self) -> "ClassifierModel":
        return ClassifierModel(
            self.cell_type,
            {k: v.copy() for k, v in self.params.items()},
            self.input_dim,
            self.hidden_size,
            self.dense_sizes,
            self.n_classes,
        )

    # ------------------------------------------------------------------
    # forward

    def _fused(self, prefix: str, gates: tuple[str, ...]) -> np.ndarray:
        return np.concatenate([self.params[f"{prefix}_{g}"] for g in gates], axis=-1)

    def _fused_input(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Time-major input (T, B, D) and the fused input weights W (D, G*H), b (G*H).

        The per-gate weights are fused on every call (never stored, so edits
        to self.params take effect at once), columns in _FUSED_GATES order,
        after Appleyard et al. 2016 (arXiv:1604.01946): one input projection
        and, per step, one recurrent matmul and one sigmoid. The GRU keeps U_n
        apart because the reset gate scales h before it.
        """
        gates = _FUSED_GATES[self.cell_type]
        xt = np.ascontiguousarray(x.transpose(1, 0, 2))
        return xt, self._fused("W", gates), self._fused("b", gates)

    def _recurrent_forward(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """Run the cell over a (B, T, D) batch; returns the time-major BPTT cache.

        Cache: "act" (T, B, G*H) gate activations and "hs" (T + 1, B, H) with
        hs[t] the state entering step t; the LSTM adds the cell states "cs"
        (T + 1, B, H) and their tanh "tcs" (T, B, H).
        """
        hh = self.hidden_size
        xt, w, b = self._fused_input(x)
        t_count, b_count, _ = xt.shape
        # Each step overwrites its input projection with the gate activations.
        act = xt @ w
        act += b
        hs = np.zeros((t_count + 1, b_count, hh))
        cache = {"x": xt, "act": act, "hs": hs}
        if self.cell_type == "gru":
            u_zr, u_n = self._fused("U", ("z", "r")), self.params["U_n"]
            ax_zr, ax_n = act[..., : 2 * hh], act[..., 2 * hh :]
            for t in range(t_count):
                _, ax_zr[t], ax_n[t] = _gru_step(act[t], hs[t], u_zr, u_n, hs[t + 1])
            return cache
        u = self._fused("U", _FUSED_GATES["lstm"])
        cs = cache["cs"] = np.zeros_like(hs)
        tcs = cache["tcs"] = np.empty_like(hs[1:])
        for t in range(t_count):
            _lstm_step(act[t], hs[t], cs[t], u, hs[t + 1], cs[t + 1], tcs[t])
        return cache

    def _final_state(self, x: np.ndarray) -> np.ndarray:
        """The last hidden state (B, H) of a (B, T, D) batch, keeping only h and c.

        Same steps and bits as _recurrent_forward, which also stores every
        step for the gradient pass. Here the input is projected _STEP_CHUNK
        steps at a time, so memory does not grow with T.
        """
        xt, w, b = self._fused_input(x)
        h = np.zeros((xt.shape[1], self.hidden_size))
        if self.cell_type == "gru":
            u_zr, u_n = self._fused("U", ("z", "r")), self.params["U_n"]
            for a in _step_inputs(xt, w, b):
                h, _, _ = _gru_step(a, h, u_zr, u_n)
            return h
        u = self._fused("U", _FUSED_GATES["lstm"])
        c = np.zeros_like(h)
        for a in _step_inputs(xt, w, b):
            h, c = _lstm_step(a, h, c, u)
        return h

    def _dense_forward(self, h: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        p = self.params
        acts = [h]
        a = h
        n_layers = len(self.dense_sizes) + 1
        for layer in range(n_layers - 1):
            a = np.maximum(a @ p[f"D{layer}_W"] + p[f"D{layer}_b"], 0.0)
            acts.append(a)
        logits = a @ p[f"D{n_layers - 1}_W"] + p[f"D{n_layers - 1}_b"]
        return logits, acts

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities for a batch (B, T, input_dim) or one (T, input_dim)."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 2
        if single:
            x = x[None]
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ModelError(
                f"input must have shape (B, T, {self.input_dim}), got {x.shape}"
            )
        logits, _ = self._dense_forward(self._final_state(x))
        probs = _softmax(logits)
        return probs[0] if single else probs

    def predict(self, tensor: FrameTensor) -> Prediction:
        probs = self.forward(tensor)
        return Prediction(class_id=int(np.argmax(probs)) + 1, probabilities=probs)

    # ------------------------------------------------------------------
    # backward

    def loss_and_gradients(
        self, x: np.ndarray, y_onehot: np.ndarray
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean cross entropy over the batch and gradients for every parameter."""
        loss, grads, _ = self._loss_gradients_probs(x, y_onehot)
        return loss, grads

    def _loss_gradients_probs(
        self, x: np.ndarray, y_onehot: np.ndarray
    ) -> tuple[float, dict[str, np.ndarray], np.ndarray]:
        """loss_and_gradients plus the batch probabilities of its one forward pass."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y_onehot, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ModelError(
                f"input must have shape (B, T, {self.input_dim}), got {x.shape}"
            )
        b_count = x.shape[0]
        if y.shape != (b_count, self.n_classes):
            raise ModelError(
                f"one-hot targets must have shape ({b_count}, {self.n_classes}), got {y.shape}"
            )
        cache = self._recurrent_forward(x)
        logits, acts = self._dense_forward(cache["hs"][-1])
        probs = _softmax(logits)
        loss = float(cross_entropy(probs, y))

        grads: dict[str, np.ndarray] = {}
        p = self.params
        n_layers = len(self.dense_sizes) + 1
        delta = (probs - y) / b_count
        for layer in range(n_layers - 1, -1, -1):
            a_in = acts[layer]
            grads[f"D{layer}_W"] = a_in.T @ delta
            grads[f"D{layer}_b"] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ p[f"D{layer}_W"].T) * (a_in > 0.0)
        dh = delta @ p["D0_W"].T

        backward = self._gru_backward if self.cell_type == "gru" else self._lstm_backward
        da = backward(cache, dh, grads)
        # W and b gradients: one reduction over all steps of the fused da.
        gates = _FUSED_GATES[self.cell_type]
        x2 = cache["x"].reshape(-1, self.input_dim)
        da2 = da.reshape(-1, da.shape[-1])
        d_w = np.split(x2.T @ da2, len(gates), axis=1)
        d_b = np.split(da2.sum(axis=0), len(gates))
        for g, gw, gb in zip(gates, d_w, d_b):
            grads[f"W_{g}"], grads[f"b_{g}"] = gw, gb
        return loss, grads, probs

    # The backward passes accumulate the U gradients step by step: each step
    # is an (H, B) @ (B, G*H) product, far below the size at which BLAS
    # spreads work over threads, so BPTT costs the same at any thread count.
    # They store the U gradients in grads and return the fused pre-activation
    # gradient da (T, B, G*H).

    def _gru_backward(self, cache: dict, dh: np.ndarray, grads: dict) -> np.ndarray:
        hh = self.hidden_size
        hs = cache["hs"][:-1]
        z, r, n = _split_gates(cache["act"], 3)
        u_zr_t = self._fused("U", ("z", "r")).T
        u_n_t = self.params["U_n"].T
        # Step-independent factors of the pre-activation gradients.
        k_z = (hs - n) * z * (1.0 - z)  # da_z = dh * k_z
        k_n = (1.0 - z) * (1.0 - n * n)  # da_n = dh * k_n
        k_r = hs * r * (1.0 - r)  # da_r = (da_n @ U_n.T) * k_r
        rh = r * hs
        da = np.empty_like(cache["act"])
        d_u_zr = np.zeros((hh, 2 * hh))
        d_u_n = np.zeros((hh, hh))
        for t in range(len(da) - 1, -1, -1):
            d = da[t]
            d_zr, d_n = d[:, : 2 * hh], d[:, 2 * hh :]
            np.multiply(dh, k_z[t], out=d[:, :hh])
            np.multiply(dh, k_n[t], out=d_n)
            d_rh = d_n @ u_n_t
            np.multiply(d_rh, k_r[t], out=d[:, hh : 2 * hh])
            d_u_zr += hs[t].T @ d_zr
            d_u_n += rh[t].T @ d_n
            dh = dh * z[t] + d_rh * r[t] + d_zr @ u_zr_t
        grads["U_z"], grads["U_r"] = np.split(d_u_zr, 2, axis=1)
        grads["U_n"] = d_u_n
        return da

    def _lstm_backward(self, cache: dict, dh: np.ndarray, grads: dict) -> np.ndarray:
        hh = self.hidden_size
        hs, cs, tcs = cache["hs"][:-1], cache["cs"][:-1], cache["tcs"]
        i, f, o, g = _split_gates(cache["act"], 4)
        u_t = self._fused("U", _FUSED_GATES["lstm"]).T
        # Step-independent factors of the pre-activation gradients.
        k_c = o * (1.0 - tcs * tcs)  # dc += dh * k_c
        k_i = g * i * (1.0 - i)  # da_i = dc * k_i
        k_f = cs * f * (1.0 - f)  # da_f = dc * k_f
        k_o = tcs * o * (1.0 - o)  # da_o = dh * k_o
        k_g = i * (1.0 - g * g)  # da_g = dc * k_g
        da = np.empty_like(cache["act"])
        d_u = np.zeros((hh, 4 * hh))
        dc = np.zeros_like(dh)
        for t in range(len(da) - 1, -1, -1):
            d = da[t]
            dc += dh * k_c[t]
            np.multiply(dc, k_i[t], out=d[:, :hh])
            np.multiply(dc, k_f[t], out=d[:, hh : 2 * hh])
            np.multiply(dh, k_o[t], out=d[:, 2 * hh : 3 * hh])
            np.multiply(dc, k_g[t], out=d[:, 3 * hh :])
            dc *= f[t]
            d_u += hs[t].T @ d
            dh = d @ u_t
        for name, gu in zip(_FUSED_GATES["lstm"], np.split(d_u, 4, axis=1)):
            grads[f"U_{name}"] = gu
        return da


def _step_inputs(xt: np.ndarray, w: np.ndarray, b: np.ndarray) -> Iterator[np.ndarray]:
    """The input projection x_t @ W + b (B, G*H) of each step of a (T, B, D) input.

    numpy computes a stacked (T, B, D) @ (D, G*H) product as one (B, D)
    product per step, so a chunk of steps gives the same bits as the whole
    input at once (TestFusedCoreParity compares the two passes).
    """
    for lo in range(0, xt.shape[0], _STEP_CHUNK):
        proj = xt[lo : lo + _STEP_CHUNK] @ w
        proj += b
        yield from proj


# One step of each cell, from the step's input projection a (B, G*H) and the
# states h and c entering it. The out arrays, when given, receive the new
# states (and the LSTM's tanh(c)): the BPTT cache passes its slices, the
# state-only pass none. The GRU returns its gate activations for the cache;
# the LSTM writes them over a.


def _gru_step(
    a: np.ndarray, h: np.ndarray, u_zr: np.ndarray, u_n: np.ndarray, h_out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    hh = h.shape[1]
    zr = _sigmoid(a[:, : 2 * hh] + h @ u_zr)
    z, r = zr[:, :hh], zr[:, hh:]
    n = np.tanh(a[:, 2 * hh :] + (r * h) @ u_n)
    return np.add(n, z * (h - n), out=h_out), zr, n  # (1 - z) n + z h


def _lstm_step(
    a: np.ndarray,
    h: np.ndarray,
    c: np.ndarray,
    u: np.ndarray,
    h_out: np.ndarray | None = None,
    c_out: np.ndarray | None = None,
    tc_out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    hh = h.shape[1]
    a += h @ u
    sig, g = a[:, : 3 * hh], a[:, 3 * hh :]
    _sigmoid(sig, out=sig)
    np.tanh(g, out=g)
    i, f, o = sig[:, :hh], sig[:, hh : 2 * hh], sig[:, 2 * hh :]
    c_out = np.add(f * c, i * g, out=c_out)
    return np.multiply(o, np.tanh(c_out, out=tc_out), out=h_out), c_out


def _split_gates(fused: np.ndarray, count: int) -> list[np.ndarray]:
    """Contiguous copies of the gate column blocks of a fused (..., G*H) array."""
    return [np.ascontiguousarray(block) for block in np.split(fused, count, axis=-1)]


# ----------------------------------------------------------------------
# operations


def frame_to_tensor(frame: GestureFrame, length: int = DEFAULT_FRAME_LENGTH) -> FrameTensor:
    """Resample a frame to a fixed length and standardize each channel.

    Linear resampling preserves the pulse ordering across channels; constant
    channels standardize to zeros via the sigma floor.
    """
    if length < 1:
        raise InvalidParameterError(f"frame length must be >= 1, got {length}")
    if frame.channels is None or frame.channels.shape[1] == 0:
        raise InvalidParameterError("frame has no channel data")
    channels = np.asarray(frame.channels, dtype=np.float64)
    src = np.linspace(0.0, 1.0, channels.shape[1])
    dst = np.linspace(0.0, 1.0, length)
    resampled = np.stack([np.interp(dst, src, ch) for ch in channels], axis=1)
    mean = resampled.mean(axis=0)
    std = np.maximum(resampled.std(axis=0), 1e-6)
    return (resampled - mean) / std


def cross_entropy(probs: np.ndarray, y_onehot: np.ndarray) -> float:
    """Categorical cross entropy with the log clamped at 1e-12."""
    p = np.clip(np.asarray(probs, dtype=np.float64), 1e-12, None)
    y = np.asarray(y_onehot, dtype=np.float64)
    per_example = -(y * np.log(p)).sum(axis=-1)
    return float(per_example.mean())


def one_hot(labels: np.ndarray, n_classes: int = 10) -> np.ndarray:
    """Class ids 1..n to one-hot rows."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 1 or labels.max() > n_classes:
        raise InvalidParameterError("labels must be class ids in [1, n_classes]")
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels - 1] = 1.0
    return out


def backward_and_update(
    model: ClassifierModel,
    batch_x: np.ndarray,
    batch_y_onehot: np.ndarray,
    learning_rate: float,
) -> float:
    """One vanilla gradient-descent step; returns the batch mean loss."""
    loss, _ = _descent_step(model, batch_x, batch_y_onehot, learning_rate)
    return loss


def _descent_step(
    model: ClassifierModel,
    batch_x: np.ndarray,
    batch_y_onehot: np.ndarray,
    learning_rate: float,
) -> tuple[float, np.ndarray]:
    """backward_and_update, also returning the probabilities from before the step."""
    if np.asarray(batch_x).shape[0] == 0:
        raise InvalidParameterError("batch must be non-empty")
    loss, grads, probs = model._loss_gradients_probs(batch_x, batch_y_onehot)
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingDivergedError(f"non-finite gradient in {name}")
        model.params[name] -= learning_rate * g
    return loss, probs


@dataclass
class TrainHistory:
    """Per-epoch record; epoch_seconds is wall time, validation pass included."""

    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)


def _stratified_split(
    labels: np.ndarray, val_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    train_idx, val_idx = [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(idx.size)]
        k = int(round(idx.size * val_fraction))
        val_idx.extend(idx[:k])
        train_idx.extend(idx[k:])
    return (
        np.sort(np.asarray(train_idx, dtype=np.int64)),
        np.sort(np.asarray(val_idx, dtype=np.int64)),
    )


def train(
    tensors: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig | None = None,
    cell_type: str = "gru",
    hidden_size: int = 20,
    dense_sizes: tuple[int, ...] = (32, 64, 32),
    n_classes: int = 10,
) -> tuple[ClassifierModel, TrainHistory]:
    """Train on (N, T, 4) tensors with class-id labels; fully seeded.

    Uses a stratified train/validation split and records per-epoch loss and
    accuracy on both sides, and each epoch's wall time.
    """
    cfg = cfg or TrainConfig()
    tensors = np.asarray(tensors, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if tensors.ndim != 3 or tensors.shape[0] == 0:
        raise InvalidParameterError("tensors must be a non-empty (N, T, C) array")
    if labels.shape[0] != tensors.shape[0]:
        raise InvalidParameterError("labels must align with tensors")

    rng = np.random.default_rng(cfg.seed)
    train_idx, val_idx = _stratified_split(labels, cfg.val_fraction, rng)
    if train_idx.size == 0:
        raise InvalidParameterError("training split is empty; dataset too small")
    x_train, y_train = tensors[train_idx], labels[train_idx]
    x_val, y_val = tensors[val_idx], labels[val_idx]
    y_train_1h = one_hot(y_train, n_classes)
    y_val_1h = one_hot(y_val, n_classes) if val_idx.size else None

    model = ClassifierModel.initialize(
        cell_type=cell_type,
        seed=cfg.seed,
        input_dim=tensors.shape[2],
        hidden_size=hidden_size,
        dense_sizes=dense_sizes,
        n_classes=n_classes,
    )
    history = TrainHistory()
    n = x_train.shape[0]
    for _ in range(cfg.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        losses = []
        correct = 0
        for lo in range(0, n, cfg.batch_size):
            sel = order[lo : lo + cfg.batch_size]
            bx, by = x_train[sel], y_train_1h[sel]
            loss, probs = _descent_step(model, bx, by, cfg.learning_rate)
            losses.append(loss)
            correct += int((np.argmax(probs, axis=1) + 1 == y_train[sel]).sum())
        history.train_loss.append(float(np.mean(losses)))
        history.train_acc.append(correct / n)
        if y_val_1h is not None:
            val_probs = _batched_forward(model, x_val)
            history.val_loss.append(cross_entropy(val_probs, y_val_1h))
            history.val_acc.append(
                float((np.argmax(val_probs, axis=1) + 1 == y_val).mean())
            )
        history.epoch_seconds.append(time.perf_counter() - t0)
    return model, history


def _batched_forward(model: ClassifierModel, x: np.ndarray, batch: int = 64) -> np.ndarray:
    outs = [model.forward(x[lo : lo + batch]) for lo in range(0, x.shape[0], batch)]
    return np.concatenate(outs, axis=0)


@dataclass
class EvalReport:
    accuracy: float
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    macro_precision: float
    macro_recall: float
    macro_f1: float
    confusion: np.ndarray


def evaluate(model: ClassifierModel, tensors: np.ndarray, labels: np.ndarray) -> EvalReport:
    """Accuracy, per-class precision/recall/F1 (macro averaged) and confusion matrix.

    confusion[i, j] counts true class i+1 predicted as class j+1.
    """
    tensors = np.asarray(tensors, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    probs = _batched_forward(model, tensors)
    pred = np.argmax(probs, axis=1) + 1
    n_classes = model.n_classes
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    for t, q in zip(labels, pred):
        confusion[t - 1, q - 1] += 1
    tp = np.diag(confusion).astype(np.float64)
    pred_tot = confusion.sum(axis=0).astype(np.float64)
    true_tot = confusion.sum(axis=1).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(pred_tot > 0, tp / pred_tot, 0.0)
        recall = np.where(true_tot > 0, tp / true_tot, 0.0)
        denom = precision + recall
        f1 = np.where(denom > 0, 2 * precision * recall / denom, 0.0)
    return EvalReport(
        accuracy=float((pred == labels).mean()),
        precision=precision,
        recall=recall,
        f1=f1,
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        confusion=confusion,
    )


# ----------------------------------------------------------------------
# persistence: binary container + JSON sidecar


def save_model(model: ClassifierModel, path: str | Path) -> None:
    """Versioned binary: magic, dims header, then row-major float64 blocks."""
    path = Path(path)
    cell_code = CELL_TYPES.index(model.cell_type)
    header = struct.pack(
        "<4sIIIII",
        _MAGIC,
        _FORMAT_VERSION,
        cell_code,
        model.input_dim,
        model.hidden_size,
        model.n_classes,
    )
    header += struct.pack("<I", len(model.dense_sizes))
    header += struct.pack(f"<{len(model.dense_sizes)}I", *model.dense_sizes)
    blob = bytearray(header)
    for name in model.param_order():
        blob += np.ascontiguousarray(model.params[name], dtype="<f8").tobytes()
    path.write_bytes(bytes(blob))
    sidecar = {
        "format_version": _FORMAT_VERSION,
        "cell_type": model.cell_type,
        "input_dim": model.input_dim,
        "hidden_size": model.hidden_size,
        "dense_sizes": list(model.dense_sizes),
        "n_classes": model.n_classes,
        "parameters": model.param_order(),
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_model(path: str | Path) -> ClassifierModel:
    """Read a CAPM v1 file; raises ModelError on any malformed or cut-off file."""
    data = Path(path).read_bytes()
    if data[:4] != _MAGIC:
        raise ModelError(f"{path}: not a capstream model file")

    def unpack(fmt: str, offset: int) -> tuple[int, ...]:
        try:
            return struct.unpack_from(fmt, data, offset)
        except struct.error:
            raise ModelError(f"{path}: header cut off at byte {len(data)}") from None

    version, cell_code, input_dim, hidden, n_classes = unpack("<IIIII", 4)
    if version != _FORMAT_VERSION:
        raise ModelError(f"{path}: unsupported format version {version}")
    if cell_code >= len(CELL_TYPES):
        raise ModelError(f"{path}: unknown cell code {cell_code}")
    (n_dense,) = unpack("<I", 24)
    dense_sizes = unpack(f"<{n_dense}I", 28)
    offset = 28 + 4 * n_dense
    cell_type = CELL_TYPES[cell_code]

    shapes = _param_shapes(cell_type, input_dim, hidden, dense_sizes, n_classes)
    expected = offset + 8 * sum(math.prod(shape) for _, shape in shapes)
    if len(data) != expected:
        raise ModelError(f"{path}: {len(data)} bytes, expected {expected} for its header")
    params: dict[str, np.ndarray] = {}
    for name, shape in shapes:
        count = math.prod(shape)
        block = np.frombuffer(data, dtype="<f8", count=count, offset=offset)
        offset += 8 * count
        params[name] = block.reshape(shape).astype(np.float64)
    return ClassifierModel(cell_type, params, input_dim, hidden, tuple(dense_sizes), n_classes)
