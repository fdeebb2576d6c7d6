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
from dataclasses import asdict, dataclass, field, fields
from itertools import repeat
from pathlib import Path
from typing import Iterable

import numpy as np

from .detector import DetectorConfig, GestureFrame
from .dsp import DspConfig
from .errors import ConfigError, InvalidParameterError, ModelError, TrainingDivergedError

CELL_TYPES = ("gru", "lstm")
# Steps per frame tensor. Detector frames are 147-193 samples long at the
# default pads. In the frame-length sweep of scripts/train_classifiers.py,
# 64 steps classify the replayed sessions at least as well as 128 for both
# cells, with held-out accuracy within 0.01, at half the recurrent steps per
# prediction; at 32 steps the GRU starts to miss.
DEFAULT_FRAME_LENGTH = 64
# The longest memory-gate time constant initialize() spreads, in steps. It
# stays at the horizon the initialization was tuned at, whatever the frame
# length, so a seed gives the same parameters at every length.
_GATE_HORIZON = 256

# Frame tensors are (T, channels) float64 arrays, standardized per channel.
FrameTensor = np.ndarray

# Time steps per input projection in the state-only forward.
_STEP_CHUNK = 32

_MAGIC = b"CAPM"
_FORMAT_VERSION = 3
# CAPM v1 files carry no frame length; every one was written at 256 steps.
_V1_FRAME_LENGTH = 256
# The CAPM v3 geometry block: pre_pad, post_pad, smooth_window, sensitivity.
_GEOMETRY_FORMAT = "<III4d"


@dataclass(frozen=True)
class FrameGeometry:
    """How the frames a model was trained on were cut.

    These are the settings that change what a frame tensor holds: the
    detector's pads and the conditioner's sensitivity and smoothing window.
    The detector's other settings decide which spans become frames, and
    init_period sets offsets that frame_to_tensor's per-channel
    standardization cancels up to rounding, so none of them is recorded.
    """

    pre_pad: int = DetectorConfig.pre_pad
    post_pad: int = DetectorConfig.post_pad
    sensitivity: tuple[float, float, float, float] = DspConfig.sensitivity
    smooth_window: int = DspConfig.smooth_window

    def __post_init__(self) -> None:
        self.configs()  # DspConfig and DetectorConfig check the values

    @classmethod
    def of(cls, dsp_cfg: DspConfig, det_cfg: DetectorConfig) -> "FrameGeometry":
        return cls(
            det_cfg.pre_pad,
            det_cfg.post_pad,
            tuple(float(s) for s in dsp_cfg.sensitivity),
            dsp_cfg.smooth_window,
        )

    def configs(self) -> tuple[DspConfig, DetectorConfig]:
        """Conditioner and detector settings that cut frames this way; the
        detector's other settings keep their defaults."""
        return (
            DspConfig(sensitivity=self.sensitivity, smooth_window=self.smooth_window),
            DetectorConfig(pre_pad=self.pre_pad, post_pad=self.post_pad),
        )

    def check(self, dsp_cfg: DspConfig, det_cfg: DetectorConfig) -> None:
        """Raise ConfigError naming each setting in which the configs cut
        frames otherwise than this geometry."""
        other = FrameGeometry.of(dsp_cfg, det_cfg)
        diffs = [
            f"{f.name} {getattr(other, f.name)} (model: {getattr(self, f.name)})"
            for f in fields(self)
            if getattr(other, f.name) != getattr(self, f.name)
        ]
        if diffs:
            raise ConfigError(
                "the config cuts frames otherwise than the model was trained on: " + ", ".join(diffs)
            )


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
    """Recurrent cell + dense stack with explicit parameter tensors.

    frame_length is the number of steps of the frame tensors the model was
    trained on; predict accepts only tensors of that length. geometry says
    how those frames were cut.
    """

    def __init__(
        self,
        cell_type: str,
        params: dict[str, np.ndarray],
        input_dim: int,
        hidden_size: int,
        dense_sizes: tuple[int, ...],
        n_classes: int,
        frame_length: int = DEFAULT_FRAME_LENGTH,
        geometry: FrameGeometry = FrameGeometry(),
    ) -> None:
        if cell_type not in CELL_TYPES:
            raise ModelError(f"cell_type must be one of {CELL_TYPES}, got {cell_type!r}")
        if frame_length < 1:
            raise ModelError(f"frame_length must be >= 1, got {frame_length}")
        self.cell_type = cell_type
        self.params = params
        self.input_dim = input_dim
        self.hidden_size = hidden_size
        self.dense_sizes = tuple(dense_sizes)
        self.n_classes = n_classes
        self.frame_length = frame_length
        self.geometry = geometry
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
        frame_length: int = DEFAULT_FRAME_LENGTH,
        geometry: FrameGeometry = FrameGeometry(),
    ) -> "ClassifierModel":
        """Seeded parameter initialization, tuned so plain gradient descent at
        small rates converges.

        Input weights are uniform, the recurrence is orthogonal, memory-gate
        biases spread log-uniformly over time constants up to _GATE_HORIZON
        steps, and the relu dense stack is scaled above variance-preservation
        so the error signal survives the depth. frame_length and geometry
        set no parameter; the model records them.
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
        # Memory-gate biases spread over log-spaced time constants up to the
        # horizon, so the final hidden state retains multi-scale history from
        # the start.
        spread = np.exp(np.linspace(np.log(2.0), np.log(_GATE_HORIZON), hidden_size))
        gate_bias = np.log(spread - 1.0 + 1e-9)
        if cell_type == "gru":
            params["b_z"] = gate_bias
        else:
            params["b_f"] = gate_bias
            params["b_i"] = -gate_bias.copy()
        return cls(cell_type, params, input_dim, hidden_size, dense_sizes, n_classes, frame_length, geometry)

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
            self.frame_length,
            self.geometry,
        )

    # ------------------------------------------------------------------
    # forward

    def _fused(self, prefix: str, gates: tuple[str, ...]) -> np.ndarray:
        return np.concatenate([self.params[f"{prefix}_{g}"] for g in gates], axis=-1)

    def _step_params(
        self, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
        """Time-major input (T, B, D), fused W (D, G*H), b (G*H) and the recurrent weights.

        The per-gate weights are fused on every call (never stored, so edits
        to self.params take effect at once), columns in _FUSED_GATES order,
        after Appleyard et al. 2016 (arXiv:1604.01946): one input projection
        and, per step, one recurrent matmul. The GRU keeps U_n apart because
        the reset gate scales h before it.

        Every sigmoid column of W, b and U is halved here, once: a step then
        takes sigmoid(x) as 0.5 * tanh(x / 2) + 0.5 straight from its
        pre-activation x / 2, with the same bits as halving x, since halving
        is exact in binary floating point.
        """
        gates = _FUSED_GATES[self.cell_type]
        sig = (len(gates) - 1) * self.hidden_size  # sigmoid gates first, tanh gate last
        w, b = self._fused("W", gates), self._fused("b", gates)
        w[:, :sig] *= 0.5
        b[:sig] *= 0.5
        if self.cell_type == "gru":
            u = (self._fused("U", ("z", "r")) * 0.5, self.params["U_n"])
        else:
            u = (self._fused("U", gates),)
            u[0][:, :sig] *= 0.5
        return np.ascontiguousarray(x.transpose(1, 0, 2)), w, b, u

    def _gate_blocks(self, xt: np.ndarray, w: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
        """The input projection x_t @ W + b of each step of a (T, B, D) input,
        as the (T, B, .) blocks a step takes; the steps write the gate
        activations over them.

        GRU: a z|r block, its z and r halves, and an n block; z|r and n are
        projected apart, so both are contiguous. LSTM: the whole i|f|o|g block, for one tanh over all 4H
        columns, then its i|f|o part and i, f, o, g. The halves and parts are
        views, so a step finds each gate without slicing.
        """
        hh = self.hidden_size
        if self.cell_type == "gru":
            zr = np.matmul(xt, w[:, : 2 * hh])
            zr += b[: 2 * hh]
            n = np.matmul(xt, w[:, 2 * hh :])
            n += b[2 * hh :]
            return [zr, zr[..., :hh], zr[..., hh:], n]
        proj = xt @ w
        proj += b
        return [proj, proj[..., : 3 * hh], *np.split(proj, 4, axis=-1)]

    def _recurrent_forward(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """Run the cell over a (B, T, D) batch; returns the time-major BPTT cache.

        Cache: the gate activations, "zr" (T, B, 2H) and "n" (T, B, H) for
        the GRU, "act" (T, B, 4H) in i f o g order for the LSTM; "hs"
        (T + 1, B, H) with hs[t] the state entering step t; the LSTM adds the
        cell states "cs" (T + 1, B, H) and their tanh "tcs" (T, B, H).
        """
        xt, w, b, u = self._step_params(x)
        blocks = self._gate_blocks(xt, w, b)
        hs = np.zeros((xt.shape[0] + 1, xt.shape[1], self.hidden_size))
        if self.cell_type == "gru":
            _gru_steps(*blocks, *u, hs, hs[1:])
            return {"x": xt, "zr": blocks[0], "n": blocks[3], "hs": hs}
        cs = np.zeros_like(hs)
        tcs = np.empty_like(hs[1:])
        _lstm_steps(*blocks, *u, hs, cs, hs[1:], cs[1:], tcs)
        return {"x": xt, "act": blocks[0], "hs": hs, "cs": cs, "tcs": tcs}

    def _final_state(self, x: np.ndarray) -> np.ndarray:
        """The last hidden state (B, H) of a (B, T, D) batch, keeping only h and c.

        Same steps and bits as _recurrent_forward, which also stores every
        step for the gradient pass. Here the input is projected _STEP_CHUNK
        steps at a time, so memory does not grow with T, and every step
        updates h and c in place. numpy computes a stacked (T, B, D) @ W
        product as one (B, D) product per step, so a chunk of steps gives the
        same bits as the whole input at once (TestFusedCoreParity compares
        the two passes).
        """
        xt, w, b, u = self._step_params(x)
        h = np.zeros((xt.shape[1], self.hidden_size))
        c, tc = np.zeros_like(h), np.empty_like(h)
        for lo in range(0, xt.shape[0], _STEP_CHUNK):
            blocks = self._gate_blocks(xt[lo : lo + _STEP_CHUNK], w, b)
            if self.cell_type == "gru":
                _gru_steps(*blocks, *u, repeat(h), repeat(h))
            else:
                _lstm_steps(*blocks, *u, repeat(h), repeat(c), repeat(h), repeat(c), repeat(tc))
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
        """Class of one (frame_length, input_dim) frame tensor.

        A tensor of another length raises ModelError: the model was trained
        on frames resampled to frame_length steps.
        """
        if np.ndim(tensor) != 2 or np.shape(tensor)[0] != self.frame_length:
            raise ModelError(
                f"predict takes one ({self.frame_length}, {self.input_dim}) frame tensor, "
                f"got shape {np.shape(tensor)}"
            )
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
    # gradient da (T, B, G*H). They consume the forward cache: the
    # step-independent factors k_* are computed in place, several over cache
    # arrays no step reads again (the LSTM's da over "act"), so a training
    # step allocates few (T, B, H) arrays. A gate a step reads (GRU z and r,
    # LSTM f) is copied contiguous once; the others are np.split views. The
    # loop functions below run the steps, last step first.

    def _gru_backward(self, cache: dict, dh: np.ndarray, grads: dict) -> np.ndarray:
        hh = self.hidden_size
        mul, sub = np.multiply, np.subtract
        hs, n = cache["hs"][:-1], cache["n"]
        z, r = (np.ascontiguousarray(gate) for gate in np.split(cache["zr"], 2, axis=-1))
        # Step-independent factors of the pre-activation gradients.
        one_minus = sub(1.0, z)
        k_z = sub(hs, n)
        mul(k_z, z, k_z)
        mul(k_z, one_minus, k_z)  # da_z = dh * k_z
        k_n = mul(n, n, n)
        sub(1.0, k_n, k_n)
        mul(one_minus, k_n, k_n)  # da_n = dh * k_n
        rh = mul(hs, r)
        k_r = sub(1.0, r, one_minus)
        mul(rh, k_r, k_r)  # da_r = (da_n @ U_n.T) * k_r
        da = np.empty(n.shape[:2] + (3 * hh,))
        d_u_zr = np.zeros((hh, 2 * hh))
        d_u_n = np.zeros((hh, hh))
        back = da[::-1]
        _gru_back_steps(
            dh, *np.split(back, 3, axis=-1), back[..., : 2 * hh],
            k_z[::-1], k_n[::-1], k_r[::-1], z[::-1], r[::-1],
            hs.transpose(0, 2, 1)[::-1], rh.transpose(0, 2, 1)[::-1],
            self._fused("U", ("z", "r")).T, self.params["U_n"].T, d_u_zr, d_u_n,
        )
        grads["U_z"], grads["U_r"] = np.split(d_u_zr, 2, axis=1)
        grads["U_n"] = d_u_n
        return da

    def _lstm_backward(self, cache: dict, dh: np.ndarray, grads: dict) -> np.ndarray:
        hh = self.hidden_size
        mul, sub = np.multiply, np.subtract
        hs, cs, tcs = cache["hs"][:-1], cache["cs"][:-1], cache["tcs"]
        i, f, o, g = np.split(cache["act"], 4, axis=-1)
        f = np.ascontiguousarray(f)  # read by every step
        # Step-independent factors of the pre-activation gradients.
        k_c = mul(tcs, tcs)
        sub(1.0, k_c, k_c)
        mul(o, k_c, k_c)  # dc += dh * k_c
        one_minus = sub(1.0, i)
        k_i = mul(g, i)
        mul(k_i, one_minus, k_i)  # da_i = dc * k_i
        k_f = mul(cs, f, cs)
        mul(k_f, sub(1.0, f, one_minus), k_f)  # da_f = dc * k_f
        k_o = mul(tcs, o, tcs)
        mul(k_o, sub(1.0, o, one_minus), k_o)  # da_o = dh * k_o
        k_g = mul(g, g, one_minus)
        sub(1.0, k_g, k_g)
        mul(i, k_g, k_g)  # da_g = dc * k_g
        da = cache["act"]
        d_u = np.zeros((hh, 4 * hh))
        back = da[::-1]
        _lstm_back_steps(
            dh, back, *np.split(back, 4, axis=-1),
            k_c[::-1], k_i[::-1], k_f[::-1], k_o[::-1], k_g[::-1], f[::-1],
            hs.transpose(0, 2, 1)[::-1], self._fused("U", _FUSED_GATES["lstm"]).T, d_u,
        )
        for name, gu in zip(_FUSED_GATES["lstm"], np.split(d_u, 4, axis=1)):
            grads[f"U_{name}"] = gu
        return da


# The recurrent loop of each cell. The gate arguments are the (T, B, .)
# blocks of ClassifierModel._gate_blocks: they hold the input projection,
# sigmoid columns halved (_step_params), and receive the gate activations.
# Step t reads the states h_in[t] (and c_in[t]) and writes the new states (and
# the LSTM's tanh(c)) to h_out[t] (c_out[t], tc_out[t]). The BPTT pass passes
# its cache, so hs[t + 1] follows hs[t]; the state-only pass passes
# itertools.repeat of h and c, which every step updates in place. The scratch
# arrays are allocated once per call, so a step allocates nothing. Every
# operation is a ufunc or np.dot, bound to a local, with out given
# positionally (np.dot costs less per call than matmul at these sizes, with
# the same bits); the constant _HALF is a 0-d array, which numpy takes faster
# than a Python float.

_HALF = np.array(0.5)


def _gru_steps(
    a_zr: np.ndarray,
    z: np.ndarray,
    r: np.ndarray,
    n: np.ndarray,
    u_zr: np.ndarray,
    u_n: np.ndarray,
    h_in: Iterable[np.ndarray],
    h_out: Iterable[np.ndarray],
) -> None:
    add, mul, sub, tanh, dot, half = np.add, np.multiply, np.subtract, np.tanh, np.dot, _HALF
    rh = np.empty(n.shape[1:])
    hu_zr, rhu_n = np.empty(a_zr.shape[1:]), np.empty_like(rh)  # h @ U_zr, (r * h) @ U_n
    for a, z_t, r_t, n_t, h, h_next in zip(a_zr, z, r, n, h_in, h_out):
        add(a, dot(h, u_zr, hu_zr), a)
        tanh(a, a)
        mul(a, half, a)
        add(a, half, a)  # z | r
        add(n_t, dot(mul(r_t, h, rh), u_n, rhu_n), n_t)
        tanh(n_t, n_t)
        sub(h, n_t, h_next)
        mul(h_next, z_t, h_next)
        add(h_next, n_t, h_next)  # (1 - z) n + z h


def _lstm_steps(
    act: np.ndarray,
    sig: np.ndarray,
    i: np.ndarray,
    f: np.ndarray,
    o: np.ndarray,
    g: np.ndarray,
    u: np.ndarray,
    h_in: Iterable[np.ndarray],
    c_in: Iterable[np.ndarray],
    h_out: Iterable[np.ndarray],
    c_out: Iterable[np.ndarray],
    tc_out: Iterable[np.ndarray],
) -> None:
    add, mul, tanh, dot, half = np.add, np.multiply, np.tanh, np.dot, _HALF
    ig = np.empty(g.shape[1:])
    hu = np.empty(act.shape[1:])  # h @ U
    for a, s, i_t, f_t, o_t, g_t, h, c, h_next, c_next, tc in zip(
        act, sig, i, f, o, g, h_in, c_in, h_out, c_out, tc_out
    ):
        add(a, dot(h, u, hu), a)
        tanh(a, a)  # g, and the sigmoid gates' tanh(x / 2)
        mul(s, half, s)
        add(s, half, s)  # i | f | o
        mul(f_t, c, c_next)
        add(c_next, mul(i_t, g_t, ig), c_next)
        mul(o_t, tanh(c_next, tc), h_next)


# The BPTT loop of each cell, in the same design. Every per-step argument is
# a (T, B, .) array given time-reversed (da[::-1, :, :hh], k_z[::-1],
# hs.transpose(0, 2, 1)[::-1], ...), so iterating it yields the step operands,
# last step first, and a step slices or indexes nothing. dh (B, H) enters as
# the gradient of the last state and is updated in place; each step writes
# its pre-activation gradients into the da views and adds its U-gradient terms
# to d_u* in reverse time order, the order of the recorded gradient bits
# (TestFusedCoreParity). The GRU's products take column blocks of da, which
# np.dot would copy on every call, so they use np.matmul, which reads them in
# place; the LSTM's are contiguous and use np.dot. numpy itself buffers a
# ufunc operand that is a column block (the da_* outputs), at most
# np.getbufsize() elements per call.
def _gru_back_steps(
    dh: np.ndarray,
    d_z: np.ndarray,
    d_r: np.ndarray,
    d_n: np.ndarray,
    d_zr: np.ndarray,
    k_z: np.ndarray,
    k_n: np.ndarray,
    k_r: np.ndarray,
    z: np.ndarray,
    r: np.ndarray,
    hs_t: np.ndarray,
    rh_t: np.ndarray,
    u_zr_t: np.ndarray,
    u_n_t: np.ndarray,
    d_u_zr: np.ndarray,
    d_u_n: np.ndarray,
) -> None:
    add, mul, matmul = np.add, np.multiply, np.matmul
    d_rh, hu = np.empty_like(dh), np.empty_like(dh)  # da_n @ U_n.T, da_zr @ U_zr.T
    du_zr, du_n = np.empty_like(d_u_zr), np.empty_like(d_u_n)
    for dz, dr, dn, dzr, kz, kn, kr, z_t, r_t, h_t, rh in zip(
        d_z, d_r, d_n, d_zr, k_z, k_n, k_r, z, r, hs_t, rh_t
    ):
        mul(dh, kz, dz)
        mul(dh, kn, dn)
        mul(matmul(dn, u_n_t, d_rh), kr, dr)
        add(d_u_zr, matmul(h_t, dzr, du_zr), d_u_zr)
        add(d_u_n, matmul(rh, dn, du_n), d_u_n)
        mul(dh, z_t, dh)
        add(dh, mul(d_rh, r_t, d_rh), dh)
        add(dh, matmul(dzr, u_zr_t, hu), dh)  # dh z + d_rh r + da_zr @ U_zr.T


def _lstm_back_steps(
    dh: np.ndarray,
    da: np.ndarray,
    d_i: np.ndarray,
    d_f: np.ndarray,
    d_o: np.ndarray,
    d_g: np.ndarray,
    k_c: np.ndarray,
    k_i: np.ndarray,
    k_f: np.ndarray,
    k_o: np.ndarray,
    k_g: np.ndarray,
    f: np.ndarray,
    hs_t: np.ndarray,
    u_t: np.ndarray,
    d_u: np.ndarray,
) -> None:
    add, mul, dot = np.add, np.multiply, np.dot
    dc, dhk = np.zeros_like(dh), np.empty_like(dh)  # dh * k_c
    du = np.empty_like(d_u)
    for d, di, df, do, dg, kc, ki, kf, ko, kg, f_t, h_t in zip(
        da, d_i, d_f, d_o, d_g, k_c, k_i, k_f, k_o, k_g, f, hs_t
    ):
        add(dc, mul(dh, kc, dhk), dc)
        mul(dc, ki, di)
        mul(dc, kf, df)
        mul(dh, ko, do)
        mul(dc, kg, dg)
        mul(dc, f_t, dc)
        add(d_u, dot(h_t, d, du), d_u)
        dot(d, u_t, dh)


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
    geometry: FrameGeometry = FrameGeometry(),
) -> tuple[ClassifierModel, TrainHistory]:
    """Train on (N, T, 4) tensors with class-id labels; fully seeded.

    Uses a stratified train/validation split and records per-epoch loss and
    accuracy on both sides, and each epoch's wall time. The model's
    frame_length is T, and its geometry is the one the tensors were cut
    with. A split that holds out no frame, or keeps none for training,
    raises InvalidParameterError.
    """
    cfg = cfg or TrainConfig()
    tensors = np.asarray(tensors, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if tensors.ndim != 3 or tensors.shape[0] == 0:
        raise InvalidParameterError("tensors must be a non-empty (N, T, C) array")
    if labels.shape[0] != tensors.shape[0]:
        raise InvalidParameterError("labels must align with tensors")

    # Initialized first, so a bad model size is reported before a bad split.
    model = ClassifierModel.initialize(
        cell_type=cell_type,
        seed=cfg.seed,
        input_dim=tensors.shape[2],
        hidden_size=hidden_size,
        dense_sizes=dense_sizes,
        n_classes=n_classes,
        frame_length=tensors.shape[1],
        geometry=geometry,
    )
    rng = np.random.default_rng(cfg.seed)
    train_idx, val_idx = _stratified_split(labels, cfg.val_fraction, rng)
    if train_idx.size == 0:
        raise InvalidParameterError("training split is empty; dataset too small")
    if val_idx.size == 0:
        raise InvalidParameterError(
            f"validation split is empty: val_fraction {cfg.val_fraction} holds out no frame "
            "of any class; dataset too small"
        )
    x_train, y_train = tensors[train_idx], labels[train_idx]
    x_val, y_val = tensors[val_idx], labels[val_idx]
    y_train_1h = one_hot(y_train, n_classes)
    y_val_1h = one_hot(y_val, n_classes)

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
        val_probs = _batched_forward(model, x_val)
        history.val_loss.append(cross_entropy(val_probs, y_val_1h))
        history.val_acc.append(float((np.argmax(val_probs, axis=1) + 1 == y_val).mean()))
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
    """CAPM v3: magic, dims header, then row-major float64 blocks, plus a JSON sidecar.

    Header after the magic: <u4 version, cell code, input_dim, hidden,
    n_classes, frame_length, pre_pad, post_pad, smooth_window; four <f8
    sensitivities; <u4 dense count, dense sizes.
    """
    path = Path(path)
    cell_code = CELL_TYPES.index(model.cell_type)
    header = struct.pack(
        "<4sIIIIII",
        _MAGIC,
        _FORMAT_VERSION,
        cell_code,
        model.input_dim,
        model.hidden_size,
        model.n_classes,
        model.frame_length,
    )
    geo = model.geometry
    header += struct.pack(_GEOMETRY_FORMAT, geo.pre_pad, geo.post_pad, geo.smooth_window, *geo.sensitivity)
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
        "frame_length": model.frame_length,
        **asdict(geo),
        "parameters": model.param_order(),
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_model(path: str | Path) -> ClassifierModel:
    """Read a CAPM v3 file, a v2 file with the default geometry, or a v1
    file with the default geometry and frame_length 256 (v1 has no
    frame_length field, v2 no geometry); raises ModelError on any malformed
    or cut-off file or any other version."""
    data = Path(path).read_bytes()
    if data[:4] != _MAGIC:
        raise ModelError(f"{path}: not a capstream model file")

    def unpack(fmt: str, offset: int) -> tuple[int, ...]:
        try:
            return struct.unpack_from(fmt, data, offset)
        except struct.error:
            raise ModelError(f"{path}: header cut off at byte {len(data)}") from None

    (version,) = unpack("<I", 4)
    if version not in (1, 2, _FORMAT_VERSION):
        raise ModelError(f"{path}: unsupported format version {version}")
    cell_code, input_dim, hidden, n_classes = unpack("<IIII", 8)
    offset = 24
    frame_length = _V1_FRAME_LENGTH
    geometry = FrameGeometry()
    if version >= 2:
        (frame_length,) = unpack("<I", offset)
        offset += 4
    if version >= 3:
        pre_pad, post_pad, smooth_window, *sensitivity = unpack(_GEOMETRY_FORMAT, offset)
        offset += struct.calcsize(_GEOMETRY_FORMAT)
        try:
            geometry = FrameGeometry(pre_pad, post_pad, tuple(sensitivity), smooth_window)
        except InvalidParameterError as exc:
            raise ModelError(f"{path}: frame geometry: {exc}") from None
    if cell_code >= len(CELL_TYPES):
        raise ModelError(f"{path}: unknown cell code {cell_code}")
    (n_dense,) = unpack("<I", offset)
    dense_sizes = unpack(f"<{n_dense}I", offset + 4)
    offset += 4 + 4 * n_dense
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
    return ClassifierModel(
        cell_type, params, input_dim, hidden, tuple(dense_sizes), n_classes, frame_length, geometry
    )
