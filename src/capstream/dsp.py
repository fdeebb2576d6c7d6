"""Signal conditioning and frequency analysis for raw sensor streams.

One conditioning route feeds the detector on every path: the weighted
sequential difference with moving-average smoothing, in batch
(weighted_smoothed_difference) and streaming (StreamingConditioner) form.
FFT-domain helpers back the band statistics.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError, InvalidParameterError
from .signals import NUM_SENSORS, ProcessedStream, RawStream

# The five analysis bands used for the idle/gesture spectral comparison.
DEFAULT_BANDS: tuple[tuple[float, float], ...] = (
    (1.0, 100.0),
    (100.0, 200.0),
    (200.0, 300.0),
    (300.0, 400.0),
    (400.0, 500.0),
)


@dataclass
class DspConfig:
    """Conditioning parameters.

    sensitivity weighs the current sample against the previous one per
    sensor; 0.5 everywhere reduces the weighted difference to the plain
    sequential difference. smooth_window is deliberately small (latency in
    samples).
    """

    sensitivity: tuple[float, float, float, float] = (0.5, 0.5, 0.5, 0.5)
    smooth_window: int = 5

    def __post_init__(self) -> None:
        if len(self.sensitivity) != NUM_SENSORS:
            raise InvalidParameterError("sensitivity needs one value per sensor")
        for tau in self.sensitivity:
            if not 0.0 <= tau <= 1.0:
                raise InvalidParameterError(f"sensitivity must lie in [0, 1], got {tau}")
        if self.smooth_window < 1:
            raise InvalidParameterError("smooth_window must be >= 1")


@dataclass
class Spectrum:
    """One-sided magnitude spectrum; bin k sits at frequencies[k] Hz."""

    frequencies: np.ndarray
    magnitudes: np.ndarray


@dataclass
class BandStats:
    """Mean/stddev of the band-passed signal magnitude for one band."""

    band: tuple[float, float]
    mean: float
    std: float


def sequential_difference(stream: RawStream | np.ndarray) -> np.ndarray:
    """Absolute difference of consecutive samples per sensor, shape (4, n-1).

    Constant channels map to zeros, which is what zero-centres the idle
    signal without an explicit offset pass.
    """
    values = stream.values if isinstance(stream, RawStream) else np.asarray(stream)
    if values.ndim == 1:
        values = values[None, :]
    if values.shape[-1] < 2:
        raise InsufficientDataError("need at least 2 samples to difference")
    return np.abs(np.diff(values.astype(np.float64), axis=-1))


def _diff_weights(sensitivity) -> tuple[np.ndarray, np.ndarray]:
    """Per-sensor (2 tau, 2 (1 - tau)) as (4, 1) columns."""
    tau = np.asarray(sensitivity, dtype=np.float64)[:, None]
    return 2.0 * tau, 2.0 * (1.0 - tau)


def _weighted_diffs(x: np.ndarray, w_new: np.ndarray, w_old: np.ndarray) -> np.ndarray:
    """|w_new x[:, i+1] - w_old x[:, i]| for every consecutive pair, shape (4, n-1)."""
    d = w_new * x[:, 1:]
    d -= w_old * x[:, :-1]
    return np.abs(d, out=d)


def _moving_average(values: np.ndarray, w: int) -> np.ndarray:
    """Mean of every w consecutive columns, summed left to right.

    The sequential sum gives the same bits as adding one window at a time,
    which is what lets the batch and the streaming conditioner agree exactly.
    """
    m = values.shape[1] - w + 1
    if m <= 0:
        return np.empty((values.shape[0], 0))
    acc = values[:, :m].copy()
    for i in range(1, w):
        acc += values[:, i : i + m]
    acc /= w
    return acc


def weighted_smoothed_difference(
    stream: RawStream, cfg: DspConfig | None = None
) -> ProcessedStream:
    """Moving average of the sensitivity-weighted absolute difference.

    Output column m corresponds to raw index m + smooth_window; the factor 2
    restores the plain-difference magnitude at sensitivity 0.5, so window 1
    with sensitivity 0.5 reproduces sequential_difference exactly. The 2 is
    folded into the weights, not applied to the difference, so a subnormal
    difference is not halved to zero on the way.
    """
    cfg = cfg or DspConfig()
    w = cfg.smooth_window
    if len(stream) < w + 1:
        raise InsufficientDataError(f"need at least {w + 1} samples, got {len(stream)}")
    diffs = _weighted_diffs(stream.values, *_diff_weights(cfg.sensitivity))
    return ProcessedStream(
        sampling_rate=stream.sampling_rate, start_index=w, values=_moving_average(diffs, w)
    )


def _padded_spectrum(x: np.ndarray, sampling_rate: float) -> tuple[np.ndarray, np.ndarray, int]:
    """rfft of x zero-padded to a power of two: (bins, bin frequencies in Hz, padded length)."""
    n = 1 << (max(x.size, 2) - 1).bit_length()
    padded = np.zeros(n)
    padded[: x.size] = x
    spec = np.fft.rfft(padded)
    return spec, np.arange(spec.size) * sampling_rate / n, n


def fft(signal: Sequence[float] | np.ndarray, sampling_rate: float) -> Spectrum:
    """One-sided magnitude spectrum of the signal zero-padded to a power of two."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise InsufficientDataError("fft needs a non-empty 1-D signal")
    if sampling_rate <= 0:
        raise InvalidParameterError("sampling_rate must be > 0")
    spec, freqs, _ = _padded_spectrum(x, sampling_rate)
    return Spectrum(frequencies=freqs, magnitudes=np.abs(spec))


def band_pass(
    signal: Sequence[float] | np.ndarray,
    band: tuple[float, float],
    sampling_rate: float,
) -> np.ndarray:
    """Spectral-mask band-pass keeping bins inside [band[0], band[1]] Hz."""
    x = np.asarray(signal, dtype=np.float64)
    lo, hi = band
    if not 0 <= lo < hi:
        raise InvalidParameterError(f"band bounds must satisfy 0 <= lo < hi, got {band}")
    if hi > sampling_rate / 2:
        raise InvalidParameterError(
            f"band {band} exceeds Nyquist {sampling_rate / 2} Hz"
        )
    spec, freqs, n = _padded_spectrum(x, sampling_rate)
    spec[(freqs < lo) | (freqs > hi)] = 0.0
    return np.fft.irfft(spec, n)[: x.size]


def band_statistics(
    signal: Sequence[float] | np.ndarray,
    bands: Sequence[tuple[float, float]],
    sampling_rate: float,
) -> list[BandStats]:
    """Mean and stddev of |band-passed signal| for each requested band."""
    out = []
    for band in bands:
        filtered = np.abs(band_pass(signal, tuple(band), sampling_rate))
        out.append(
            BandStats(band=(float(band[0]), float(band[1])),
                      mean=float(filtered.mean()),
                      std=float(filtered.std()))
        )
    return out


class StreamingConditioner:
    """Streaming counterpart of weighted_smoothed_difference.

    Carries the previous raw row and the last smooth_window - 1 weighted
    differences per sensor; one writer per instance. push (one row) and
    push_block (many rows) share that state and may be interleaved; both give
    the batch output bit for bit. The first output appears once
    smooth_window + 1 raw rows were pushed and belongs to the newest row.
    """

    def __init__(self, cfg: DspConfig | None = None) -> None:
        self.cfg = cfg or DspConfig()
        self._w_new, self._w_old = _diff_weights(self.cfg.sensitivity)
        self._weights = tuple(zip(self._w_new[:, 0].tolist(), self._w_old[:, 0].tolist()))
        self._w = self.cfg.smooth_window
        self._prev: list[float] | None = None
        # Per sensor, oldest first; shorter than w - 1 only while priming.
        self._tail: list[list[float]] = [[] for _ in range(NUM_SENSORS)]

    def push(self, row: Sequence[float]) -> tuple[float, ...] | None:
        """Feed one raw row (v1..v4); returns the processed row or None while priming."""
        if self._prev is None:
            self._prev = [float(v) for v in row]
            return None
        w = self._w
        keep = w - 1
        out = []
        for s in range(NUM_SENSORS):
            w_new, w_old = self._weights[s]
            x = float(row[s])
            d = abs(w_new * x - w_old * self._prev[s])
            self._prev[s] = x
            tail = self._tail[s]
            if len(tail) < keep:
                tail.append(d)
                continue
            # Added one by one, as the batch kernel does: from Python 3.12,
            # sum() of floats compensates rounding and would part from it.
            acc = 0.0
            for v in tail:
                acc += v
            out.append((acc + d) / w)
            if keep:
                del tail[0]
                tail.append(d)
        return tuple(out) if len(out) == NUM_SENSORS else None

    def push_block(self, values: np.ndarray) -> np.ndarray:
        """Feed raw rows as columns of a (4, k) array.

        Returns the processed columns, shape (4, m): one per pushed row past
        priming, so they belong to the last m rows of the block.
        """
        x = np.asarray(values, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != NUM_SENSORS:
            raise InvalidParameterError(f"block must have shape (4, k), got {x.shape}")
        if x.shape[1] == 0:
            return np.empty((NUM_SENSORS, 0))
        if self._prev is None:
            self._prev = x[:, 0].tolist()
            x = x[:, 1:]
        seq = np.concatenate((np.asarray(self._prev)[:, None], x), axis=1)
        diffs = np.concatenate(
            (np.asarray(self._tail, dtype=np.float64).reshape(NUM_SENSORS, -1),
             _weighted_diffs(seq, self._w_new, self._w_old)),
            axis=1,
        )
        self._prev = seq[:, -1].tolist()
        self._tail = diffs[:, diffs.shape[1] - min(self._w - 1, diffs.shape[1]) :].tolist()
        return _moving_average(diffs, self._w)
