"""Domain types for 4-channel capacitive sensor streams.

Sensor channels are numbered 1..4 (the physical plate ids); array axes are
0-based. Sample indices are 0-based positions in the stream.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import InvalidParameterError

NUM_SENSORS = 4
_ROWS_CHUNK = 4096  # columns converted per step of RawStream.rows and the CSV writer
SENSOR_IDS: tuple[int, int, int, int] = (1, 2, 3, 4)

# A sensor id is a plain int in SENSOR_IDS.
SensorId = int


def validate_sensor_id(sensor: int) -> int:
    if sensor not in SENSOR_IDS:
        raise InvalidParameterError(f"sensor id must be one of {SENSOR_IDS}, got {sensor!r}")
    return sensor


def validate_sampling_rate(rate: float) -> float:
    if not 0 < rate < np.inf:
        raise InvalidParameterError(f"sampling_rate must be finite and > 0, got {rate}")
    return rate


@dataclass
class RawStream:
    """Parallel voltage time series for the four sensor plates.

    values has shape (4, n); row s-1 holds sensor s. All channels share the
    index axis, so they are equal length by construction.
    """

    sampling_rate: float
    values: np.ndarray

    def __post_init__(self) -> None:
        validate_sampling_rate(self.sampling_rate)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] != NUM_SENSORS:
            raise InvalidParameterError(
                f"values must have shape (4, n), got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise InvalidParameterError("stream contains non-finite values")

    def __len__(self) -> int:
        return self.values.shape[1]

    def channel(self, sensor: SensorId) -> np.ndarray:
        validate_sensor_id(sensor)
        return self.values[sensor - 1]

    def rows(self) -> Iterator[tuple[int, tuple[float, float, float, float]]]:
        """Yield (index, (v1, v2, v3, v4)) in stream order."""
        v = self.values
        # Converts a bounded chunk at a time: fast, without a second copy of
        # the whole stream as Python floats.
        return itertools.chain.from_iterable(
            enumerate(zip(*v[:, lo : lo + _ROWS_CHUNK].tolist()), start=lo)
            for lo in range(0, v.shape[1], _ROWS_CHUNK)
        )


@dataclass
class ProcessedStream:
    """Conditioned 4-channel signal, before offset subtraction.

    Column m corresponds to raw index start_index + m: the conditioning
    window trails the raw stream, so the first w_smooth raw samples produce
    no output.
    """

    sampling_rate: float
    start_index: int
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] != NUM_SENSORS:
            raise InvalidParameterError(
                f"values must have shape (4, m), got {self.values.shape}"
            )

    def __len__(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class GestureEvent:
    """Ground-truth gesture occurrence: class id plus inclusive index span."""

    class_id: int
    start: int
    end: int


@dataclass
class LabeledRecording:
    """A raw stream plus the ground-truth events it contains."""

    stream: RawStream
    events: list[GestureEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        n = len(self.stream)
        prev_end = -1
        for ev in self.events:
            if not 1 <= ev.class_id <= 10:
                raise InvalidParameterError(f"class_id out of range: {ev.class_id}")
            if not ev.start < ev.end < n:
                raise InvalidParameterError(
                    f"event span [{ev.start}, {ev.end}] invalid for stream of length {n}"
                )
            if ev.start <= prev_end:
                raise InvalidParameterError("events must be sorted and non-overlapping")
            prev_end = ev.end
