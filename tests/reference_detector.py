"""Frozen per-sample detector: the oracle for the block detector's parity tests.

This is the state machine as it stood before the detector gained push_block,
one Python step per conditioned row with list-backed history. It must not be
changed to follow the shipped detector; the parity tests compare the shipped
step, push_block and detect_frames against it.
"""
from __future__ import annotations

import numpy as np

from capstream.detector import DetectorConfig, GestureFrame
from capstream.errors import CapacityError, OrderingError
from capstream.signals import NUM_SENSORS


class ReferenceDetector:
    def __init__(self, cfg: DetectorConfig | None = None) -> None:
        self.cfg = cfg or DetectorConfig()
        c = self.cfg
        self._cap = 2 * (c.pre_pad + c.post_pad + c.safety_period + c.update_period)
        self._buf = [[0.0] * self._cap for _ in range(NUM_SENSORS)]
        self._j: int | None = None
        self._first_j: int | None = None
        self._seen = 0
        self._initialized = False
        self._init_sums = [0.0] * NUM_SENSORS
        self._lam = [0.0] * NUM_SENSORS
        self._delta = [c.phi] * NUM_SENSORS
        self._start = [0] * NUM_SENSORS
        self._end = [0] * NUM_SENSORS
        self._upcross = [0] * NUM_SENSORS
        self._cnt = [0] * NUM_SENSORS
        self._isum = [0.0] * NUM_SENSORS
        self._icount = [0] * NUM_SENSORS
        self._prev = [0.0] * NUM_SENSORS
        self._recovering = [False] * NUM_SENSORS
        self._frames: list[list[tuple[int, int]]] = [[] for _ in range(NUM_SENSORS)]
        self._k = 0
        self.diagnostics = {
            "clamped_starts": 0,
            "orphan_down_crossings": 0,
            "long_dwells": 0,
            "safety_recomputes": 0,
        }

    def _window_lo(self, j: int, length: int) -> int | None:
        first_valid = j - self._cap + 1
        if self._first_j is not None:
            first_valid = max(first_valid, self._first_j)
        lo = j - length + 1
        if lo < first_valid:
            return None
        return lo

    def _range_sum(self, s: int, lo: int, hi: int) -> float:
        buf = self._buf[s]
        total = 0.0
        for i in range(lo, hi + 1):
            total += buf[i % self._cap]
        return total

    def _periodic_update(self, s: int, j: int) -> None:
        c = self.cfg
        if self._icount[s] > 0:
            self._lam[s] = self._isum[s] / self._icount[s]
        lo = self._window_lo(j, c.update_period)
        if lo is not None:
            mean = self._range_sum(s, lo, j) / c.update_period
            self._delta[s] = mean - self._lam[s] + c.phi
        self._isum[s] = 0.0
        self._icount[s] = 0

    def step(self, j: int, values) -> GestureFrame | None:
        if self._j is None:
            self._first_j = j
        elif j != self._j + 1:
            raise OrderingError(f"expected index {self._j + 1}, got {j}")
        self._j = j
        pos = j % self._cap
        c = self.cfg

        if not self._initialized:
            for s in range(NUM_SENSORS):
                x = float(values[s])
                self._buf[s][pos] = x
                self._init_sums[s] += x
                self._prev[s] = x
            self._seen += 1
            if self._seen >= c.init_period:
                for s in range(NUM_SENSORS):
                    self._lam[s] = self._init_sums[s] / c.init_period
                    self._delta[s] = c.phi
                self._initialized = True
            return None

        p1 = c.update_period
        for s in range(NUM_SENSORS):
            x = float(values[s])
            self._buf[s][pos] = x
            lam = self._lam[s]
            cur = x - lam
            prev = self._prev[s] - lam
            self._prev[s] = x
            delta = self._delta[s]
            frame_open = self._start[s] != 0 or self._end[s] != 0

            if not frame_open:
                self._isum[s] += x
                self._icount[s] += 1

            if self._recovering[s]:
                if not frame_open and j % p1 == 0:
                    self._periodic_update(s, j)
                    self._recovering[s] = False
            elif cur > delta and prev < delta:
                start = j - c.pre_pad
                if start < 1:
                    self.diagnostics["clamped_starts"] += 1
                    start = 1
                self._start[s] = start
                self._upcross[s] = j
            elif cur > delta:
                self._cnt[s] += 1
                if self._cnt[s] > c.safety_period:
                    lo = self._window_lo(j, p1)
                    if lo is not None:
                        self._delta[s] = self._range_sum(s, lo, j) / p1 - lam
                    self._cnt[s] = 0
                    self._start[s] = 0
                    self._end[s] = 0
                    self._upcross[s] = 0
                    self._recovering[s] = True
                    self.diagnostics["safety_recomputes"] += 1
            elif cur < delta and prev > delta:
                if self._upcross[s] == 0:
                    self.diagnostics["orphan_down_crossings"] += 1
                else:
                    if j - self._upcross[s] > c.max_crossing_window:
                        self.diagnostics["long_dwells"] += 1
                    self._end[s] = j + c.post_pad
                    self._cnt[s] = 0
            elif not frame_open and j % p1 == 0:
                self._periodic_update(s, j)

            if self._end[s] == j:
                if j > c.warmup_period and self._start[s] != 0:
                    self._frames[s].append((self._start[s], self._end[s]))
                self._start[s] = 0
                self._end[s] = 0
                self._upcross[s] = 0

        if j <= c.warmup_period:
            return None
        return self._merge_and_emit(j)

    def _merge_and_emit(self, j: int) -> GestureFrame | None:
        frames = self._frames
        if not (frames[0] or frames[1] or frames[2] or frames[3]):
            return None
        for s in range(NUM_SENSORS):
            if self._start[s] != 0 or self._end[s] != 0:
                return None
        start = min(f[0] for fs in frames for f in fs)
        end = max(f[1] for fs in frames for f in fs)
        if end > j or start == 0 or end == 0:
            return None
        frame = GestureFrame(k=self._k + 1, start=start, end=end, channels=self._slice(start, end))
        self._k += 1
        for fs in frames:
            fs.clear()
        return frame

    def _slice(self, start: int, end: int) -> np.ndarray:
        first_valid = (self._j or 0) - self._cap + 1
        if self._first_j is not None:
            first_valid = max(first_valid, self._first_j)
        if start < first_valid:
            raise CapacityError(f"frame [{start}, {end}] no longer buffered")
        out = np.empty((NUM_SENSORS, end - start + 1))
        for s in range(NUM_SENSORS):
            buf = self._buf[s]
            lam = self._lam[s]
            for i, idx in enumerate(range(start, end + 1)):
                out[s, i] = buf[idx % self._cap] - lam
        return out


def reference_frames(start_index: int, values: np.ndarray, cfg: DetectorConfig | None = None):
    """Frames and diagnostics of the frozen detector over a (4, n) conditioned stream."""
    det = ReferenceDetector(cfg)
    frames = []
    for m in range(values.shape[1]):
        frame = det.step(start_index + m, values[:, m].tolist())
        if frame is not None:
            frames.append(frame)
    return frames, det.diagnostics
