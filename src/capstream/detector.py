"""Per-sensor adaptive-threshold detection and gesture frame extraction.

Each sensor runs an independent state machine over the conditioned signal:
a running offset keeps the signal zero-centred, a threshold updated every
update_period samples gates detections, and threshold crossings open/close
per-sensor frame candidates that are merged across sensors into the emitted
multi-channel frame.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .dsp import DspConfig, weighted_smoothed_difference
from .errors import (
    CapacityError,
    InsufficientDataError,
    InvalidParameterError,
    OrderingError,
)
from .signals import NUM_SENSORS, ProcessedStream, RawStream

log = logging.getLogger(__name__)

# The largest period DetectorConfig accepts, in samples (5.5 h at 53 Hz). The
# detector's history ring spans several periods, so a larger one would ask
# for gigabytes before the first sample.
MAX_PERIOD = 2**20

@dataclass
class DetectorConfig:
    """Detection parameters; defaults are the reference values at 53 Hz.

    All periods are sample counts. pre_pad/post_pad widen each detection to
    cover signal ramps on both sides. safety_period bounds how long a sensor
    may sit above threshold before the reading is treated as a malfunction
    (e.g. direct contact).

    phi (volts) is added to the window's mean excess over the offset at each
    periodic update (update_threshold). It is not an invariant floor: the
    offset is the mean of the quiet samples only, so the threshold can end
    below phi, and the safety recompute adds no phi. The abstract does not
    fix the rule; a clamp at phi would move frames and is left undecided.
    """

    phi: float = 20.0
    update_period: int = 318      # offset/threshold refresh (6 s at 53 Hz)
    pre_pad: int = 70             # samples added before the upward crossing
    post_pad: int = 70            # samples added after the downward crossing
    safety_period: int = 159      # 3 s at 53 Hz
    init_period: int = 530        # offset initialization span (10 s)
    warmup_period: int = 424      # no emissions before this index (8 s)
    max_crossing_window: int = 50 # dwell above threshold considered a crisp crossing pair

    def __post_init__(self) -> None:
        for name in (
            "update_period",
            "pre_pad",
            "post_pad",
            "safety_period",
            "init_period",
            "warmup_period",
            "max_crossing_window",
        ):
            value = getattr(self, name)
            if not 0 < value <= MAX_PERIOD:
                raise InvalidParameterError(f"{name} must be > 0 and <= {MAX_PERIOD}, got {value}")
        if not 0 < self.phi < math.inf:
            raise InvalidParameterError(f"phi must be finite and > 0, got {self.phi}")

    @property
    def capacity(self) -> int:
        """History span per sensor; bounds memory yet always covers a legal frame."""
        return 2 * (self.pre_pad + self.post_pad + self.safety_period + self.update_period)


@dataclass
class GestureFrame:
    """Offset-subtracted multi-channel window covering one detected gesture."""

    k: int
    start: int
    end: int
    channels: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise InvalidParameterError("frame start must precede end")
        if self.channels is not None:
            self.channels = np.asarray(self.channels, dtype=np.float64)
            expected = self.end - self.start + 1
            if self.channels.shape != (NUM_SENSORS, expected):
                raise InvalidParameterError(
                    f"channels must have shape (4, {expected}), got {self.channels.shape}"
                )

    def __len__(self) -> int:
        return self.end - self.start + 1


def _sequential_sum(values: np.ndarray) -> np.ndarray:
    """Sum along the last axis left to right, as adding the samples one by one."""
    return np.add.accumulate(values, axis=-1)[..., -1]


def initialize_offsets(processed: ProcessedStream | np.ndarray, init_period: int) -> np.ndarray:
    """Per-sensor offsets: the mean of the first init_period conditioned samples.

    The detector and the training frames of dataset.truth_frames both take
    their offsets from here, so a frame is cut with the same bits either way.
    """
    values = processed.values if isinstance(processed, ProcessedStream) else np.asarray(processed)
    if values.ndim != 2 or values.shape[0] != NUM_SENSORS:
        raise InvalidParameterError("processed prefix must have shape (4, n)")
    if values.shape[1] < init_period:
        raise InsufficientDataError(
            f"need {init_period} samples for offset initialization, got {values.shape[1]}"
        )
    return _sequential_sum(values[:, :init_period]) / init_period


def update_threshold(
    window: np.ndarray, offset: float, phi: float, update_period: int
) -> float:
    """Threshold rule: the window's mean minus the offset, plus phi.

    The detector's periodic update calls it with phi and its safety
    recompute with phi = 0.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 1 or window.size != update_period:
        raise InvalidParameterError(
            f"threshold window must hold exactly {update_period} samples, got {window.size}"
        )
    return float(_sequential_sum(window) / update_period - offset + phi)


class AdaptiveThresholdDetector:
    """Streaming detector over conditioned samples.

    Feed strictly consecutive indices, one row at a time through step() or
    many at once through push_block(); the two share all state and may be
    interleaved. A GestureFrame is returned on the sample that closes a
    merged detection. Not safe for concurrent feeds; run one instance per
    stream.
    """

    def __init__(self, cfg: DetectorConfig | None = None) -> None:
        self.cfg = cfg or DetectorConfig()
        c = self.cfg
        self._cap = c.capacity
        # History is valid for the last cap indices, and the first
        # init_period until the offsets are set from them. The ring holds one
        # more push_block segment (cap columns) so that writing a segment up
        # front never overwrites a sample an event inside it may still read.
        self._ring = self._cap + max(self._cap, c.init_period)
        self._hist = np.zeros((NUM_SENSORS, self._ring))
        self._hist_rows = list(self._hist)  # per-sensor views, for step()
        self._j: int | None = None
        self._first_j: int | None = None
        self._initialized = False

        self._lam = [0.0] * NUM_SENSORS
        self._delta = [c.phi] * NUM_SENSORS
        self._end = [0] * NUM_SENSORS
        # Nonzero while a detection is open; the start is derived at commit.
        self._upcross = [0] * NUM_SENSORS
        self._cnt = [0] * NUM_SENSORS
        self._isum = [0.0] * NUM_SENSORS
        self._icount = [0] * NUM_SENSORS
        self._prev = [0.0] * NUM_SENSORS
        self._recovering = [False] * NUM_SENSORS
        # (min start, max end) of the detections committed and not yet emitted.
        self._span: tuple[int, int] | None = None

        self._k = 0
        self.diagnostics = {
            "clamped_starts": 0,
            "orphan_down_crossings": 0,
            "long_dwells": 0,
            "safety_recomputes": 0,
        }

    @property
    def initialized(self) -> bool:
        return self._initialized

    @property
    def next_emit_index(self) -> int:
        """Smallest index at which a frame could be returned.

        Rows before it cannot close a frame, so a caller may buffer them and
        feed them as one block. A frame needs a commit, which happens only at
        a pending end, and a down crossing sets its end post_pad ahead. It is
        merged once every open sensor closed, which an open sensor does at
        its end at the earliest or by a safety clear, once its count of
        samples above threshold exceeds safety_period.
        """
        j = self._j
        if j is None:
            return 0
        c = self.cfg
        if self._span is not None:
            horizon = j + 1
        else:
            horizon = min([j + 1 + c.post_pad] + [end for end in self._end if end])
        for s in range(NUM_SENSORS):
            if self._upcross[s] != 0:
                close = min(
                    self._end[s] or j + 1 + c.post_pad,
                    j + 1 + c.safety_period - self._cnt[s],
                )
                horizon = max(horizon, close)
        return horizon

    def offsets(self) -> np.ndarray:
        return np.asarray(self._lam, dtype=np.float64)

    def thresholds(self) -> np.ndarray:
        return np.asarray(self._delta, dtype=np.float64)

    def _advance(self, first: int, k: int) -> None:
        """Check that index first continues the feed and claim k indices."""
        if self._j is None:
            self._first_j = first
        elif first != self._j + 1:
            raise OrderingError(f"expected index {self._j + 1}, got {first}")
        self._j = first + k - 1

    def _first_valid(self, j: int) -> int:
        """Oldest index still buffered once j was written."""
        return max(j - self._cap + 1, self._first_j)

    def _update_threshold(self, s: int, j: int, phi: float) -> None:
        """Set sensor s's threshold from the update_period samples ending at j."""
        p1 = self.cfg.update_period
        lo = j - p1 + 1
        if lo < self._first_valid(j):
            log.debug("sensor %d: threshold update at %d skipped, window not buffered", s + 1, j)
            return
        window = self._hist[s, np.arange(lo, j + 1) % self._ring]
        self._delta[s] = update_threshold(window, self._lam[s], phi, p1)

    def _periodic_update(self, s: int, j: int) -> None:
        if self._icount[s] > 0:
            self._lam[s] = self._isum[s] / self._icount[s]
        self._update_threshold(s, j, self.cfg.phi)
        self._isum[s] = 0.0
        self._icount[s] = 0

    def _absorb_init(self, last: int) -> None:
        """Take the buffered initialization columns up to index last."""
        c = self.cfg
        self._prev = self._hist[:, last % self._ring].tolist()
        if last - self._first_j + 1 >= c.init_period:
            cols = np.arange(self._first_j, self._first_j + c.init_period) % self._ring
            self._lam = initialize_offsets(self._hist[:, cols], c.init_period).tolist()
            self._delta = [c.phi] * NUM_SENSORS
            self._initialized = True

    def step(self, j: int, values) -> GestureFrame | None:
        """Consume one conditioned row (index j, one value per sensor)."""
        self._advance(j, 1)
        pos = j % self._ring
        if not self._initialized:
            self._hist[:, pos] = [float(values[s]) for s in range(NUM_SENSORS)]
            self._absorb_init(j)
            return None
        hist, sample = self._hist_rows, self._sample
        for s in range(NUM_SENSORS):
            x = float(values[s])
            hist[s][pos] = x
            sample(s, j, x)
        return self._merge_and_emit(j)

    def _sample(self, s: int, j: int, x: float) -> bool:
        """Run sensor s's state machine on sample x at index j.

        Returns True when the sample changed the sensor's offset or
        threshold, which push_block's event masks are built from.
        """
        c = self.cfg
        p1 = c.update_period
        lam = self._lam[s]
        cur = x - lam
        prev = self._prev[s] - lam
        self._prev[s] = x
        delta = self._delta[s]
        frame_open = self._upcross[s] != 0
        changed = False

        if not frame_open:
            self._isum[s] += x
            self._icount[s] += 1

        if self._recovering[s]:
            if not frame_open and j % p1 == 0:
                self._periodic_update(s, j)
                self._recovering[s] = False
                changed = True
        elif cur > delta and prev < delta:
            self._upcross[s] = j
        elif cur > delta:
            self._cnt[s] += 1
            if self._cnt[s] > c.safety_period:
                # Malfunction guard: drop the pending detection and hold
                # off until offset/threshold re-stabilize.
                self._update_threshold(s, j, 0.0)
                self._cnt[s] = 0
                self._end[s] = 0
                self._upcross[s] = 0
                self._recovering[s] = True
                self.diagnostics["safety_recomputes"] += 1
                changed = True
        elif cur < delta and prev > delta:
            if self._upcross[s] == 0:
                self.diagnostics["orphan_down_crossings"] += 1
                log.debug("sensor %d: downward crossing without start at %d", s + 1, j)
            else:
                if j - self._upcross[s] > c.max_crossing_window:
                    self.diagnostics["long_dwells"] += 1
                    log.debug(
                        "sensor %d: dwell %d above threshold exceeds %d",
                        s + 1,
                        j - self._upcross[s],
                        c.max_crossing_window,
                    )
                self._end[s] = j + c.post_pad
                self._cnt[s] = 0
        elif not frame_open and j % p1 == 0:
            self._periodic_update(s, j)
            changed = True

        if self._end[s] == j:
            # Commit only after warm-up; always clear so a detection
            # closing during warm-up cannot wedge the sensor open.
            if j > c.warmup_period:
                start = self._upcross[s] - c.pre_pad
                if start < self._first_j:
                    self.diagnostics["clamped_starts"] += 1
                    log.debug("sensor %d: start underflow at %d, clamped", s + 1, self._upcross[s])
                    start = self._first_j
                # Commits come in index order, so j is the span's largest end.
                span = self._span
                self._span = (start if span is None else min(span[0], start), j)
            self._end[s] = 0
            self._upcross[s] = 0
        return changed

    def _quiet(self, s: int, xs: list[float], lo: int, hi: int) -> None:
        """Apply samples xs[lo:hi] of sensor s, none of which is an event.

        Such a sample only moves prev and, with no frame open, the offset sum,
        which is added up one sample at a time as step() would.
        """
        self._prev[s] = xs[hi - 1]
        if self._upcross[s] == 0:
            total = self._isum[s]
            for x in xs[lo:hi]:
                total += x
            self._isum[s] = total
            self._icount[s] += hi - lo

    def push_block(self, first_index: int, values: np.ndarray) -> list[GestureFrame]:
        """Consume conditioned rows first_index, first_index + 1, ... as columns of (4, k).

        Returns the frames step() would have returned on those rows, in order.
        """
        x = np.asarray(values, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != NUM_SENSORS:
            raise InvalidParameterError(f"block must have shape (4, k), got {x.shape}")
        k = x.shape[1]
        if k == 0:
            return []
        self._advance(first_index, k)
        out: list[GestureFrame] = []
        for lo in range(0, k, self._cap):
            self._push_segment(first_index + lo, x[:, lo : lo + self._cap], out)
        return out

    def _push_segment(self, a: int, x: np.ndarray, out: list[GestureFrame]) -> None:
        """push_block over at most cap columns x, the first at index a.

        Between events a sample only moves prev and the offset sum, so
        _sample runs only at event indices, in index order across sensors:
        above threshold, a down crossing, an update index or a pending end.
        The masks are rebuilt after a sample that changes an offset or a
        threshold, or sets an end inside the current mask. The merge can only
        succeed after a sensor event (a commit or a safety clear), so it too
        runs at event indices only.
        """
        c = self.cfg
        n = x.shape[1]
        b = a + n
        r0 = a % self._ring
        if r0 + n <= self._ring:
            self._hist[:, r0 : r0 + n] = x
        else:
            self._hist[:, np.arange(a, b) % self._ring] = x
        # xx[:, i] is the sample at index a - 1 + i.
        xx = np.concatenate((np.asarray(self._prev)[:, None], x), axis=1)
        xs = x.tolist()
        pos = a
        if not self._initialized:
            m = min(n, c.init_period - (a - self._first_j))
            self._absorb_init(a + m - 1)
            pos += m
        done = [pos] * NUM_SENSORS  # per sensor, first index not yet applied
        ends = self._end
        p1 = c.update_period
        while pos < b:
            q = pos + (-pos) % p1  # next update index
            hi = min(q, b - 1)
            restart = hi + 1
            # Column 0 is the sample before pos: the prev of the first one.
            cur = xx[:, pos - a : hi - a + 2] - np.asarray(self._lam)[:, None]
            delta = np.asarray(self._delta)[:, None]
            above = cur > delta
            if above.any():
                ev = above[:, 1:] | ((cur[:, 1:] < delta) & above[:, :-1])
            elif q == hi or any(pos <= end <= hi for end in ends):
                ev = np.zeros((NUM_SENSORS, hi - pos + 1), dtype=bool)
            else:
                pos = restart
                continue
            if q == hi:
                ev[:, -1] = True
            for s, end in enumerate(ends):
                if pos <= end <= hi:
                    ev[s, end - pos] = True
            cols = np.flatnonzero(ev.any(axis=0))
            for col, flags in zip(cols.tolist(), ev[:, cols].T.tolist()):
                j = pos + col
                changed = False
                for s in range(NUM_SENSORS):
                    if flags[s]:
                        if done[s] < j:
                            self._quiet(s, xs[s], done[s] - a, j - a)
                        end = ends[s]
                        changed |= self._sample(s, j, xs[s][j - a])
                        changed |= ends[s] != end and j < ends[s] <= hi
                        done[s] = j + 1
                frame = self._merge_and_emit(j)
                if frame is not None:
                    out.append(frame)
                if changed:
                    restart = j + 1
                    break
            pos = restart
        for s in range(NUM_SENSORS):
            if done[s] < b:
                self._quiet(s, xs[s], done[s] - a, n)

    def _merge_and_emit(self, j: int) -> GestureFrame | None:
        # Hold the merge while any sensor still has an open detection, so one
        # gesture yields one frame even though the channels close in sequence.
        if self._span is None or any(self._upcross):
            return None
        start, end = self._span
        frame = GestureFrame(
            k=self._k + 1, start=start, end=end, channels=self._slice(start, end, j)
        )
        self._k += 1
        self._span = None
        return frame

    def _slice(self, start: int, end: int, j: int) -> np.ndarray:
        first_valid = self._first_valid(j)
        if start < first_valid:
            raise CapacityError(
                f"frame [{start}, {end}] no longer buffered (history starts at {first_valid})"
            )
        cols = np.arange(start, end + 1) % self._ring
        return self._hist[:, cols] - np.asarray(self._lam)[:, None]


def detect_frames(
    processed: ProcessedStream, cfg: DetectorConfig | None = None
) -> list[GestureFrame]:
    """Run the streaming detector over a full conditioned stream, as one block."""
    det = AdaptiveThresholdDetector(cfg)
    return det.push_block(processed.start_index, processed.values)


def run_detector(
    stream: RawStream,
    dsp_cfg: DspConfig | None = None,
    det_cfg: DetectorConfig | None = None,
) -> list[GestureFrame]:
    """Condition a raw stream and detect frames in one pass."""
    processed = weighted_smoothed_difference(stream, dsp_cfg or DspConfig())
    return detect_frames(processed, det_cfg)
