"""Seeded synthetic generator for 4-plate capacitive gesture recordings.

The model: each plate sits in a 2x2 grid; a virtual hand follows a smooth
3D path, and each plate sees a Coulomb-law pulse gain/d^2 tapered to zero
beyond the sensing range. Idle background is Gaussian noise around a
per-plate baseline plus a sawtooth charge/discharge cycle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .signals import NUM_SENSORS, GestureEvent, LabeledRecording, RawStream, validate_sampling_rate

DEFAULT_SAMPLING_RATE = 76.5  # Hz; 53 Hz is equally supported

# Sweep gestures travel between anchor points this far from the grid centre.
ANCHOR_RADIUS = 0.35  # m
SWEEP_HEIGHT_RANGE = (0.030, 0.060)  # m above the plates
VERTICAL_NEAR_RANGE = (0.028, 0.042)  # closest approach for UP/DOWN
VERTICAL_FAR = 0.28  # out of sensing range
VERTICAL_FAST_FRACTION = (0.15, 0.22)  # share of the move spent on the fast leg
DURATION_RANGE_S = (0.9, 1.6)
LABEL_THRESHOLD = 1.0  # V floor; actual threshold is max(this, idle_sigma)


@dataclass(frozen=True)
class PhysicsParams:
    """Calibration knobs for the synthetic signal model.

    The charge/permittivity values are effective scales chosen to land the
    pulses in the observed voltage range, not physical SI measurements.
    capacity_omega is the accumulated-charge level (V) that trips a
    discharge; 0 disables the discharge cycle. idle_sigma 0 disables noise.
    """

    dielectric_constant: float = 1.0
    plate_area: float = 0.0036  # m^2 (6 cm plates)
    coulomb_constant: float = 8.9875e9
    charge_q1: float = 1.58e-5
    charge_q2: float = 1.58e-5
    distance_min: float = 0.001  # m
    distance_max: float = 0.15  # m
    capacity_omega: float = 38.0  # V
    discharge_period: int = 1499  # samples
    idle_sigma: float = 2.03  # V
    baselines: tuple[float, float, float, float] = (35.0, 50.0, 65.0, 80.0)

    def __post_init__(self) -> None:
        positive = {
            "dielectric_constant": self.dielectric_constant,
            "plate_area": self.plate_area,
            "coulomb_constant": self.coulomb_constant,
            "charge_q1": self.charge_q1,
            "charge_q2": self.charge_q2,
            "distance_min": self.distance_min,
            "distance_max": self.distance_max,
            "discharge_period": self.discharge_period,
        }
        for name, value in positive.items():
            if value <= 0:
                raise InvalidParameterError(f"{name} must be > 0, got {value}")
        if self.distance_min >= self.distance_max:
            raise InvalidParameterError("distance_min must be below distance_max")
        if self.capacity_omega < 0 or self.idle_sigma < 0:
            raise InvalidParameterError("capacity_omega and idle_sigma must be >= 0")
        if len(self.baselines) != NUM_SENSORS:
            raise InvalidParameterError("baselines must list one value per sensor")

    @property
    def coupling_gain(self) -> float:
        """Effective numerator of the Coulomb amplitude law (V * m^2)."""
        return (
            self.dielectric_constant
            * self.coulomb_constant
            * self.charge_q1
            * self.charge_q2
        )

    @property
    def grid_half_spacing(self) -> float:
        """Half the plate pitch: plate half-width plus a 2 cm gap."""
        return math.sqrt(self.plate_area) / 2.0 + 0.02

    def sensor_positions(self) -> np.ndarray:
        """(4, 2) xy positions; s1 top-left, s2 top-right, s3 bottom-left, s4 bottom-right."""
        g = self.grid_half_spacing
        return np.array([(-g, g), (g, g), (-g, -g), (g, -g)], dtype=np.float64)


@dataclass(frozen=True)
class GestureTrajectory:
    """Realized pulse plan for one gesture.

    amplitude holds the noiseless per-sensor pulse (4, duration) in volts;
    peak_offsets is the per-sensor argmax in samples from gesture onset.
    """

    class_id: int
    duration: int
    peak_offsets: np.ndarray
    amplitude: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.class_id <= 10:
            raise InvalidParameterError(f"class_id must be in [1, 10], got {self.class_id}")
        if self.duration <= 0:
            raise InvalidParameterError("duration must be > 0")


def pulse_amplitude(distance: np.ndarray | float, params: PhysicsParams) -> np.ndarray:
    """Coulomb-law pulse strength at a hand-to-plate distance, range-tapered.

    Strictly decreasing in distance, so halving the closest approach always
    raises the peak.
    """
    d = np.maximum(np.asarray(distance, dtype=np.float64), params.distance_min)
    cut = 0.8 * params.distance_max
    width = 0.1 * params.distance_max
    taper = 1.0 / (1.0 + np.exp((d - cut) / width))
    return params.coupling_gain / (d * d) * taper


# Entry/exit sides for the in-plane sweep classes (Table of gesture types):
# W=left, E=right, N=up-side, S=down-side of the grid.
_SWEEP_SIDES: dict[int, tuple[str, str]] = {
    1: ("W", "E"),   # Left to Right
    2: ("E", "W"),   # Right to Left
    5: ("S", "W"),   # Down to Left
    6: ("S", "E"),   # Down to Right
    7: ("W", "S"),   # Left to Down
    8: ("E", "S"),   # Right to Down
    9: ("N", "W"),   # Up to Left
    10: ("N", "E"),  # Up to Right
}

_SIDE_UNIT = {
    "W": np.array([-1.0, 0.0]),
    "E": np.array([1.0, 0.0]),
    "N": np.array([0.0, 1.0]),
    "S": np.array([0.0, -1.0]),
}

# Sensors expected to peak first/last per class (directional signature).
LEAD_TRAIL_SENSORS: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {
    1: ((1, 3), (2, 4)),
    2: ((2, 4), (1, 3)),
    5: ((4,), (1,)),
    6: ((3,), (2,)),
    7: ((1,), (4,)),
    8: ((2,), (3,)),
    9: ((2,), (3,)),
    10: ((1,), (4,)),
}

VERTICAL_CLASSES = (3, 4)  # 3 = UP (receding hand), 4 = DOWN (approaching hand)


def _cosine_ease(t: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 - np.cos(np.pi * np.clip(t, 0.0, 1.0)))


def plan_trajectory(
    class_id: int,
    duration: int,
    rng: np.random.Generator,
    params: PhysicsParams,
    *,
    height: float | None = None,
) -> GestureTrajectory:
    """Sample a hand path for one gesture class and derive its pulse matrix.

    height overrides the sampled pass height (sweeps) or closest approach
    (vertical moves); used for calibration experiments.
    """
    if not 1 <= class_id <= 10:
        raise InvalidParameterError(f"class_id must be in [1, 10], got {class_id}")
    if duration <= 0:
        raise InvalidParameterError("duration must be > 0")

    t = np.linspace(0.0, 1.0, duration)
    if class_id in VERTICAL_CLASSES:
        xy = rng.uniform(-0.01, 0.01, size=2)
        x = np.full(duration, xy[0])
        y = np.full(duration, xy[1])
        z_near = height if height is not None else rng.uniform(*VERTICAL_NEAR_RANGE)
        a = rng.uniform(*VERTICAL_FAST_FRACTION)
        # The hand approaches until the turning point, then recedes: UP
        # arrives fast and recedes slowly, DOWN the reverse.
        turn = a if class_id == 3 else 1.0 - a
        approach = t < turn
        z = np.empty(duration)
        z[approach] = VERTICAL_FAR + (z_near - VERTICAL_FAR) * _cosine_ease(t[approach] / turn)
        z[~approach] = z_near + (VERTICAL_FAR - z_near) * _cosine_ease(
            (t[~approach] - turn) / (1.0 - turn)
        )
    else:
        entry, exit_ = _SWEEP_SIDES[class_id]
        p0 = _SIDE_UNIT[entry] * ANCHOR_RADIUS + rng.uniform(-0.03, 0.03, size=2)
        p1 = _SIDE_UNIT[exit_] * ANCHOR_RADIUS + rng.uniform(-0.03, 0.03, size=2)
        ctrl = -(p0 + p1) / 2.0  # quadratic Bezier pinned to pass the grid centre
        u = t[:, None]
        path = (1 - u) ** 2 * p0 + 2 * u * (1 - u) * ctrl + u**2 * p1
        x, y = path[:, 0], path[:, 1]
        h = height if height is not None else rng.uniform(*SWEEP_HEIGHT_RANGE)
        z = np.full(duration, h)

    pos = params.sensor_positions()
    dx = x[None, :] - pos[:, 0:1]
    dy = y[None, :] - pos[:, 1:2]
    dist = np.sqrt(dx * dx + dy * dy + z[None, :] ** 2)
    amplitude = pulse_amplitude(dist, params)
    return GestureTrajectory(
        class_id=class_id,
        duration=duration,
        peak_offsets=np.argmax(amplitude, axis=1),
        amplitude=amplitude,
    )


def _idle_matrix(
    rng: np.random.Generator, length: int, params: PhysicsParams
) -> np.ndarray:
    """Baseline + sawtooth discharge cycle + Gaussian noise, shape (4, length)."""
    phases = rng.integers(0, params.discharge_period, size=NUM_SENSORS)
    noise = rng.normal(0.0, params.idle_sigma, size=(NUM_SENSORS, length))
    idx = np.arange(length)
    p = params.discharge_period
    saw = ((idx[None, :] + phases[:, None]) % p + 1) / p * params.capacity_omega
    base = np.asarray(params.baselines, dtype=np.float64)[:, None]
    return base + saw + noise


def generate_idle(
    seed: int,
    length: int,
    params: PhysicsParams | None = None,
    sampling_rate: float = DEFAULT_SAMPLING_RATE,
) -> RawStream:
    """Gesture-free background signal; identical seeds give identical streams."""
    if length <= 0:
        raise InvalidParameterError(f"length must be > 0, got {length}")
    params = params or PhysicsParams()
    rng = np.random.default_rng(seed)
    return RawStream(sampling_rate=sampling_rate, values=_idle_matrix(rng, length, params))


def _lay_gestures(
    idle_seed: np.random.SeedSequence,
    length: int,
    gestures: list[tuple[GestureTrajectory, int]],
    params: PhysicsParams,
    sampling_rate: float,
) -> LabeledRecording:
    """Idle background with each (trajectory, onset) pulse added and labeled.

    An event spans the first to the last sample where any channel's
    noiseless pulse reaches the labeling threshold.
    """
    values = _idle_matrix(np.random.default_rng(idle_seed), length, params)
    threshold = max(LABEL_THRESHOLD, params.idle_sigma)
    events = []
    for traj, onset in gestures:
        values[:, onset : onset + traj.duration] += traj.amplitude
        active = np.flatnonzero(traj.amplitude.max(axis=0) >= threshold)
        if active.size == 0:
            raise InvalidParameterError(
                "gesture pulse never reaches the labeling threshold; check amplitude calibration"
            )
        events.append(GestureEvent(traj.class_id, onset + int(active[0]), onset + int(active[-1])))
    return LabeledRecording(
        stream=RawStream(sampling_rate=sampling_rate, values=values), events=events
    )


def generate_gesture(
    seed: int,
    class_id: int,
    params: PhysicsParams | None = None,
    trajectory: GestureTrajectory | None = None,
    sampling_rate: float = DEFAULT_SAMPLING_RATE,
    pre_roll_seconds: float = 22.0,
    tail_seconds: float = 4.0,
) -> LabeledRecording:
    """One recording holding a single gesture over idle background.

    pre_roll_seconds leaves room for detector warm-up when the recording is
    replayed; the event onset is jittered inside a 1 s window after it.
    """
    if not 1 <= class_id <= 10:
        raise InvalidParameterError(f"class_id must be in [1, 10], got {class_id}")
    if trajectory is not None and trajectory.class_id != class_id:
        raise InvalidParameterError("trajectory class does not match class_id")
    validate_sampling_rate(sampling_rate)
    return _generate_gesture_from_seq(
        np.random.SeedSequence(seed),
        class_id,
        params or PhysicsParams(),
        sampling_rate,
        trajectory=trajectory,
        pre_roll_seconds=pre_roll_seconds,
        tail_seconds=tail_seconds,
    )


def generate_dataset(
    seed: int,
    n_per_class: int,
    params: PhysicsParams | None = None,
    sampling_rate: float = DEFAULT_SAMPLING_RATE,
    classes: tuple[int, ...] = tuple(range(1, 11)),
) -> list[LabeledRecording]:
    """Balanced single-gesture recordings, n_per_class per class, class-major order."""
    validate_sampling_rate(sampling_rate)
    if n_per_class <= 0:
        raise InvalidParameterError(f"n_per_class must be > 0, got {n_per_class}")
    if not classes:
        raise InvalidParameterError("classes must name at least one gesture class")
    params = params or PhysicsParams()
    children = np.random.SeedSequence(seed).spawn(len(classes) * n_per_class)
    out: list[LabeledRecording] = []
    for ci, class_id in enumerate(classes):
        for i in range(n_per_class):
            child = children[ci * n_per_class + i]
            out.append(_generate_gesture_from_seq(child, class_id, params, sampling_rate))
    return out


def _generate_gesture_from_seq(
    seq: np.random.SeedSequence,
    class_id: int,
    params: PhysicsParams,
    sampling_rate: float,
    trajectory: GestureTrajectory | None = None,
    pre_roll_seconds: float = 22.0,
    tail_seconds: float = 4.0,
) -> LabeledRecording:
    """generate_gesture body driven by a SeedSequence, which generate_dataset spawns."""
    idle_seed, traj_seed, place_seed = seq.spawn(3)
    if trajectory is None:
        traj_rng = np.random.default_rng(traj_seed)
        duration = int(round(traj_rng.uniform(*DURATION_RANGE_S) * sampling_rate))
        trajectory = plan_trajectory(class_id, duration, traj_rng, params)

    place_rng = np.random.default_rng(place_seed)
    onset = int(round(pre_roll_seconds * sampling_rate)) + int(
        place_rng.uniform(0.0, 1.0) * sampling_rate
    )
    length = onset + trajectory.duration + int(round(tail_seconds * sampling_rate))
    return _lay_gestures(idle_seed, length, [(trajectory, onset)], params, sampling_rate)


def generate_session(
    seed: int,
    n_per_class: int,
    params: PhysicsParams | None = None,
    sampling_rate: float = 53.0,
    gap_seconds: tuple[float, float] = (4.0, 8.0),
    warmup_seconds: float = 22.0,
    classes: tuple[int, ...] = tuple(range(1, 11)),
) -> LabeledRecording:
    """One long recording with n_per_class events of every class, shuffled.

    Gestures are separated by idle gaps drawn from gap_seconds, long enough
    for the detector to close and emit each frame before the next event.
    """
    validate_sampling_rate(sampling_rate)
    if n_per_class <= 0:
        raise InvalidParameterError(f"n_per_class must be > 0, got {n_per_class}")
    if not classes:
        raise InvalidParameterError("classes must name at least one gesture class")
    params = params or PhysicsParams()
    seq = np.random.SeedSequence(seed)
    order_seed, idle_seed, *event_seeds = seq.spawn(2 + len(classes) * n_per_class)

    order_rng = np.random.default_rng(order_seed)
    class_order = np.repeat(np.asarray(classes, dtype=np.int64), n_per_class)
    order_rng.shuffle(class_order)

    gestures: list[tuple[GestureTrajectory, int]] = []
    cursor = int(round(warmup_seconds * sampling_rate))
    for class_id, ev_seed in zip(class_order, event_seeds):
        rng = np.random.default_rng(ev_seed)
        duration = int(round(rng.uniform(*DURATION_RANGE_S) * sampling_rate))
        gestures.append((plan_trajectory(int(class_id), duration, rng, params), cursor))
        gap = int(round(rng.uniform(*gap_seconds) * sampling_rate))
        cursor += duration + gap

    length = cursor + int(round(4.0 * sampling_rate))
    return _lay_gestures(idle_seed, length, gestures, params, sampling_rate)
