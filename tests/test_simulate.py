from __future__ import annotations

import hashlib

import numpy as np
import pytest

from capstream.errors import InvalidParameterError
from capstream.signals import LabeledRecording
from capstream.simulate import (
    LEAD_TRAIL_SENSORS,
    PhysicsParams,
    generate_dataset,
    generate_gesture,
    generate_idle,
    generate_session,
    plan_trajectory,
    pulse_amplitude,
)


def _discharge_drops(channel: np.ndarray, omega: float) -> np.ndarray:
    return np.flatnonzero(np.diff(channel) < -omega / 2)


class TestIdle:
    def test_deterministic_and_seed_sensitive(self, params):
        a = generate_idle(1, 2000, params)
        b = generate_idle(1, 2000, params)
        c = generate_idle(2, 2000, params)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_noise_sigma_of_non_discharge_segments(self, params):
        # Oracle: split at discharge drops, remove the linear charge ramp per
        # segment, then measure the residual spread.
        stream = generate_idle(1, 10000, params)
        for s in range(4):
            ch = stream.values[s]
            drops = _discharge_drops(ch, params.capacity_omega)
            residuals = []
            for seg in np.split(ch, drops + 1):
                if len(seg) < 100:
                    continue
                t = np.arange(len(seg))
                coeffs = np.polyfit(t, seg, 1)
                residuals.append(seg - np.polyval(coeffs, t))
            pooled = np.concatenate(residuals)
            assert pooled.size >= 5000
            assert 1.8 <= pooled.std() <= 2.3

    def test_discharge_periodicity(self, params):
        stream = generate_idle(3, 8000, params)
        for s in range(4):
            drops = _discharge_drops(stream.values[s], params.capacity_omega)
            intervals = np.diff(drops)
            assert intervals.size >= 3
            assert np.all(np.abs(intervals - params.discharge_period) <= 1)

    def test_pre_discharge_drift_spread(self, params):
        # Raw per-segment sigma (ramp included) sits near the observed 11 V.
        stream = generate_idle(4, 9000, params)
        ch = stream.values[0]
        drops = _discharge_drops(ch, params.capacity_omega)
        segs = [s for s in np.split(ch, drops + 1) if len(s) > 1000]
        sigma = np.mean([seg.std() for seg in segs])
        assert 11 - 4.73 <= sigma <= 11 + 4.73

    def test_zero_noise_no_discharge_is_flat(self):
        params = PhysicsParams(idle_sigma=0.0, capacity_omega=0.0)
        stream = generate_idle(9, 500, params)
        for s in range(4):
            np.testing.assert_allclose(stream.values[s], params.baselines[s], atol=1e-12)

    def test_distinct_baselines_per_sensor(self, params):
        stream = generate_idle(5, 4000, params)
        means = stream.values.mean(axis=1)
        assert len(set(np.round(means, 0))) == 4

    def test_invalid_length_rejected(self, params):
        with pytest.raises(InvalidParameterError):
            generate_idle(1, 0, params)

    def test_invalid_period_rejected(self):
        with pytest.raises(InvalidParameterError):
            PhysicsParams(discharge_period=0)


class TestGesture:
    def test_unknown_class_rejected(self, params):
        with pytest.raises(InvalidParameterError):
            generate_gesture(1, 11, params)
        with pytest.raises(InvalidParameterError):
            generate_gesture(1, 0, params)

    @pytest.mark.parametrize("class_id", sorted(LEAD_TRAIL_SENSORS))
    def test_directional_peak_ordering(self, class_id, params):
        # Oracle: argmax of each raw channel inside the labeled span.
        lead, trail = LEAD_TRAIL_SENSORS[class_id]
        for seed in range(25):
            rec = generate_gesture(1000 * class_id + seed, class_id, params, sampling_rate=53.0)
            ev = rec.events[0]
            window = rec.stream.values[:, ev.start : ev.end + 1]
            peaks = window.argmax(axis=1)
            lead_t = np.mean([peaks[s - 1] for s in lead])
            trail_t = np.mean([peaks[s - 1] for s in trail])
            assert lead_t < trail_t, f"class {class_id} seed {seed}: {peaks}"

    def test_vertical_classes_peak_together(self, params):
        for class_id in (3, 4):
            for seed in range(25):
                rec = generate_gesture(77 * class_id + seed, class_id, params, sampling_rate=53.0)
                ev = rec.events[0]
                window = rec.stream.values[:, ev.start : ev.end + 1]
                peaks = window.argmax(axis=1)
                span = ev.end - ev.start + 1
                assert peaks.max() - peaks.min() <= 0.15 * span

    def test_up_decays_down_rises(self, params):
        # Oracle: envelope fit via the mean peak position; UP peaks early
        # (receding hand), DOWN peaks late (approaching hand).
        for seed in range(15):
            up = generate_gesture(300 + seed, 3, params, sampling_rate=53.0)
            ev = up.events[0]
            peaks = up.stream.values[:, ev.start : ev.end + 1].argmax(axis=1)
            assert peaks.mean() < 0.45 * (ev.end - ev.start + 1)
            down = generate_gesture(400 + seed, 4, params, sampling_rate=53.0)
            ev = down.events[0]
            peaks = down.stream.values[:, ev.start : ev.end + 1].argmax(axis=1)
            assert peaks.mean() > 0.55 * (ev.end - ev.start + 1)

    def test_half_distance_doubles_then_some(self, params):
        assert pulse_amplitude(0.05, params) > pulse_amplitude(0.10, params)
        # strict monotonicity of the law over the sensing range
        d = np.linspace(params.distance_min, 0.3, 400)
        amp = pulse_amplitude(d, params)
        assert np.all(np.diff(amp) < 0)

    def test_half_closest_approach_raises_peak(self, params):
        rng = np.random.default_rng(0)
        low = plan_trajectory(1, 80, rng, params, height=0.05)
        rng = np.random.default_rng(0)
        high = plan_trajectory(1, 80, rng, params, height=0.025)
        assert high.amplitude.max() > low.amplitude.max()

    def test_ground_truth_contains_all_strong_signal(self, params):
        # The labeled span starts where the noiseless pulse reaches the
        # labeling floor, so everything above 3 sigma must land inside it.
        floor = max(1.0, params.idle_sigma)
        for class_id in range(1, 11):
            for seed in range(10):
                rng = np.random.default_rng(10 * class_id + seed)
                traj = plan_trajectory(class_id, 80, rng, params)
                envelope = traj.amplitude.max(axis=0)
                active = np.flatnonzero(envelope >= floor)
                strong = np.flatnonzero(envelope > 3 * params.idle_sigma)
                assert strong.size > 0
                assert active[0] <= strong[0]
                assert strong[-1] <= active[-1]

    def test_event_span_matches_label_floor(self, params):
        rec = generate_gesture(51, 1, params, sampling_rate=53.0)
        ev = rec.events[0]
        assert 0 < ev.start < ev.end < len(rec.stream)

    def test_trajectory_class_must_match(self, params):
        traj = plan_trajectory(2, 60, np.random.default_rng(0), params)
        with pytest.raises(InvalidParameterError):
            generate_gesture(1, 1, params, trajectory=traj)


class TestDataset:
    def test_balanced_counts(self, params):
        recs = generate_dataset(5, 2, params, sampling_rate=53.0)
        assert len(recs) == 20
        counts = {}
        for rec in recs:
            counts[rec.events[0].class_id] = counts.get(rec.events[0].class_id, 0) + 1
        assert counts == {c: 2 for c in range(1, 11)}

    def test_single_per_class(self, params):
        assert len(generate_dataset(5, 1, params, sampling_rate=53.0)) == 10

    def test_deterministic(self, params):
        a = generate_dataset(8, 1, params, sampling_rate=53.0)
        b = generate_dataset(8, 1, params, sampling_rate=53.0)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.stream.values, rb.stream.values)
            assert ra.events == rb.events

    def test_invalid_count(self, params):
        with pytest.raises(InvalidParameterError):
            generate_dataset(1, 0, params)


class TestSession:
    def test_events_sorted_and_labeled(self, session_10):
        assert len(session_10.events) == 10
        assert sorted(ev.class_id for ev in session_10.events) == list(range(1, 11))
        starts = [ev.start for ev in session_10.events]
        assert starts == sorted(starts)

    def test_deterministic(self, params):
        a = generate_session(3, 1, params, sampling_rate=53.0)
        b = generate_session(3, 1, params, sampling_rate=53.0)
        np.testing.assert_array_equal(a.stream.values, b.stream.values)
        assert a.events == b.events


@pytest.mark.parametrize("rate", [0.0, -53.0, float("nan"), float("inf")])
@pytest.mark.parametrize(
    "generate",
    [
        lambda params, rate: generate_gesture(1, 1, params, sampling_rate=rate),
        lambda params, rate: generate_dataset(1, 1, params, sampling_rate=rate),
        lambda params, rate: generate_session(1, 1, params, sampling_rate=rate),
    ],
    ids=["gesture", "dataset", "session"],
)
def test_generators_reject_a_bad_sampling_rate(params, generate, rate):
    with pytest.raises(InvalidParameterError, match="sampling_rate"):
        generate(params, rate)


def _sha256(recordings) -> str:
    """Digest of each recording's raw values and its (class_id, start, end) events."""
    digest = hashlib.sha256()
    for rec in recordings:
        digest.update(rec.stream.values.tobytes())
        spans = [(ev.class_id, ev.start, ev.end) for ev in rec.events]
        digest.update(np.asarray(spans, dtype=np.int64).tobytes())
    return digest.hexdigest()


class TestRecordedBytes:
    """Seeded generator outputs, pinned by SHA-256 digests recorded once.

    A change that moves a random draw or reorders an addition changes a
    digest, so the simulator's bytes are held across commits.
    """

    SHA256 = {
        "session": "ab5611b0321b0a1ebd7e5257d41ea2432faadd8f9c59832a7703e2d5fe6c4059",
        "dataset": "b9dc93ba26b917263eb2af3e6e77cbc233e623b8f6ceba5b09bf209fac1179cc",
        "idle": "c5c72d3a9b5b3c80e91de3cc461f629b46e0c153aa52989cc3050bca6ac142f9",
    }

    @pytest.mark.parametrize(
        "name, generate",
        [
            ("session", lambda: [generate_session(2024, 30, sampling_rate=53.0)]),
            # Two per class: covers the UP and DOWN trajectories too.
            ("dataset", lambda: generate_dataset(42, 2, sampling_rate=53.0)),
            ("idle", lambda: [LabeledRecording(generate_idle(5, 3000, sampling_rate=53.0))]),
        ],
        ids=["session", "dataset", "idle"],
    )
    def test_bytes_equal_recorded(self, name, generate):
        assert _sha256(generate()) == self.SHA256[name]
