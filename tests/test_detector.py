from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capstream.dataset import truth_frames
from capstream.detector import (
    AdaptiveThresholdDetector,
    DetectorConfig,
    MAX_PERIOD,
    GestureFrame,
    detect_frames,
    initialize_offsets,
    run_detector,
    update_threshold,
)
from capstream.dsp import weighted_smoothed_difference
from capstream.errors import InsufficientDataError, InvalidParameterError, OrderingError
from capstream.signals import RawStream
from capstream.simulate import generate_dataset, generate_idle, generate_session
from reference_detector import reference_frames


def _drive(det: AdaptiveThresholdDetector, trace, start_index: int = 0):
    """Feed a (4, n) array or per-sample scalar list through the detector."""
    frames = []
    arr = np.asarray(trace, dtype=float)
    if arr.ndim == 1:
        arr = np.tile(arr, (4, 1)) * np.array([[1.0], [0.0], [0.0], [0.0]])
    for m in range(arr.shape[1]):
        frame = det.step(start_index + m, arr[:, m])
        if frame is not None:
            frames.append(frame)
    return frames


def _pulse_trace(length=1200, lo=500, hi=560, level=100.0):
    """Sensor 1 carries a clean rectangular pulse; others stay silent."""
    trace = np.zeros((4, length))
    trace[0, lo:hi] = level
    return trace


class TestInitializeOffsets:
    def test_zero_prefix(self):
        offsets = initialize_offsets(np.zeros((4, 100)), init_period=100)
        np.testing.assert_array_equal(offsets, np.zeros(4))

    def test_mean_prefix(self):
        prefix = np.full((4, 50), 3.5)
        offsets = initialize_offsets(prefix, init_period=50)
        assert offsets.shape == (4,)
        np.testing.assert_allclose(offsets, 3.5)

    def test_idle_offset_matches_direct_mean(self, params, dsp_cfg):
        idle = generate_idle(6, 1200, params, 53.0)
        proc = weighted_smoothed_difference(idle, dsp_cfg)
        offsets = initialize_offsets(proc, init_period=530)
        np.testing.assert_allclose(offsets, proc.values[:, :530].mean(axis=1), rtol=0, atol=1e-12)

    def test_sums_left_to_right(self):
        # A pairwise sum gives 1.0 here; one sample at a time, the 1s vanish.
        prefix = np.tile([1e16, 1.0, 1.0, -1e16], (4, 1))
        np.testing.assert_array_equal(initialize_offsets(prefix, init_period=4), np.zeros(4))

    def test_insufficient_prefix(self):
        with pytest.raises(InsufficientDataError):
            initialize_offsets(np.zeros((4, 10)), init_period=100)


class TestUpdateThreshold:
    def test_zero_window(self):
        assert update_threshold(np.zeros(318), offset=0.0, phi=20.0, update_period=318) == 20.0

    def test_mean_five_window(self):
        window = np.full(318, 5.0)
        assert update_threshold(window, offset=0.0, phi=20.0, update_period=318) == pytest.approx(25.0)

    def test_idle_window_stays_near_floor(self, params, dsp_cfg):
        # Frozen seed with non-negative offset-subtracted window means.
        idle = generate_idle(6, 2000, params, 53.0)
        proc = weighted_smoothed_difference(idle, dsp_cfg)
        lam = initialize_offsets(proc, 530)
        for s in range(4):
            delta = update_threshold(proc.values[s, 600:918], lam[s], 20.0, 318)
            assert 20.0 <= delta <= 20.0 + 0.5 * params.idle_sigma

    def test_wrong_window_length(self):
        with pytest.raises(InvalidParameterError):
            update_threshold(np.zeros(100), 0.0, 20.0, 318)


class TestStep:
    def test_single_pulse_frame_arithmetic(self):
        # Up-crossing at 500, down-crossing at 560 with pads 70/70.
        det = AdaptiveThresholdDetector(DetectorConfig(init_period=200))
        frames = _drive(det, _pulse_trace())
        assert [(f.start, f.end) for f in frames] == [(430, 630)]
        assert frames[0].k == 1
        assert frames[0].channels.shape == (4, 201)

    def test_idle_stream_emits_nothing(self, params, dsp_cfg, det_cfg):
        idle = generate_idle(12, int(60 * 53), params, 53.0)
        frames = run_detector(idle, dsp_cfg, det_cfg)
        assert frames == []

    def test_saturation_recomputes_and_stays_silent(self):
        # Dwell above threshold far beyond the safety period: the pending
        # detection is voided, the threshold is recomputed, and nothing is
        # emitted during or after the contact plateau.
        cfg = DetectorConfig(init_period=200)
        det = AdaptiveThresholdDetector(cfg)
        rng = np.random.default_rng(0)
        length = 3000
        trace = np.zeros((4, length))
        trace[0, 500:1500] = 500.0 + rng.normal(0, 2.0, 1000)
        frames = _drive(det, trace)
        assert frames == []
        assert det.diagnostics["safety_recomputes"] >= 1

    def test_saturation_recovers_for_later_gestures(self):
        cfg = DetectorConfig(init_period=200)
        det = AdaptiveThresholdDetector(cfg)
        trace = np.zeros((4, 4500))
        trace[0, 500:1500] = 500.0  # contact plateau
        trace[0, 3000:3060] = 100.0  # clean gesture afterwards
        frames = _drive(det, trace)
        assert [(f.start, f.end) for f in frames] == [(2930, 3130)]

    def test_frames_overlap_exactly_one_event(self, session_10, dsp_cfg, det_cfg):
        frames = run_detector(session_10.stream, dsp_cfg, det_cfg)
        assert len(frames) == len(session_10.events)
        # Oracle: brute-force interval intersection per frame.
        for frame in frames:
            hits = [
                ev
                for ev in session_10.events
                if min(frame.end, ev.end) - max(frame.start, ev.start) >= 0
            ]
            assert len(hits) == 1

    def test_out_of_order_feed_rejected(self):
        det = AdaptiveThresholdDetector(DetectorConfig(init_period=10))
        det.step(0, (0, 0, 0, 0))
        det.step(1, (0, 0, 0, 0))
        with pytest.raises(OrderingError):
            det.step(1, (0, 0, 0, 0))
        with pytest.raises(OrderingError):
            det.step(5, (0, 0, 0, 0))

    def test_replay_determinism(self, session_10, dsp_cfg, det_cfg):
        a = run_detector(session_10.stream, dsp_cfg, det_cfg)
        b = run_detector(session_10.stream, dsp_cfg, det_cfg)
        assert [(f.start, f.end) for f in a] == [(f.start, f.end) for f in b]
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.channels, fb.channels)

    def test_no_update_while_frame_open(self):
        # A slow ramp under the pulse moves offset and threshold at every
        # update index (each 50) except the two, 550 and 600, that fall
        # between the upward crossing at 500 and the commit at 540 + 70.
        cfg = DetectorConfig(init_period=200, update_period=50)
        det = AdaptiveThresholdDetector(cfg)
        trace = _pulse_trace(length=1200, lo=500, hi=540)
        trace[0] += 0.01 * np.arange(1200)
        states, frames = [], []
        for m in range(trace.shape[1]):
            frame = det.step(m, trace[:, m])
            frames += [frame] if frame is not None else []
            states.append((det.offsets()[0], det.thresholds()[0]))
        assert [(f.start, f.end) for f in frames] == [(430, 610)]
        assert len(set(states[500:611])) == 1
        for j in (450, 650):
            assert states[j] != states[j - 1]
        assert det.diagnostics["safety_recomputes"] == 0

    def test_start_underflow_clamped(self):
        cfg = DetectorConfig(init_period=10, warmup_period=15, pre_pad=70, post_pad=5)
        det = AdaptiveThresholdDetector(cfg)
        trace = np.zeros((4, 120))
        trace[0, 30:40] = 100.0
        frames = _drive(det, trace)
        assert det.diagnostics["clamped_starts"] == 1
        assert frames and frames[0].start == 0

    def test_start_clamped_to_first_index_fed(self):
        # A pre_pad longer than the lead-in clamps the start to the first
        # conditioned index, as truth_frames does; index 1 was never fed.
        rec = generate_session(2024, 1, sampling_rate=53.0)
        det_cfg = DetectorConfig(pre_pad=1500)
        frames = run_detector(rec.stream, det_cfg=det_cfg)
        assert frames[0].start == truth_frames(rec, det_cfg=det_cfg)[0].start == 5

    def test_downward_without_upward_is_ignored(self):
        # The signal goes high inside the initialization window and falls
        # later: the downward crossing has no recorded start and must not
        # produce a frame.
        cfg = DetectorConfig(init_period=100, warmup_period=110)
        det = AdaptiveThresholdDetector(cfg)
        trace = np.zeros((4, 800))
        trace[0, 50:150] = 100.0  # straddles the end of initialization
        frames = _drive(det, trace)
        assert frames == []
        assert det.diagnostics["orphan_down_crossings"] == 1

    def test_long_dwell_diagnostic(self):
        det = AdaptiveThresholdDetector(DetectorConfig(init_period=200))
        _drive(det, _pulse_trace(lo=500, hi=560))  # dwell 60 > 50
        assert det.diagnostics["long_dwells"] == 1

    def test_no_frame_without_crossing(self, session_10, dsp_cfg, det_cfg):
        processed = weighted_smoothed_difference(session_10.stream, dsp_cfg)
        det = AdaptiveThresholdDetector(det_cfg)
        base = processed.start_index
        for m in range(processed.values.shape[1]):
            frame = det.step(base + m, processed.values[:, m])
            if frame is None:
                continue
            deltas = det.thresholds()
            inner = frame.channels[
                :, det_cfg.pre_pad : frame.channels.shape[1] - det_cfg.post_pad
            ]
            assert (inner.max(axis=1) > deltas).any()

    def test_detection_closing_during_warmup_is_discarded(self):
        # A crossing pair entirely inside warm-up must neither emit nor
        # wedge the sensor open for later gestures.
        cfg = DetectorConfig(init_period=50, warmup_period=600)
        det = AdaptiveThresholdDetector(cfg)
        trace = np.zeros((4, 2000))
        trace[0, 100:140] = 100.0  # closes at 210, still inside warm-up
        trace[0, 800:840] = 100.0
        frames = _drive(det, trace)
        assert [(f.start, f.end) for f in frames] == [(730, 910)]

    def test_union_merge_covers_both_sensors(self):
        cfg = DetectorConfig(init_period=200)
        det = AdaptiveThresholdDetector(cfg)
        trace = np.zeros((4, 1200))
        trace[0, 500:540] = 100.0
        trace[3, 510:550] = 100.0
        frames = _drive(det, trace)
        assert [(f.start, f.end) for f in frames] == [(430, 620)]


class TestThresholdFloorProperty:
    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_delta_at_least_phi_for_nonnegative_means(self, seed):
        rng = np.random.default_rng(seed)
        window = rng.normal(2.0, 1.0, size=318)
        # The window mean as the rule sums it, so the subtracted mean is >= 0.
        offset = min(update_threshold(window, 0.0, 0.0, 318), 2.0)
        delta = update_threshold(window, offset, 20.0, 318)
        assert delta >= 20.0


class TestExtractFrame:
    """The detector slices its emitted frames out of its own history."""

    def test_offsets_subtracted(self, session_10, dsp_cfg, det_cfg):
        processed = weighted_smoothed_difference(session_10.stream, dsp_cfg)
        det = AdaptiveThresholdDetector(det_cfg)
        base = processed.start_index
        frames = 0
        for m in range(processed.values.shape[1]):
            frame = det.step(base + m, processed.values[:, m])
            if frame is None:
                continue
            lo = frame.start - base
            expected = processed.values[:, lo : lo + len(frame)] - det.offsets()[:, None]
            np.testing.assert_array_equal(frame.channels, expected)
            frames += 1
        assert frames == len(session_10.events)

    def test_emitted_frames_have_zero_centred_margin(self, session_10, dsp_cfg, det_cfg):
        # Oracle: the pre-gesture padding of every emitted frame averages
        # near zero (well inside +-phi).
        frames = run_detector(session_10.stream, dsp_cfg, det_cfg)
        assert frames
        for frame in frames:
            margin = frame.channels[:, : det_cfg.pre_pad]
            assert abs(margin.mean()) <= det_cfg.phi


class TestSingleRule:
    """The detector, truth_frames and the public rule functions share their bits."""

    def test_truth_frames_subtract_the_detector_offsets(self, params, dsp_cfg, det_cfg):
        for rec in generate_dataset(2024, 5, params, sampling_rate=53.0):
            processed = weighted_smoothed_difference(rec.stream, dsp_cfg)
            det = AdaptiveThresholdDetector(det_cfg)
            det.push_block(processed.start_index, processed.values[:, : det_cfg.init_period])
            assert det.initialized
            offsets = det.offsets()
            for frame in truth_frames(rec, dsp_cfg, det_cfg):
                lo = frame.start - processed.start_index
                expected = processed.values[:, lo : lo + len(frame)] - offsets[:, None]
                np.testing.assert_array_equal(frame.channels, expected)

    @pytest.mark.parametrize("chunk", ["step", 71, 530])
    def test_detector_offsets_are_initialize_offsets(self, session_10, dsp_cfg, det_cfg, chunk):
        processed = weighted_smoothed_difference(session_10.stream, dsp_cfg)
        values, base = processed.values[:, : det_cfg.init_period], processed.start_index
        det = AdaptiveThresholdDetector(det_cfg)
        if chunk == "step":
            _drive(det, values, base)
        else:
            for lo in range(0, values.shape[1], chunk):
                det.push_block(base + lo, values[:, lo : lo + chunk])
        assert det.initialized
        np.testing.assert_array_equal(
            det.offsets(), initialize_offsets(processed, det_cfg.init_period)
        )

    def test_periodic_update_is_update_threshold(self, params, dsp_cfg, det_cfg):
        idle = generate_idle(6, 3000, params, 53.0)
        processed = weighted_smoothed_difference(idle, dsp_cfg)
        det = AdaptiveThresholdDetector(det_cfg)
        base, p1 = processed.start_index, det_cfg.update_period
        updates = 0
        for m in range(processed.values.shape[1]):
            j = base + m
            det.step(j, processed.values[:, m])
            if not det.initialized or j % p1 != 0:
                continue
            window = processed.values[:, j - p1 + 1 - base : j + 1 - base]
            for s in range(4):
                expected = update_threshold(window[s], det.offsets()[s], det_cfg.phi, p1)
                assert det.thresholds()[s] == expected
            updates += 1
        assert updates >= 5

    def test_safety_recompute_is_update_threshold_without_phi(self):
        cfg = DetectorConfig(init_period=200)
        det = AdaptiveThresholdDetector(cfg)
        rng = np.random.default_rng(0)
        trace = np.zeros((4, 1200))
        trace[0, 500:1000] = 500.0 + rng.normal(0, 2.0, 500)
        p1 = cfg.update_period
        for j in range(trace.shape[1]):
            det.step(j, trace[:, j])
            if det.diagnostics["safety_recomputes"]:
                break
        window = trace[0, j - p1 + 1 : j + 1]
        assert det.thresholds()[0] == update_threshold(window, det.offsets()[0], 0.0, p1)


class TestDetectorConfig:
    def test_default_capacity(self):
        cfg = DetectorConfig()
        assert cfg.capacity == 2 * (70 + 70 + 159 + 318)

    def test_invalid_values(self):
        for kwargs in ({"phi": 0.0}, {"phi": float("nan")}, {"phi": float("inf")},
                       {"post_pad": MAX_PERIOD + 1}, {"init_period": 10**20}):
            with pytest.raises(InvalidParameterError):
                DetectorConfig(**kwargs)

    def test_largest_period_is_accepted(self):
        assert DetectorConfig(update_period=MAX_PERIOD).update_period == MAX_PERIOD

    def test_frame_invariants(self):
        with pytest.raises(InvalidParameterError):
            GestureFrame(k=1, start=10, end=10)
        with pytest.raises(InvalidParameterError):
            GestureFrame(k=1, start=0, end=10, channels=np.zeros((4, 5)))


class TestIdleZeroSetting:
    def test_offset_tracks_window_mean(self, params, dsp_cfg):
        # After each periodic refresh the offset equals the mean of the
        # window it was computed from, so the offset-subtracted window mean
        # vanishes (far below 0.05 * idle_sigma).
        idle = generate_idle(2, 3500, params, 53.0)
        processed = weighted_smoothed_difference(idle, dsp_cfg)
        cfg = DetectorConfig()
        det = AdaptiveThresholdDetector(cfg)
        base = processed.start_index
        boundaries = []
        for m in range(processed.values.shape[1]):
            j = base + m
            det.step(j, processed.values[:, m])
            if det.initialized and j % cfg.update_period == 0:
                boundaries.append((j, det.offsets().copy()))
        assert len(boundaries) >= 2
        for j, lam in boundaries[1:]:
            lo = j - cfg.update_period + 1 - base
            window = processed.values[:, lo : j - base + 1]
            gap = np.abs(window.mean(axis=1) - lam)
            assert np.all(gap <= 0.05 * params.idle_sigma)


def _frames_equal(got, ref):
    assert [(f.k, f.start, f.end) for f in got] == [(f.k, f.start, f.end) for f in ref]
    for a, b in zip(got, ref):
        np.testing.assert_array_equal(a.channels, b.channels)


def _safety_session():
    """Seed 2024 with a contact ramp on sensor 1 long enough to force a safety recompute."""
    rec = generate_session(seed=2024, n_per_class=30, sampling_rate=53.0)
    values = rec.stream.values.copy()
    ramp = 50.0 * np.arange(400)
    values[0, 20_000:20_400] += ramp
    values[0, 20_400:] += ramp[-1] + 50.0
    return RawStream(sampling_rate=53.0, values=values)


_PARITY_CASES = {
    "seed2024": lambda: generate_session(seed=2024, n_per_class=30, sampling_rate=53.0).stream,
    "seed7": lambda: generate_session(seed=7, n_per_class=30, sampling_rate=53.0).stream,
    "safety": _safety_session,
}


@pytest.fixture(scope="module", params=sorted(_PARITY_CASES))
def parity_case(request):
    """A conditioned 300-gesture session and the frozen per-sample detector's output."""
    processed = weighted_smoothed_difference(_PARITY_CASES[request.param]())
    frames, diagnostics = reference_frames(processed.start_index, processed.values)
    if request.param == "safety":
        assert diagnostics["safety_recomputes"] >= 1
    return processed, frames, diagnostics


class TestBlockParity:
    """step, push_block and detect_frames against the frozen per-sample detector."""

    @pytest.mark.parametrize("chunk", [1, 7, 71, 318, None])
    def test_push_block_matches_reference(self, parity_case, chunk):
        processed, ref, ref_diag = parity_case
        det = AdaptiveThresholdDetector()
        n = processed.values.shape[1]
        chunk = chunk or n
        got = []
        for lo in range(0, n, chunk):
            got += det.push_block(processed.start_index + lo, processed.values[:, lo : lo + chunk])
        _frames_equal(got, ref)
        assert det.diagnostics == ref_diag

    def test_detect_frames_matches_reference(self, parity_case):
        processed, ref, _ = parity_case
        _frames_equal(detect_frames(processed), ref)

    def test_step_and_interleaved_blocks_match_reference(self, parity_case):
        processed, ref, ref_diag = parity_case
        det = AdaptiveThresholdDetector()
        values, base = processed.values, processed.start_index
        rng = np.random.default_rng(3)
        got, m = [], 0
        while m < values.shape[1]:
            if rng.random() < 0.5:
                frame = det.step(base + m, values[:, m].tolist())
                got += [frame] if frame is not None else []
                m += 1
            else:
                k = int(rng.integers(2, 400))
                got += det.push_block(base + m, values[:, m : m + k])
                m += k
        _frames_equal(got, ref)
        assert det.diagnostics == ref_diag

    def test_no_frame_before_next_emit_index(self, parity_case):
        processed, ref, _ = parity_case
        det = AdaptiveThresholdDetector()
        returned_at = []
        for m in range(processed.values.shape[1]):
            j = processed.start_index + m
            horizon = det.next_emit_index
            frame = det.step(j, processed.values[:, m])
            if frame is not None:
                assert j >= horizon
                returned_at.append(j)
        # Each frame is returned on the row that closes it.
        assert returned_at == [f.end for f in ref]


class TestPushBlock:
    def test_gap_between_blocks_rejected(self):
        det = AdaptiveThresholdDetector(DetectorConfig(init_period=10))
        det.push_block(0, np.zeros((4, 5)))
        with pytest.raises(OrderingError, match="expected index 5, got 6"):
            det.push_block(6, np.zeros((4, 3)))
        assert det.push_block(5, np.zeros((4, 0))) == []

    def test_wrong_shape_rejected(self):
        det = AdaptiveThresholdDetector()
        with pytest.raises(InvalidParameterError):
            det.push_block(0, np.zeros((3, 5)))

    def test_next_emit_index_tracks_pending_end(self):
        cfg = DetectorConfig(init_period=200)
        det = AdaptiveThresholdDetector(cfg)
        trace = _pulse_trace()  # up-crossing at 500, down-crossing at 560
        assert det.next_emit_index == 0
        det.push_block(0, trace[:, :500])
        assert det.next_emit_index == 500 + cfg.post_pad
        det.push_block(500, trace[:, 500:561])
        assert det.next_emit_index == 560 + cfg.post_pad
        assert det.push_block(561, trace[:, 561:630]) == []
        frames = det.push_block(630, trace[:, 630:631])
        assert [(f.start, f.end) for f in frames] == [(430, 630)]
