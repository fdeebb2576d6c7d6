from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capstream.detector import GestureFrame
from capstream.errors import InvalidParameterError
from capstream.metrics import EventMatch, detection_rate, extraction_rate
from capstream.signals import GestureEvent


def _frames(spans):
    return [GestureFrame(k=i + 1, start=s, end=e) for i, (s, e) in enumerate(spans)]


def _events(spans):
    return [GestureEvent(class_id=1, start=s, end=e) for s, e in spans]


def _brute_force_matches(frames, events):
    """O(frames x events) oracle: every overlapping pair, taken greedily by (-overlap, frame, event)."""
    pairs = []
    for fi, f in enumerate(frames):
        for ei, ev in enumerate(events):
            ov = min(f.end, ev.end) - max(f.start, ev.start) + 1
            if ov > 0:
                pairs.append((-ov, fi, ei))
    pairs.sort()
    used_frames, assigned = set(), {}
    for neg_ov, fi, ei in pairs:
        if fi not in used_frames and ei not in assigned:
            used_frames.add(fi)
            assigned[ei] = (fi, -neg_ov)
    out = []
    for ei, ev in enumerate(events):
        if ei not in assigned:
            out.append(EventMatch(ei, None, 0, 0.0, False))
            continue
        fi, ov = assigned[ei]
        f = frames[fi]
        union = (f.end - f.start + 1) + (ev.end - ev.start + 1) - ov
        out.append(EventMatch(ei, fi, ov, ov / union, f.start <= ev.start and f.end >= ev.end))
    return out


# Short spans on a small axis, so nesting, touching ends and equal overlaps are common.
_span = st.tuples(st.integers(0, 40), st.integers(1, 12)).map(lambda t: (t[0], t[0] + t[1]))


class TestDetectionRate:
    def test_exact_frames_detect_all(self):
        spans = [(100, 200), (400, 500), (800, 900)]
        report = detection_rate(_frames(spans), _events(spans))
        assert report.detection_rate == 1.0
        assert report.detected_events == 3

    def test_no_frames(self):
        report = detection_rate([], _events([(10, 20)]))
        assert report.detection_rate == 0.0

    def test_frame_matches_at_most_one_event(self):
        # One giant frame spanning two events may count for only one.
        frames = _frames([(0, 1000)])
        report = detection_rate(frames, _events([(100, 200), (400, 500)]))
        assert report.detected_events == 1
        assert report.detection_rate == 0.5

    def test_greedy_prefers_larger_overlap(self):
        frames = _frames([(90, 210)])
        events = _events([(100, 200), (205, 260)])
        report = detection_rate(frames, events)
        matched = [m for m in report.matches if m.frame_index is not None]
        assert len(matched) == 1
        assert matched[0].event_index == 0

    def test_overlap_ties_go_to_lowest_frame_then_event(self):
        # Both events overlap the first frame by 5; events are listed out of start order.
        events = _events([(6, 10), (0, 4)])
        report = detection_rate(_frames([(0, 10), (0, 10)]), events)
        assert [(m.event_index, m.frame_index, m.overlap) for m in report.matches] == [
            (0, 0, 5),
            (1, 1, 5),
        ]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_equal_brute_force_oracle(self, data):
        # Drawing from a shared pool as well yields duplicate frames and events.
        pool = data.draw(st.lists(_span, min_size=1, max_size=6))
        span = st.one_of(st.sampled_from(pool), _span)
        frames = _frames(data.draw(st.lists(span, max_size=10)))
        events = _events(data.draw(st.lists(span, max_size=10)))
        assert detection_rate(frames, events).matches == _brute_force_matches(frames, events)

    def test_order_invariance(self):
        events = _events([(100, 200), (400, 500), (800, 900)])
        spans = [(95, 190), (410, 520), (790, 880)]
        forward = detection_rate(_frames(spans), events)
        backward = detection_rate(_frames(list(reversed(spans))), events)
        assert forward.detection_rate == backward.detection_rate


class TestExtractionRate:
    def test_containment_with_slack_is_correct(self):
        events = _events([(100, 200)])
        frames = _frames([(100 - 70, 200 + 70)])
        report = extraction_rate(frames, events, iou_min=0.8)
        assert report.extraction_rate == 1.0
        assert report.containment_count == 1

    def test_half_coverage_fails_at_iou_08(self):
        events = _events([(100, 200)])
        frames = _frames([(150, 200)])  # covers half, IoU ~ 0.5
        report = extraction_rate(frames, events, iou_min=0.8)
        assert report.total_detected == 1
        assert report.extraction_rate == 0.0

    def test_matches_brute_force_oracle(self, session_10, dsp_cfg, det_cfg):
        from capstream.detector import run_detector

        frames = run_detector(session_10.stream, dsp_cfg, det_cfg)
        report = extraction_rate(frames, session_10.events, iou_min=0.8)
        # Oracle: exhaustive interval comparison, one frame per event.
        correct = 0
        matched = 0
        for ev in session_10.events:
            best, best_ov = None, 0
            for f in frames:
                ov = min(f.end, ev.end) - max(f.start, ev.start) + 1
                if ov > best_ov:
                    best, best_ov = f, ov
            if best is None or best_ov <= 0:
                continue
            matched += 1
            contains = best.start <= ev.start and best.end >= ev.end
            inter = best_ov
            union = (best.end - best.start + 1) + (ev.end - ev.start + 1) - inter
            if contains or inter / union >= 0.8:
                correct += 1
        assert report.total_detected == matched
        assert report.correctly_framed == correct

    def test_invalid_iou_min(self):
        with pytest.raises(InvalidParameterError):
            extraction_rate([], [], iou_min=0.0)
        with pytest.raises(InvalidParameterError):
            extraction_rate([], [], iou_min=1.5)

    @given(st.floats(0.1, 1.0), st.floats(0.1, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_lower_iou_never_decreases_rate(self, a, b):
        lo, hi = sorted((a, b))
        events = _events([(100, 200), (400, 500), (800, 900)])
        frames = _frames([(120, 210), (390, 560), (805, 895)])
        rate_hi = extraction_rate(frames, events, iou_min=hi).extraction_rate
        rate_lo = extraction_rate(frames, events, iou_min=lo).extraction_rate
        assert rate_lo >= rate_hi

    def test_identical_frames_give_unit_rates(self):
        spans = [(10, 50), (80, 120)]
        det = detection_rate(_frames(spans), _events(spans))
        ext = extraction_rate(_frames(spans), _events(spans), iou_min=0.8)
        assert det.detection_rate == 1.0
        assert ext.extraction_rate == 1.0
