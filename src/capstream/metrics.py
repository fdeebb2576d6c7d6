"""Evaluation of emitted frames against ground-truth gesture events.

An event counts as detected when at least one frame interval intersects
it; frames are matched greedily by overlap size and each frame may match
at most one event. A matched frame is correctly extracted when it fully
contains its event or reaches the IoU threshold.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

from .errors import InvalidParameterError


@dataclass(frozen=True)
class EventMatch:
    event_index: int
    frame_index: int | None
    overlap: int
    iou: float
    contains: bool


@dataclass
class DetectionReport:
    total_events: int
    detected_events: int
    detection_rate: float
    matches: list[EventMatch] = field(default_factory=list)


@dataclass
class ExtractionReport:
    total_detected: int
    correctly_framed: int
    extraction_rate: float
    iou_min: float
    containment_count: int
    iou_pass_count: int
    iou_values: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class CommandScore:
    """Classified messages scored against ground truth.

    correct counts messages whose frame matches an event of the message's
    class, unmatched the messages whose frame matches no event, and missed
    the events that no message names.
    """

    correct: int
    unmatched: int
    missed: int


def _length(start: int, end: int) -> int:
    return end - start + 1


def _overlap(a: tuple[int, int], b: tuple[int, int]) -> int:
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    return max(0, hi - lo + 1)


def _iou(a: tuple[int, int], b: tuple[int, int]) -> float:
    inter = _overlap(a, b)
    union = _length(*a) + _length(*b) - inter
    return inter / union if union else 0.0


def _match(frames: Sequence, events: Sequence) -> list[EventMatch]:
    """Greedy one-to-one matching by descending overlap size.

    Candidate pairs come from a sweep: events sorted by start with a prefix
    maximum of their ends, so each frame visits only the events that start
    before it ends, back to the last one whose prefix reaches its start.
    """
    order = sorted(range(len(events)), key=lambda ei: events[ei].start)
    starts = [events[ei].start for ei in order]
    reach = list(accumulate((events[ei].end for ei in order), max))
    candidates = []
    for fi, frame in enumerate(frames):
        f_span = (frame.start, frame.end)
        j = bisect_right(starts, frame.end) - 1
        while j >= 0 and reach[j] >= frame.start:
            ei = order[j]
            ov = _overlap(f_span, (starts[j], events[ei].end))
            if ov > 0:
                candidates.append((ov, fi, ei))
            j -= 1
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))
    used_frames: set[int] = set()
    used_events: set[int] = set()
    assigned: dict[int, tuple[int, int]] = {}
    for ov, fi, ei in candidates:
        if fi in used_frames or ei in used_events:
            continue
        used_frames.add(fi)
        used_events.add(ei)
        assigned[ei] = (fi, ov)
    out = []
    for ei, ev in enumerate(events):
        e_span = (ev.start, ev.end)
        if ei in assigned:
            fi, ov = assigned[ei]
            f_span = (frames[fi].start, frames[fi].end)
            out.append(
                EventMatch(
                    event_index=ei,
                    frame_index=fi,
                    overlap=ov,
                    iou=_iou(f_span, e_span),
                    contains=f_span[0] <= e_span[0] and f_span[1] >= e_span[1],
                )
            )
        else:
            out.append(EventMatch(event_index=ei, frame_index=None, overlap=0, iou=0.0, contains=False))
    return out


def detection_rate(frames: Sequence, events: Sequence) -> DetectionReport:
    """Fraction of ground-truth events intersected by at least one frame."""
    matches = _match(frames, events)
    detected = sum(1 for m in matches if m.frame_index is not None)
    total = len(events)
    return DetectionReport(
        total_events=total,
        detected_events=detected,
        detection_rate=detected / total if total else 0.0,
        matches=matches,
    )


def command_score(messages: Sequence, frames: Sequence, events: Sequence) -> CommandScore:
    """Score messages through the frames that carried them.

    frames are the detector's frames of the stream the messages came from; a
    message names its frame by the frame's k. Frames are matched to events
    as detection_rate matches them.
    """
    frame_to_event = {
        frames[m.frame_index].k: m.event_index
        for m in _match(frames, events)
        if m.frame_index is not None
    }
    correct = unmatched = 0
    named: set[int] = set()
    for msg in messages:
        ei = frame_to_event.get(msg.frame_index)
        if ei is None:
            unmatched += 1
            continue
        named.add(ei)
        if msg.class_id == events[ei].class_id:
            correct += 1
    return CommandScore(correct=correct, unmatched=unmatched, missed=len(events) - len(named))


def extraction_rate(frames: Sequence, events: Sequence, iou_min: float = 0.8) -> ExtractionReport:
    """Fraction of detected events whose frame covers them (containment or IoU)."""
    if not 0.0 < iou_min <= 1.0:
        raise InvalidParameterError(f"iou_min must lie in (0, 1], got {iou_min}")
    matches = [m for m in _match(frames, events) if m.frame_index is not None]
    correct = sum(1 for m in matches if m.contains or m.iou >= iou_min)
    return ExtractionReport(
        total_detected=len(matches),
        correctly_framed=correct,
        extraction_rate=correct / len(matches) if matches else 0.0,
        iou_min=iou_min,
        containment_count=sum(1 for m in matches if m.contains),
        iou_pass_count=sum(1 for m in matches if m.iou >= iou_min),
        iou_values=[m.iou for m in matches],
    )
