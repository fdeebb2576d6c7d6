"""Gesture classes, UI command mapping, and the NDJSON wire format.

Messages travel as one JSON object per line over a TCP stream (UTF-8).
The (class_id, label, command) triple is fixed; decode rejects messages
that disagree with the table.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ProtocolError

GESTURE_LABELS: dict[int, str] = {
    1: "Left to Right",
    2: "Right to Left",
    3: "UP",
    4: "DOWN",
    5: "Down to Left",
    6: "Down to Right",
    7: "Left to Down",
    8: "Right to Down",
    9: "Up to Left",
    10: "Up to Right",
}

COMMANDS: dict[int, str] = {
    1: "Next page",
    2: "Previous page",
    3: "Scroll up",
    4: "Scroll down",
    5: "Previous 2 pages",
    6: "Next 2 pages",
    7: "Off",
    8: "On",
    9: "Volume down",
    10: "Volume up",
}


def map_class_to_command(class_id: int) -> str:
    """UI command text for a gesture class; unknown ids are protocol errors."""
    try:
        return COMMANDS[class_id]
    except KeyError:
        raise ProtocolError(f"unknown gesture class {class_id!r}") from None


@dataclass(frozen=True)
class CommandMessage:
    """One classification result on the wire."""

    timestamp_ms: int
    frame_index: int
    class_id: int
    label: str
    probability: float
    command: str

    def __post_init__(self) -> None:
        if self.class_id not in COMMANDS:
            raise ProtocolError(f"unknown gesture class {self.class_id!r}")
        if self.label != GESTURE_LABELS[self.class_id]:
            raise ProtocolError(
                f"label {self.label!r} does not match class {self.class_id}"
            )
        if self.command != COMMANDS[self.class_id]:
            raise ProtocolError(
                f"command {self.command!r} does not match class {self.class_id}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ProtocolError(f"probability out of range: {self.probability}")

    @classmethod
    def for_class(
        cls, class_id: int, frame_index: int, timestamp_ms: int, probability: float
    ) -> "CommandMessage":
        if class_id not in COMMANDS:
            raise ProtocolError(f"unknown gesture class {class_id!r}")
        return cls(
            timestamp_ms=int(timestamp_ms),
            frame_index=int(frame_index),
            class_id=int(class_id),
            label=GESTURE_LABELS[class_id],
            probability=float(probability),
            command=COMMANDS[class_id],
        )


_FIELDS = ("timestamp_ms", "frame_index", "class_id", "label", "probability", "command")


def encode_message(msg: CommandMessage) -> str:
    """One newline-terminated JSON line."""
    payload = {
        "timestamp_ms": msg.timestamp_ms,
        "frame_index": msg.frame_index,
        "class_id": msg.class_id,
        "label": msg.label,
        "probability": msg.probability,
        "command": msg.command,
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def decode_message(line: str | bytes) -> CommandMessage:
    """Parse and validate one NDJSON line; raises ProtocolError on any defect."""
    try:
        if isinstance(line, bytes):
            line = line.decode("utf-8", errors="strict")
        payload = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed message: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("message must be a JSON object")
    missing = [f for f in _FIELDS if f not in payload]
    if missing:
        raise ProtocolError(f"message missing fields: {missing}")
    try:
        return CommandMessage(
            timestamp_ms=int(payload["timestamp_ms"]),
            frame_index=int(payload["frame_index"]),
            class_id=int(payload["class_id"]),
            label=str(payload["label"]),
            probability=float(payload["probability"]),
            command=str(payload["command"]),
        )
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: int(1e999)
        raise ProtocolError(f"bad field value: {exc}") from None

