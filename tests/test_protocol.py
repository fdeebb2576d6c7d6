from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capstream.errors import ProtocolError
from capstream.protocol import (
    COMMANDS,
    GESTURE_LABELS,
    CommandMessage,
    decode_message,
    encode_message,
    map_class_to_command,
)

EXPECTED_TABLE = {
    1: ("Left to Right", "Next page"),
    2: ("Right to Left", "Previous page"),
    3: ("UP", "Scroll up"),
    4: ("DOWN", "Scroll down"),
    5: ("Down to Left", "Previous 2 pages"),
    6: ("Down to Right", "Next 2 pages"),
    7: ("Left to Down", "Off"),
    8: ("Right to Down", "On"),
    9: ("Up to Left", "Volume down"),
    10: ("Up to Right", "Volume up"),
}


class TestCommandTable:
    def test_full_table(self):
        assert set(COMMANDS) == set(range(1, 11))
        for class_id, (label, command) in EXPECTED_TABLE.items():
            assert GESTURE_LABELS[class_id] == label
            assert COMMANDS[class_id] == command

    def test_map_examples(self):
        assert map_class_to_command(1) == "Next page"
        assert map_class_to_command(2) == "Previous page"
        assert map_class_to_command(8) == "On"

    def test_unknown_class(self):
        with pytest.raises(ProtocolError):
            map_class_to_command(11)
        with pytest.raises(ProtocolError):
            map_class_to_command(0)


class TestMessage:
    def test_for_class_fills_table_values(self):
        msg = CommandMessage.for_class(class_id=5, frame_index=3, timestamp_ms=1234, probability=0.9)
        assert msg.label == "Down to Left"
        assert msg.command == "Previous 2 pages"

    def test_mismatched_label_rejected(self):
        with pytest.raises(ProtocolError):
            CommandMessage(
                timestamp_ms=0, frame_index=1, class_id=1,
                label="Right to Left", probability=0.5, command="Next page",
            )

    def test_mismatched_command_rejected(self):
        with pytest.raises(ProtocolError):
            CommandMessage(
                timestamp_ms=0, frame_index=1, class_id=1,
                label="Left to Right", probability=0.5, command="Scroll up",
            )

    def test_probability_bounds(self):
        with pytest.raises(ProtocolError):
            CommandMessage.for_class(1, 1, 0, probability=1.5)


class TestWire:
    @given(
        st.integers(0, 2**40),
        st.integers(1, 10**6),
        st.integers(1, 10),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_identity(self, ts, k, class_id, prob):
        msg = CommandMessage.for_class(
            class_id=class_id, frame_index=k, timestamp_ms=ts, probability=prob
        )
        assert decode_message(encode_message(msg)) == msg

    def test_line_terminated_json(self):
        msg = CommandMessage.for_class(1, 1, 10, 0.5)
        line = encode_message(msg)
        assert line.endswith("\n")
        assert line.count("\n") == 1

    def test_malformed_json(self):
        with pytest.raises(ProtocolError):
            decode_message("{not json")

    def test_missing_field(self):
        with pytest.raises(ProtocolError):
            decode_message('{"timestamp_ms": 1}')

    def test_wrong_label_on_wire(self):
        msg = CommandMessage.for_class(1, 1, 10, 0.5)
        line = encode_message(msg).replace("Left to Right", "Right to Left")
        with pytest.raises(ProtocolError):
            decode_message(line)

    def test_non_utf8_bytes(self):
        with pytest.raises(ProtocolError):
            decode_message(b"\xff\xfe")

    def test_bytes_input(self):
        msg = CommandMessage.for_class(4, 2, 99, 0.25)
        assert decode_message(encode_message(msg).encode()) == msg
