from __future__ import annotations

import numpy as np
import pytest

from capstream.errors import InvalidParameterError
from capstream.signals import (
    NUM_SENSORS,
    SENSOR_IDS,
    GestureEvent,
    LabeledRecording,
    ProcessedStream,
    RawStream,
    validate_sensor_id,
)


class TestSensorIds:
    def test_exactly_four_unique(self):
        assert NUM_SENSORS == 4
        assert SENSOR_IDS == (1, 2, 3, 4)
        assert len(set(SENSOR_IDS)) == 4

    def test_validation(self):
        for s in SENSOR_IDS:
            assert validate_sensor_id(s) == s
        for bad in (0, 5, -1):
            with pytest.raises(InvalidParameterError):
                validate_sensor_id(bad)


class TestRawStream:
    def test_channels_equal_length_by_construction(self):
        stream = RawStream(sampling_rate=53.0, values=np.zeros((4, 7)))
        assert len(stream) == 7
        for s in SENSOR_IDS:
            assert stream.channel(s).shape == (7,)

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidParameterError):
            RawStream(sampling_rate=53.0, values=np.zeros((3, 7)))

    def test_rejects_nonfinite(self):
        values = np.zeros((4, 4))
        values[1, 2] = np.nan
        with pytest.raises(InvalidParameterError):
            RawStream(sampling_rate=53.0, values=values)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(InvalidParameterError):
            RawStream(sampling_rate=0.0, values=np.zeros((4, 4)))

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_rejects_nonfinite_rate(self, rate):
        with pytest.raises(InvalidParameterError):
            RawStream(sampling_rate=rate, values=np.zeros((4, 4)))

    def test_rows(self):
        values = np.arange(8, dtype=float).reshape(4, 2)
        stream = RawStream(sampling_rate=10.0, values=values)
        assert list(stream.rows()) == [(0, (0.0, 2.0, 4.0, 6.0)), (1, (1.0, 3.0, 5.0, 7.0))]


class TestProcessedStream:
    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidParameterError):
            ProcessedStream(sampling_rate=53.0, start_index=5, values=np.zeros((3, 3)))


class TestLabeledRecording:
    def _stream(self, n=100):
        return RawStream(sampling_rate=53.0, values=np.zeros((4, n)))

    def test_valid_events(self):
        rec = LabeledRecording(
            stream=self._stream(),
            events=[GestureEvent(1, 5, 20), GestureEvent(2, 30, 40)],
        )
        assert len(rec.events) == 2

    def test_rejects_overlap(self):
        with pytest.raises(InvalidParameterError):
            LabeledRecording(
                stream=self._stream(),
                events=[GestureEvent(1, 5, 30), GestureEvent(2, 20, 40)],
            )

    def test_rejects_out_of_bounds(self):
        with pytest.raises(InvalidParameterError):
            LabeledRecording(stream=self._stream(50), events=[GestureEvent(1, 10, 50)])

    def test_rejects_bad_class(self):
        with pytest.raises(InvalidParameterError):
            LabeledRecording(stream=self._stream(), events=[GestureEvent(11, 5, 10)])
