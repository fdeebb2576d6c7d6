from __future__ import annotations

import io
import socket
import sys
import threading
import time

import numpy as np
import pytest

from capstream.classifier import ClassifierModel, FrameGeometry, frame_to_tensor
from capstream.detector import AdaptiveThresholdDetector, DetectorConfig, run_detector
from capstream.dsp import StreamingConditioner
from capstream.errors import ConfigError, InvalidParameterError, OrderingError
from capstream.protocol import COMMANDS, encode_message
from capstream.runtime import (
    FileReplaySource,
    LiveByteSource,
    PipelineConfig,
    _Emitter,
    consume,
    run_pipeline,
)
from capstream.signals import RawStream
from capstream.simulate import generate_idle, generate_session


@pytest.fixture(scope="module")
def plumbing_model():
    # Pipeline plumbing does not need a converged model.
    return ClassifierModel.initialize("gru", seed=0)


@pytest.fixture(scope="module")
def short_session(params):
    return generate_session(seed=19, n_per_class=1, params=params, sampling_rate=53.0,
                            classes=(1, 2, 3))


def _consume_in_thread(max_messages=None, timeout=20.0):
    ports: list[int] = []
    ready = threading.Event()
    out: dict = {}

    def worker():
        out["messages"] = consume(
            "127.0.0.1", 0, max_messages=max_messages, print_fn=None,
            ready=ready, bound_port=ports, timeout=timeout,
        )

    thread = threading.Thread(target=worker)
    thread.start()
    assert ready.wait(5.0)
    return thread, ports[0], out


class TestSources:
    def test_unpaced_replay_order(self, short_session, tmp_path):
        src = FileReplaySource.from_stream(short_session.stream, pacing="unpaced")
        rows = list(src.rows())
        assert [r[0] for r in rows[:4]] == [0, 1, 2, 3]
        assert len(rows) == len(short_session.stream)

    def test_realtime_pacing_duration(self):
        stream = RawStream(sampling_rate=200.0, values=np.zeros((4, 100)))
        src = FileReplaySource.from_stream(stream, pacing="realtime")
        t0 = time.monotonic()
        n = sum(1 for _ in src.rows())
        elapsed = time.monotonic() - t0
        assert n == 100
        expected = 100 / 200.0
        assert abs(elapsed - expected) <= 0.05 * expected + 0.02

    def test_invalid_pacing(self):
        stream = RawStream(sampling_rate=10.0, values=np.zeros((4, 5)))
        with pytest.raises(InvalidParameterError):
            FileReplaySource.from_stream(stream, pacing="warp")

    def test_live_byte_source_parses_and_skips_garbage(self):
        payload = (
            b"0,1.0,2.0,3.0,4.0\n\nnot,a,row\n1,5,6,7,8\n2,9,10,11,oops\n"
            b"3,nan,1,2,3\n4,1,inf,2,3\n5,1,2,-inf,3\n6,1,2,3,NaN\n"
            b"-1,1,2,3,4\n9007199254740992,1,2,3,4\n"
        )
        src = LiveByteSource(io.BytesIO(payload))
        rows = list(src.rows())
        assert rows == [(0, (1.0, 2.0, 3.0, 4.0)), (1, (5.0, 6.0, 7.0, 8.0))]

    def test_live_values_beyond_the_magnitude_bound_are_dropped(self, session_10, plumbing_model):
        # 1e308 is finite, but the conditioner's window sums would overflow
        # to inf on it. The dropped line leaves a gap, which ends a live run.
        payload = b"0,1,2,3,4\n1,1e308,-1e308,1e308,-1e308\n2,1e12,-1e12,0,0\n"
        rows = list(LiveByteSource(io.BytesIO(payload)).rows())
        assert rows == [(0, (1.0, 2.0, 3.0, 4.0)), (2, (1e12, -1e12, 0.0, 0.0))]
        lines = [
            f"{i},{a!r},{b!r},{c!r},{d!r}\n".encode()
            for i, (a, b, c, d) in enumerate(session_10.stream.values.T.tolist())
        ]
        lines[1200] = b"1200,1e308,-1e308,1e308,-1e308\n"
        with pytest.raises(OrderingError, match="expected index 1200, got 1201"):
            run_pipeline(LiveByteSource(io.BytesIO(b"".join(lines))), PipelineConfig(), plumbing_model)

    def test_live_indices_near_the_int64_limit_are_dropped_not_an_index_error(self, session_10):
        first = 2**63 - 500
        payload = b"".join(
            f"{first + i},{a!r},{b!r},{c!r},{d!r}\n".encode()
            for i, (a, b, c, d) in enumerate(session_10.stream.values.T.tolist())
        )
        model = ClassifierModel.initialize("gru", seed=0, hidden_size=3, dense_sizes=(4,))
        result = run_pipeline(LiveByteSource(io.BytesIO(payload)), PipelineConfig(), model)
        assert (result.samples, result.messages) == (0, [])

    @pytest.mark.parametrize("rate", [0.0, -53.0, float("nan"), float("inf")])
    def test_live_byte_source_rejects_bad_rate(self, rate):
        with pytest.raises(InvalidParameterError, match="sampling_rate"):
            LiveByteSource(io.BytesIO(b""), sampling_rate=rate)


class TestPipelineConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"queue_capacity": 0},
            {"queue_capacity": -1},
            {"connect_attempts": 0},
            {"connect_backoff_s": -0.1},
            {"connect_backoff_s": float("nan")},
        ],
        ids=["capacity-0", "capacity-negative", "attempts-0", "backoff-negative", "backoff-nan"],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError, match=next(iter(kwargs))):
            PipelineConfig(**kwargs)

    def test_boundary_values_accepted(self):
        cfg = PipelineConfig(queue_capacity=1, connect_attempts=1, connect_backoff_s=0.0)
        assert (cfg.queue_capacity, cfg.connect_attempts, cfg.connect_backoff_s) == (1, 1, 0.0)


class TestPipeline:
    def test_idle_replay_emits_nothing(self, params, plumbing_model):
        model = plumbing_model
        idle = generate_idle(23, 53 * 60, params, 53.0)
        src = FileReplaySource.from_stream(idle, pacing="unpaced")
        cfg = PipelineConfig(socket_addr=None)
        result = run_pipeline(src, cfg, model)
        assert result.frames == 0
        assert result.messages == []

    def test_one_message_per_frame_in_order(self, short_session, plumbing_model):
        src = FileReplaySource.from_stream(short_session.stream, pacing="unpaced")
        result = run_pipeline(src, PipelineConfig(socket_addr=None), plumbing_model)
        assert result.frames == len(short_session.events)
        assert len(result.messages) == result.frames
        indices = [m.frame_index for m in result.messages]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)
        for msg in result.messages:
            assert msg.command == COMMANDS[msg.class_id]

    def test_frames_resampled_to_the_model_frame_length(self, short_session):
        model = ClassifierModel.initialize("gru", seed=0, frame_length=256)
        frames = run_detector(short_session.stream)
        src = FileReplaySource.from_stream(short_session.stream, pacing="unpaced")
        result = run_pipeline(src, PipelineConfig(), model)
        assert [m.frame_index for m in result.messages] == [f.k for f in frames]
        for msg, frame in zip(result.messages, frames):
            pred = model.predict(frame_to_tensor(frame, 256))
            assert (msg.class_id, msg.probability) == (pred.class_id, float(pred.probabilities.max()))

    def test_config_must_cut_frames_as_the_model_geometry(self, short_session, tmp_path):
        model = ClassifierModel.initialize("gru", seed=0, geometry=FrameGeometry(post_pad=35))
        src = FileReplaySource.from_stream(short_session.stream, pacing="unpaced")
        log_path = tmp_path / "messages.ndjson"
        with pytest.raises(ConfigError, match=r"post_pad 70 \(model: 35\)"):
            run_pipeline(src, PipelineConfig(log_path=log_path), model)
        assert not log_path.exists()
        det_cfg = DetectorConfig(post_pad=35)
        result = run_pipeline(src, PipelineConfig(detector=det_cfg), model)
        frames = run_detector(short_session.stream, det_cfg=det_cfg)
        assert [(m.frame_index, m.timestamp_ms) for m in result.messages] == [
            (f.k, int(round(f.end / 53.0 * 1000.0))) for f in frames
        ]

    def test_messages_logged_even_without_socket_peer(self, short_session, plumbing_model, tmp_path):
        log_path = tmp_path / "messages.ndjson"
        src = FileReplaySource.from_stream(short_session.stream, pacing="unpaced")
        # Nothing listens on this port: connects fail, log still fills up.
        cfg = PipelineConfig(
            socket_addr=("127.0.0.1", 1),  # reserved port, connection refused
            log_path=log_path,
            connect_attempts=1,
            connect_backoff_s=0.01,
        )
        result = run_pipeline(src, cfg, plumbing_model)
        lines = [l for l in log_path.read_text().splitlines() if l.strip()]
        assert len(lines) == result.frames > 0

    def test_socket_delivery_to_consumer(self, short_session, plumbing_model):
        thread, port, out = _consume_in_thread(max_messages=len(short_session.events))
        src = FileReplaySource.from_stream(short_session.stream, pacing="unpaced")
        cfg = PipelineConfig(socket_addr=("127.0.0.1", port))
        result = run_pipeline(src, cfg, plumbing_model)
        thread.join(timeout=20)
        assert not thread.is_alive()
        received = out["messages"]
        assert [m.frame_index for m in received] == [m.frame_index for m in result.messages]
        assert result.socket_delivered == result.frames
        assert all(m.command == COMMANDS[m.class_id] for m in received)

    def test_consume_prints_label_and_command(self, short_session, plumbing_model):
        printed: list[str] = []
        ports: list[int] = []
        ready = threading.Event()

        def worker():
            consume("127.0.0.1", 0, max_messages=len(short_session.events),
                    print_fn=printed.append, ready=ready, bound_port=ports, timeout=20)

        thread = threading.Thread(target=worker)
        thread.start()
        assert ready.wait(5)
        src = FileReplaySource.from_stream(short_session.stream, pacing="unpaced")
        run_pipeline(src, PipelineConfig(socket_addr=("127.0.0.1", ports[0])), plumbing_model)
        thread.join(timeout=20)
        assert len(printed) == len(short_session.events)
        for line in printed:
            label, _, command = line.partition(" -> ")
            assert command in COMMANDS.values()

    def test_consume_survives_malformed_lines(self):
        ports: list[int] = []
        ready = threading.Event()
        out: dict = {}

        def worker():
            out["messages"] = consume("127.0.0.1", 0, max_messages=1, print_fn=None,
                                      ready=ready, bound_port=ports, timeout=10)

        thread = threading.Thread(target=worker)
        thread.start()
        assert ready.wait(5)
        from capstream.protocol import CommandMessage, encode_message

        with socket.create_connection(("127.0.0.1", ports[0])) as sock:
            sock.sendall(b"this is not json\n")
            sock.sendall(encode_message(CommandMessage.for_class(3, 1, 5, 0.7)).encode())
        thread.join(timeout=10)
        assert len(out["messages"]) == 1
        assert out["messages"][0].class_id == 3

    def test_consume_rejects_max_messages_below_one(self):
        ready = threading.Event()
        out = _run_with_deadline(lambda: consume("127.0.0.1", 0, max_messages=0, ready=ready), 5.0)
        assert isinstance(out.get("error"), InvalidParameterError)
        assert not ready.is_set()  # raised before binding the port


def _closed_port() -> int:
    """A loopback port that was just released: every connect to it is refused."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _run_with_deadline(fn, seconds):
    """Run fn in a thread; a hang fails the test instead of blocking the suite."""
    out: dict = {}

    def worker():
        try:
            out["result"] = fn()
        except BaseException as exc:  # handed to the test
            out["error"] = exc

    thread = threading.Thread(target=worker, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    return out


class _FailingModel:
    def __init__(self) -> None:
        self.calls = 0

    def predict(self, tensor):
        self.calls += 1
        raise RuntimeError("classifier broke")


class TestPipelineFailures:
    def test_classifier_error_with_full_queue_ends_the_run(self, session_10):
        model = _FailingModel()
        src = FileReplaySource.from_stream(session_10.stream, pacing="unpaced")
        out = _run_with_deadline(
            lambda: run_pipeline(src, PipelineConfig(queue_capacity=2), model), 10.0
        )
        assert isinstance(out.get("error"), RuntimeError)
        assert str(out["error"]) == "classifier broke"
        assert model.calls == 1

    def test_socket_delivered_counts_only_delivered_messages(self, short_session, plumbing_model):
        src = FileReplaySource.from_stream(short_session.stream, pacing="unpaced")
        cfg = PipelineConfig(
            socket_addr=("127.0.0.1", _closed_port()), connect_attempts=1, connect_backoff_s=0.01
        )
        result = run_pipeline(src, cfg, plumbing_model)
        assert result.frames > 0
        assert result.socket_delivered == 0

    def test_peer_down_costs_one_connect_cycle(self, session_10, plumbing_model, tmp_path):
        log_path = tmp_path / "messages.ndjson"
        # One connect cycle sleeps 0.2 s, between its two attempts.
        cycle_s = 0.2
        cfg = PipelineConfig(
            socket_addr=("127.0.0.1", _closed_port()),
            log_path=log_path,
            connect_attempts=2,
            connect_backoff_s=0.2,
        )
        src = FileReplaySource.from_stream(session_10.stream, pacing="unpaced")
        no_socket = run_pipeline(src, PipelineConfig(), plumbing_model).wall_seconds
        result = run_pipeline(src, cfg, plumbing_model)
        assert result.frames == 10
        assert result.wall_seconds < no_socket + 2 * cycle_s
        assert result.socket_delivered == 0
        assert log_path.read_text() == "".join(encode_message(m) for m in result.messages)

    def test_failed_connect_cycle_sleeps_only_between_attempts(self):
        cfg = PipelineConfig(socket_addr=("127.0.0.1", _closed_port()),
                             connect_attempts=3, connect_backoff_s=0.3)
        emitter = _Emitter(cfg)
        t0 = time.monotonic()
        assert emitter._connect() is None
        # 0.3 + 0.6 s of sleep; a sleep after the last attempt would add 1.2 s.
        assert time.monotonic() - t0 < 1.5

    def test_gap_raises_the_per_row_ordering_error(self, short_session, plumbing_model):
        rows = list(short_session.stream.rows())
        rows = rows[:1000] + rows[1100:]
        # The message a per-row feed of conditioner and detector gives.
        cond, det = StreamingConditioner(), AdaptiveThresholdDetector()
        with pytest.raises(OrderingError) as per_row:
            for idx, row in rows:
                processed = cond.push(row)
                if processed is not None:
                    det.step(idx, processed)

        class GapSource:
            sampling_rate = 53.0

            def rows(self):
                return iter(rows)

        with pytest.raises(OrderingError) as piped:
            run_pipeline(GapSource(), PipelineConfig(), plumbing_model)
        assert str(piped.value) == str(per_row.value) == "expected index 1000, got 1100"


class _RowSource:
    """Yields the given (index, row) pairs; raises OSError at index fail_at."""

    sampling_rate = 53.0

    def __init__(self, rows, fail_at=None):
        self._rows = rows
        self.fail_at = fail_at

    def rows(self):
        for idx, row in self._rows:
            if idx == self.fail_at:
                raise OSError("source broke")
            yield idx, row


class TestNoThreadOutlivesTheRun:
    @pytest.mark.parametrize("case", ["returns", "classifier", "ordering", "source"])
    def test_no_capstream_thread_alive_after_run(self, case, session_10, plumbing_model):
        rows = list(session_10.stream.rows())
        source, model, error = _RowSource(rows), plumbing_model, None
        if case == "classifier":
            model, error = _FailingModel(), RuntimeError
        elif case == "ordering":
            source, error = _RowSource(rows[:1000] + rows[1100:]), OrderingError
        elif case == "source":
            source, error = _RowSource(rows, fail_at=len(rows) // 2), OSError
        out = _run_with_deadline(
            lambda: run_pipeline(source, PipelineConfig(queue_capacity=2), model), 30.0
        )
        if error is None:
            assert "error" not in out, out.get("error")
            assert out["result"].frames > 0
        else:
            assert isinstance(out.get("error"), error)
        alive = [t.name for t in threading.enumerate() if t.name.startswith("capstream-")]
        assert alive == []


class TestOneThread:
    def test_predict_runs_on_the_calling_thread(self, session_10, plumbing_model):
        threads: set[int] = set()

        class ThreadRecordingModel:
            def predict(self, tensor):
                threads.add(threading.get_ident())
                return plumbing_model.predict(tensor)

        src = FileReplaySource.from_stream(session_10.stream, pacing="unpaced")
        result = run_pipeline(src, PipelineConfig(), ThreadRecordingModel())
        assert result.frames == 10
        assert threads == {threading.get_ident()}


class TestEmitHorizon:
    def test_no_frame_is_held_past_its_closing_row(self, session_10, plumbing_model):
        """After yielding a frame's end row, the source waits for its prediction.

        If the pipeline buffered that row instead of feeding it to the
        detector, the prediction could not come and the wait would time out.
        """
        ends = [f.end for f in run_detector(session_10.stream)]
        predicted = threading.Condition()
        calls = [0]
        timeouts: list[int] = []

        class CountingModel:
            def predict(self, tensor):
                pred = plumbing_model.predict(tensor)
                with predicted:
                    calls[0] += 1
                    predicted.notify_all()
                return pred

        class PausingSource:
            sampling_rate = 53.0

            def rows(self):
                for idx, row in session_10.stream.rows():
                    yield idx, row
                    if idx in ends:
                        k = ends.index(idx) + 1
                        with predicted:
                            if not predicted.wait_for(lambda: calls[0] >= k, timeout=5.0):
                                timeouts.append(idx)

        out = _run_with_deadline(
            lambda: run_pipeline(PausingSource(), PipelineConfig(), CountingModel()), 60.0
        )
        assert "error" not in out, out.get("error")
        assert timeouts == []
        assert [m.frame_index for m in out["result"].messages] == list(range(1, len(ends) + 1))


class TestPipelineStress:
    def test_frames_survive_frequent_thread_switches(self, session_10, plumbing_model):
        # With the interpreter switching threads every 10 us, every frame
        # still arrives once, in order, as the batch detector finds it.
        expected = [(f.k, f.end) for f in run_detector(session_10.stream)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            src = FileReplaySource.from_stream(session_10.stream, pacing="unpaced")
            out = _run_with_deadline(
                lambda: run_pipeline(src, PipelineConfig(queue_capacity=2), plumbing_model), 60.0
            )
        finally:
            sys.setswitchinterval(old)
        result = out["result"]
        assert result.samples == len(session_10.stream)
        assert [(m.frame_index, m.timestamp_ms) for m in result.messages] == [
            (k, int(round(end / 53.0 * 1000.0))) for k, end in expected
        ]
