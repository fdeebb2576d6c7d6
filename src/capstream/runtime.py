"""Streaming orchestration: sources, the background pipeline, and the consumer.

The pipeline has two stages joined by one bounded frame queue: the calling
thread reads the source and runs conditioning + detection, and one worker
thread classifies each frame and emits its message. The emitter writes NDJSON
command messages to a TCP peer (with bounded reconnect backoff) and always
appends them to the log sink, so classification results survive peer loss.
Its backoff runs on the worker: with the peer down, each message can hold the
worker for the whole connect cycle, and once the frame queue fills, detection
waits for it.
"""
from __future__ import annotations

import logging
import math
import queue
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, IO, Iterator

import numpy as np

from .classifier import ClassifierModel, frame_to_tensor
from .detector import AdaptiveThresholdDetector, DetectorConfig
from .dsp import DspConfig, StreamingConditioner
from .errors import InvalidParameterError
from .protocol import CommandMessage, decode_message, encode_message, map_class_to_command
from .signals import NUM_SENSORS, RawStream, validate_sampling_rate
from .storage import load_recording

log = logging.getLogger(__name__)

PACING_MODES = ("unpaced", "realtime")

# How often a worker blocked on a queue looks at the stop event.
_POLL_S = 0.05

__all__ = [
    "FileReplaySource",
    "LiveByteSource",
    "PipelineConfig",
    "PipelineResult",
    "consume",
    "map_class_to_command",
    "run_pipeline",
]


class FileReplaySource:
    """Replays a recording CSV; realtime pacing sleeps to the sampling rate."""

    def __init__(
        self,
        path: str | Path,
        sampling_rate: float | None = None,
        pacing: str = "unpaced",
    ) -> None:
        self._init(load_recording(path, sampling_rate=sampling_rate), pacing)

    @classmethod
    def from_stream(cls, stream: RawStream, pacing: str = "unpaced") -> "FileReplaySource":
        src = cls.__new__(cls)
        src._init(stream, pacing)
        return src

    def _init(self, stream: RawStream, pacing: str) -> None:
        if pacing not in PACING_MODES:
            raise InvalidParameterError(f"pacing must be one of {PACING_MODES}")
        self.stream = stream
        self.pacing = pacing

    @property
    def sampling_rate(self) -> float:
        return self.stream.sampling_rate

    def rows(self) -> Iterator[tuple[int, tuple[float, float, float, float]]]:
        if self.pacing == "unpaced":
            return self.stream.rows()
        return self._paced_rows()

    def _paced_rows(self) -> Iterator[tuple[int, tuple[float, float, float, float]]]:
        period = 1.0 / self.stream.sampling_rate
        start = time.monotonic()
        for i, row in self.stream.rows():
            # Deadline schedule: sleep toward start + i*period so drift does
            # not accumulate across samples.
            target = start + i * period
            delay = target - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            yield i, row


class LiveByteSource:
    """Parses ASCII lines ``index,v1,v2,v3,v4`` from a byte stream.

    This is the wire shape a microcontroller bridge writes; blank lines are
    skipped, malformed lines and lines with a non-finite value (nan, inf) are
    logged and dropped.
    """

    def __init__(self, reader: IO[bytes], sampling_rate: float = 53.0) -> None:
        self.reader = reader
        self.sampling_rate = validate_sampling_rate(sampling_rate)

    def rows(self) -> Iterator[tuple[int, tuple[float, float, float, float]]]:
        for raw in self.reader:
            line = raw.strip()
            if not line:
                continue
            parts = line.split(b",")
            if len(parts) != 1 + NUM_SENSORS:
                log.warning("live source: dropped malformed line %r", raw[:60])
                continue
            try:
                idx = int(parts[0])
                vals = tuple(float(p) for p in parts[1:])
            except ValueError:
                log.warning("live source: dropped unparsable line %r", raw[:60])
                continue
            if not all(math.isfinite(v) for v in vals):
                log.warning("live source: dropped non-finite line %r", raw[:60])
                continue
            yield idx, vals


@dataclass
class PipelineConfig:
    dsp: DspConfig = field(default_factory=DspConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    socket_addr: tuple[str, int] | None = None
    log_path: str | Path | None = None
    queue_capacity: int | None = None
    connect_attempts: int = 5
    connect_backoff_s: float = 0.1

    def __post_init__(self) -> None:
        # capacity 0 would make queue.Queue unbounded, so detection would never wait.
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise InvalidParameterError(f"queue_capacity must be None or >= 1, got {self.queue_capacity}")
        if self.connect_attempts < 1:
            raise InvalidParameterError(f"connect_attempts must be >= 1, got {self.connect_attempts}")
        if not self.connect_backoff_s >= 0:
            raise InvalidParameterError(f"connect_backoff_s must be >= 0, got {self.connect_backoff_s}")

    def capacity_for(self, sampling_rate: float) -> int:
        if self.queue_capacity is not None:
            return self.queue_capacity
        return max(16, int(4 * sampling_rate))


@dataclass
class PipelineResult:
    messages: list[CommandMessage]
    frames: int
    samples: int
    wall_seconds: float
    max_latency_ms: float
    socket_delivered: int


class _Emitter:
    """Socket writer with bounded reconnect backoff plus an always-on log sink."""

    def __init__(self, cfg: PipelineConfig) -> None:
        self.cfg = cfg
        self.sock: socket.socket | None = None
        self.delivered = 0
        self._log_fh = open(cfg.log_path, "a") if cfg.log_path else None

    def _connect(self) -> socket.socket | None:
        assert self.cfg.socket_addr is not None
        delay = self.cfg.connect_backoff_s
        for attempt in range(self.cfg.connect_attempts):
            try:
                return socket.create_connection(self.cfg.socket_addr, timeout=5.0)
            except OSError as exc:
                log.warning(
                    "emitter: connect attempt %d/%d failed: %s",
                    attempt + 1,
                    self.cfg.connect_attempts,
                    exc,
                )
                time.sleep(delay)
                delay = min(delay * 2, 2.0)
        return None

    def emit(self, msg: CommandMessage) -> None:
        line = encode_message(msg)
        if self._log_fh is not None:
            self._log_fh.write(line)
            self._log_fh.flush()
        if self.cfg.socket_addr is None:
            return
        for _ in range(2):  # current connection, then one reconnect cycle
            if self.sock is None:
                self.sock = self._connect()
                if self.sock is None:
                    log.error("emitter: giving up on socket for this message")
                    return
            try:
                self.sock.sendall(line.encode("utf-8"))
                self.delivered += 1
                return
            except OSError as exc:
                log.warning("emitter: peer lost (%s), reconnecting", exc)
                try:
                    self.sock.close()
                finally:
                    self.sock = None

    def close(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            finally:
                self.sock = None
        if self._log_fh is not None:
            self._log_fh.close()
            self._log_fh = None


class _Stopped(Exception):
    """The calling thread stops feeding because the worker failed."""


def run_pipeline(
    source: FileReplaySource | LiveByteSource,
    cfg: PipelineConfig,
    model: ClassifierModel,
) -> PipelineResult:
    """Drive source -> conditioning+detection -> classification+emission.

    The calling thread reads the source, conditions and detects; one worker
    thread classifies each frame and emits its message. A full frame queue
    throttles detection rather than dropping samples. Rows are buffered up
    to the detector's next_emit_index and fed as one block, so no frame is
    held past the row that closes it. Returns once the source ends and the
    last message is emitted; the first error on either side stops both and
    is raised here, after the worker has ended.
    """
    rate = source.sampling_rate
    frame_q: queue.Queue = queue.Queue(maxsize=cfg.capacity_for(rate))
    stop = threading.Event()
    t_start = time.monotonic()
    samples = 0
    max_latency = 0.0
    messages: list[CommandMessage] = []
    errors: list[BaseException] = []
    emitter = _Emitter(cfg)

    def classify_and_emit() -> None:
        nonlocal max_latency
        try:
            while not stop.is_set():
                try:
                    item = frame_q.get(timeout=_POLL_S)
                except queue.Empty:
                    continue
                if item is None:
                    return
                frame, t_emit = item
                pred = model.predict(frame_to_tensor(frame))
                msg = CommandMessage.for_class(
                    class_id=pred.class_id,
                    frame_index=frame.k,
                    timestamp_ms=int(round(frame.end / rate * 1000.0)),
                    probability=float(pred.probabilities.max()),
                )
                emitter.emit(msg)
                messages.append(msg)
                max_latency = max(max_latency, (time.monotonic() - t_emit) * 1000.0)
        except BaseException as exc:  # raised by run_pipeline
            errors.append(exc)
            stop.set()
        finally:
            emitter.close()

    def put(item) -> None:
        while not stop.is_set():
            try:
                frame_q.put(item, timeout=_POLL_S)
                return
            except queue.Full:
                pass
        raise _Stopped

    conditioner = StreamingConditioner(cfg.dsp)
    detector = AdaptiveThresholdDetector(cfg.detector)
    rows: list = []  # flat raw rows expected - len(rows) // 4 .. expected - 1
    expected = None
    horizon = detector.next_emit_index

    def flush() -> None:
        nonlocal samples, horizon
        block = np.array(rows, dtype=np.float64).reshape(-1, NUM_SENSORS).T
        processed = conditioner.push_block(block)
        samples += block.shape[1]
        rows.clear()
        # The processed columns belong to the last rows of the block.
        for frame in detector.push_block(expected - processed.shape[1], processed):
            put((frame, time.monotonic()))
        horizon = detector.next_emit_index
        if stop.is_set():
            raise _Stopped

    # Daemon thread: if the caller is interrupted while joining it, a worker
    # stuck on the socket cannot keep the process alive.
    worker = threading.Thread(target=classify_and_emit, name="capstream-classify", daemon=True)
    worker.start()
    try:
        for idx, row in source.rows():
            if idx != expected and expected is not None:
                # A gap: feed what is buffered, then the stray row on its
                # own, so the detector reports it as a per-row feed would.
                if rows:
                    flush()
                horizon = idx
            rows.extend(row)
            expected = idx + 1
            if idx >= horizon:
                flush()
        if rows:
            flush()
        put(None)
    except _Stopped:
        pass  # the worker failed; its error is raised below
    except BaseException as exc:
        errors.append(exc)
        stop.set()
    worker.join()
    if errors:
        raise errors[0]
    wall = time.monotonic() - t_start
    log.info(
        "pipeline done: %d samples, %d frames, %.2fs wall, max latency %.1f ms",
        samples,
        len(messages),
        wall,
        max_latency,
    )
    return PipelineResult(
        messages=messages,
        frames=len(messages),
        samples=samples,
        wall_seconds=wall,
        max_latency_ms=max_latency,
        socket_delivered=emitter.delivered,
    )


def consume(
    host: str,
    port: int,
    max_messages: int | None = None,
    print_fn: Callable[[str], None] | None = print,
    ready: threading.Event | None = None,
    bound_port: list[int] | None = None,
    timeout: float | None = None,
) -> list[CommandMessage]:
    """Listen for one producer connection and print each command message.

    Malformed lines are logged and skipped; the loop ends on stream end or
    after max_messages. Returns everything that parsed.
    """
    received: list[CommandMessage] = []
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as server:
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((host, port))
        server.listen(1)
        if timeout is not None:
            server.settimeout(timeout)
        if bound_port is not None:
            bound_port.append(server.getsockname()[1])
        if ready is not None:
            ready.set()
        conn, peer = server.accept()
        log.info("consume: producer connected from %s", peer)
        with conn, conn.makefile("rb") as fh:
            for raw in fh:
                if not raw.strip():
                    continue
                try:
                    msg = decode_message(raw)
                except Exception as exc:
                    log.error("consume: dropped malformed message: %s", exc)
                    continue
                received.append(msg)
                if print_fn is not None:
                    print_fn(f"{msg.label} -> {msg.command}")
                if max_messages is not None and len(received) >= max_messages:
                    break
    return received
