"""Streaming orchestration: sources, the pipeline, and the consumer.

run_pipeline runs on the calling thread: it reads the source, conditions and
detects, and classifies each frame and emits its message as soon as the
detector returns it. The emitter writes NDJSON command messages to a TCP peer
and always appends them to the log sink, so classification results survive
peer loss. Its connect backoff runs on that one thread, so after a failed
connect cycle it leaves the socket alone for _RETRY_AFTER_S rather than
stalling the read of every later message.
"""
from __future__ import annotations

import logging
import math
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

# After a connect cycle fails, how long the emitter leaves the socket alone.
_RETRY_AFTER_S = 30.0

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
    """Pipeline settings.

    queue_capacity is validated but read by nothing: the pipeline has no
    queue, since frames are classified on the thread that detects them. It
    stays only because perfbench's replay workload still passes it, and goes
    when the benchmark stops passing it.
    """

    dsp: DspConfig = field(default_factory=DspConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    socket_addr: tuple[str, int] | None = None
    log_path: str | Path | None = None
    queue_capacity: int | None = None
    connect_attempts: int = 5
    connect_backoff_s: float = 0.1

    def __post_init__(self) -> None:
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise InvalidParameterError(f"queue_capacity must be None or >= 1, got {self.queue_capacity}")
        if self.connect_attempts < 1:
            raise InvalidParameterError(f"connect_attempts must be >= 1, got {self.connect_attempts}")
        if not self.connect_backoff_s >= 0:
            raise InvalidParameterError(f"connect_backoff_s must be >= 0, got {self.connect_backoff_s}")


@dataclass
class PipelineResult:
    """What a run did. max_latency_ms is the longest time from the detector
    returning a frame to that frame's message being emitted."""

    messages: list[CommandMessage]
    frames: int
    samples: int
    wall_seconds: float
    max_latency_ms: float
    socket_delivered: int


class _Emitter:
    """Socket writer with bounded reconnect backoff plus an always-on log sink.

    A connect cycle that fails opens a circuit breaker: for _RETRY_AFTER_S the
    messages go to the log sink only, and the next message after that tries
    the socket again.
    """

    def __init__(self, cfg: PipelineConfig) -> None:
        self.cfg = cfg
        self.sock: socket.socket | None = None
        self.delivered = 0
        self._retry_at = 0.0  # time.monotonic() before which the socket is skipped
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
        if self.cfg.socket_addr is None or time.monotonic() < self._retry_at:
            return
        for _ in range(2):  # current connection, then one reconnect cycle
            if self.sock is None:
                self.sock = self._connect()
                if self.sock is None:
                    self._retry_at = time.monotonic() + _RETRY_AFTER_S
                    log.error("emitter: peer unreachable; log sink only for %.0f s", _RETRY_AFTER_S)
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


def run_pipeline(
    source: FileReplaySource | LiveByteSource,
    cfg: PipelineConfig,
    model: ClassifierModel,
) -> PipelineResult:
    """Drive source -> conditioning + detection -> classification -> emission.

    Everything runs on the calling thread. Rows are buffered up to the
    detector's next_emit_index and fed as one block, so no frame is held past
    the row that closes it; each frame the detector returns is classified and
    its message emitted before the next row is read. Returns once the source
    ends; an error in any stage propagates to the caller.
    """
    rate = source.sampling_rate
    t_start = time.monotonic()
    samples = 0
    max_latency = 0.0
    messages: list[CommandMessage] = []
    conditioner = StreamingConditioner(cfg.dsp)
    detector = AdaptiveThresholdDetector(cfg.detector)
    rows: list = []  # flat raw rows expected - len(rows) // 4 .. expected - 1
    expected = None
    horizon = detector.next_emit_index
    emitter = _Emitter(cfg)

    def flush() -> None:
        nonlocal samples, horizon, max_latency
        block = np.array(rows, dtype=np.float64).reshape(-1, NUM_SENSORS).T
        processed = conditioner.push_block(block)
        samples += block.shape[1]
        rows.clear()
        # The processed columns belong to the last rows of the block.
        frames = detector.push_block(expected - processed.shape[1], processed)
        t_detected = time.monotonic()
        for frame in frames:
            pred = model.predict(frame_to_tensor(frame))
            msg = CommandMessage.for_class(
                class_id=pred.class_id,
                frame_index=frame.k,
                timestamp_ms=int(round(frame.end / rate * 1000.0)),
                probability=float(pred.probabilities.max()),
            )
            emitter.emit(msg)
            messages.append(msg)
            max_latency = max(max_latency, (time.monotonic() - t_detected) * 1000.0)
        horizon = detector.next_emit_index

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
    finally:
        emitter.close()
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
