"""The four benchmark workloads: replay, live, offline and train.

Each workload builds its inputs from the seed (set-up), computes a reference
once, measures whole passes for the requested time, and checks every pass
against the reference. With a tracer it instead makes one untraced and one
traced pass, plus the single-thread chain for the streaming workloads, and
returns the per-layer metrics. Only public capstream functions are called;
spans are recorded here, around those calls, never inside capstream.
"""
from __future__ import annotations

import io
import json
import math
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import capstream as cs
from capstream.classifier import backward_and_update, one_hot

from tracing import Tracer

RATE = 53.0  # Hz, the detector defaults' sampling rate
# Replay queues: the smallest capacity PipelineConfig ever picks by default.
# Unpaced input saturates the classifier, so with it the pipeline reaches a
# steady backlog and frame latency is the saturated latency (capacity times
# service time) rather than a transient that grows with the session length.
REPLAY_QUEUE = 16
CHANCE = 0.1  # accuracy of guessing among the 10 gesture classes
_clock = time.perf_counter  # CLOCK_MONOTONIC on Linux, shared with pump.py


@dataclass(frozen=True)
class Sizes:
    """Input sizes. FULL is the benchmark; the self-test runs TINY."""

    replay_per_class: int = 30  # 300 gestures, 117k samples for seed 2024
    live_per_class: int = 10  # 100 gestures, about 40k samples
    live_speedup: float = 100.0  # 5,300 lines/s at 53 Hz
    offline_per_class: int = 40  # 400 gestures, larger than replay's session
    train_per_class: int = 50
    train_epochs: int = 2
    frame_length: int = 256
    setup_repeats: int = 5  # at least; more while their total is under setup_min_s
    setup_min_s: float = 1.0
    step_repeats: int = 8


FULL = Sizes()
TINY = Sizes(
    replay_per_class=1,
    live_per_class=1,
    offline_per_class=1,
    train_per_class=10,
    train_epochs=3,
    frame_length=64,
    setup_repeats=3,
    setup_min_s=0.0,
    step_repeats=2,
)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    e2e: dict[str, float] = field(default_factory=dict)
    info: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok, _ in self.checks)


@dataclass
class Ctx:
    seed: int
    seconds: float
    sizes: Sizes
    work_dir: Path
    tracer: Tracer | None = None

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn, inside a span when tracing."""
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.timed(name, fn, *args, **kwargs)


# ----------------------------------------------------------------------
# shared helpers


def pct(values, q: float) -> float:
    """Linear-interpolated percentile; q in [0, 100]."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(seconds: float, one_pass) -> list:
    """Whole passes, at least one, while another would still end within seconds."""
    results = []
    t0 = _clock()
    while True:
        results.append(one_pass(len(results)))
        elapsed = _clock() - t0
        if elapsed + elapsed / len(results) > seconds:
            return results


def timed_setup(ctx: Ctx, build):
    """Run build() repeatedly; returns (last result, median seconds).

    At least setup_repeats times, and more (up to 50) until the repeats add
    up to setup_min_s, so a short set-up is still the median of many.

    Set-up is what the program needs before the timed part: generated inputs,
    model and tensors. The reference the checks compare against is computed
    afterwards, once, and is not part of it.
    """
    sz = ctx.sizes
    times: list[float] = []
    while len(times) < sz.setup_repeats or (sum(times) < sz.setup_min_s and len(times) < 50):
        t0 = _clock()
        state = build()
        times.append(_clock() - t0)
    return state, statistics.median(times)


def wire_lines(values: np.ndarray, start: int = 0) -> list[bytes]:
    """Live wire lines ``index,v1,v2,v3,v4`` from index start, values at 6 decimals like the recording CSV."""
    v = values.T.tolist()
    return [f"{i},{a:.6f},{b:.6f},{c:.6f},{d:.6f}\n".encode("ascii") for i, (a, b, c, d) in enumerate(v, start)]


def six_decimals(values: np.ndarray) -> np.ndarray:
    """float(f"{v:.6f}") of every value: what load_recording and LiveByteSource read back.

    rint(v * 1e6) / 1e6 is that value unless v * 1e6 lies so close to a
    half-way point that its own rounding decides the digit; those few are
    redone with round(), which rounds the exact binary value as %.6f does.
    """
    scaled = values * 1e6
    out = np.rint(scaled) / 1e6
    near = np.abs(scaled - np.floor(scaled) - 0.5) < 1e-3
    out[near] = [round(v, 6) for v in values[near].tolist()]
    return out


def frame_end(msg, rate: float) -> int:
    """Recover the frame's last raw index from the message timestamp (ms)."""
    return int(round(msg.timestamp_ms * rate / 1000.0))


def compare_frames(reference: list[tuple[int, int]], got: list[tuple[int, int]]) -> tuple[int, int]:
    """(attempted, failed): results in order, each (frame_index, end) equal to the reference."""
    attempted = max(len(reference), len(got))
    matched = sum(1 for a, b in zip(reference, got) if a == b)
    return attempted, attempted - matched


def message_frames(messages, rate: float) -> list[tuple[int, int]]:
    return [(m.frame_index, frame_end(m, rate)) for m in messages]


def reference_frames(stream) -> list[tuple[int, int, int]]:
    """(k, start, end) of every frame the batch detector finds; the streaming reference."""
    return [(f.k, f.start, f.end) for f in cs.run_detector(stream)]


def reference_rates(frames: list[tuple[int, int, int]], events, iou_min: float = 0.8):
    """Detection and extraction counts from an independent greedy overlap matcher.

    Events are matched one-to-one to frames by descending overlap (ties by
    frame, then event order); an event is detected when matched, and
    correctly framed when its frame contains it or reaches iou_min.
    """
    fs = np.asarray([(s, e) for _, s, e in frames], dtype=np.int64).reshape(-1, 2)
    es = np.asarray([(ev.start, ev.end) for ev in events], dtype=np.int64).reshape(-1, 2)
    lo = np.maximum(fs[:, None, 0], es[None, :, 0])
    hi = np.minimum(fs[:, None, 1], es[None, :, 1])
    overlap = np.maximum(hi - lo + 1, 0)
    fi, ei = np.nonzero(overlap)
    order = np.lexsort((ei, fi, -overlap[fi, ei]))
    used_f: set[int] = set()
    used_e: set[int] = set()
    detected = correct = 0
    for f, e in zip(fi[order], ei[order]):
        if f in used_f or e in used_e:
            continue
        used_f.add(f)
        used_e.add(e)
        detected += 1
        inter = overlap[f, e]
        union = (fs[f, 1] - fs[f, 0] + 1) + (es[e, 1] - es[e, 0] + 1) - inter
        contains = fs[f, 0] <= es[e, 0] and fs[f, 1] >= es[e, 1]
        if contains or inter / union >= iou_min:
            correct += 1
    return detected, correct


class StampedSource:
    """Source wrapper that notes when each frame's closing sample is read."""

    def __init__(self, inner, ends: set[int]) -> None:
        self.inner = inner
        self.sampling_rate = inner.sampling_rate
        self.ends = ends
        self.read_at: dict[int, float] = {}

    def rows(self):
        ends, read_at, clock = self.ends, self.read_at, _clock
        for idx, row in self.inner.rows():
            if idx in ends:
                read_at[idx] = clock()
            yield idx, row


class StampedModel:
    """Model wrapper that notes when each prediction returns, in frame order."""

    def __init__(self, model) -> None:
        self.model = model
        self.done: list[float] = []

    def predict(self, tensor):
        pred = self.model.predict(tensor)
        self.done.append(_clock())
        return pred


class TracedSource:
    """Source wrapper that records one span per row read, under a parent span.

    Inside run_pipeline a read also waits for input, so these spans are kept
    apart (``runtime.pipeline_read``) from the chain's pure parse cost.
    """

    def __init__(self, inner, tracer: Tracer, parent: int) -> None:
        self.inner = inner
        self.sampling_rate = inner.sampling_rate
        self.tracer = tracer
        self.parent = parent

    def rows(self):
        clock, record, it = time.perf_counter_ns, self.tracer.record, iter(self.inner.rows())
        while True:
            t0 = clock()
            item = next(it, None)
            t1 = clock()
            if item is None:
                return
            record("runtime.pipeline_read", t0, t1, rid=item[0], parent=self.parent)
            yield item


class TracedModel:
    """Model wrapper that records one ``classifier.predict`` span per frame."""

    def __init__(self, model, tracer: Tracer, parent: int) -> None:
        self.model = model
        self.tracer = tracer
        self.parent = parent
        self.calls = 0

    def predict(self, tensor):
        self.calls += 1
        t0 = time.perf_counter_ns()
        pred = self.model.predict(tensor)
        self.tracer.record("classifier.predict", t0, time.perf_counter_ns(), rid=self.calls, parent=self.parent)
        return pred


def mean_us(tracer: Tracer, name: str) -> float:
    d = tracer.durations_s(name)
    return float(d.mean() * 1e6) if d.size else 0.0


def median_s(tracer: Tracer, name: str) -> float:
    d = tracer.durations_s(name)
    return float(np.median(d)) if d.size else 0.0


def chain(rows, model, rate: float, tracer: Tracer | None, decode: bool) -> tuple[list[tuple[int, int]], int]:
    """Single-thread baseline: conditioner -> detector -> tensor -> predict -> encode.

    Returns the (frame_index, end) of every message and the sample count;
    with a tracer, every call is a span.
    """
    cond = cs.StreamingConditioner(cs.DspConfig())
    det = cs.AdaptiveThresholdDetector(cs.DetectorConfig())
    out: list[tuple[int, int]] = []
    samples = 0
    clock = time.perf_counter_ns
    record = tracer.record if tracer is not None else None
    it = iter(rows)
    while True:
        t0 = clock()
        item = next(it, None)
        t1 = clock()
        if item is None:
            break
        idx, row = item
        samples += 1
        processed = cond.push(row)
        t2 = clock()
        frame = det.step(idx, processed) if processed is not None else None
        t3 = clock()
        if record is not None:
            record("runtime.read", t0, t1, rid=idx)
            record("dsp.push", t1, t2, rid=idx)
            if processed is not None:
                record("detector.step", t2, t3, rid=idx)
        if frame is None:
            continue
        t4 = clock()
        tensor = cs.frame_to_tensor(frame)
        t5 = clock()
        pred = model.predict(tensor)
        t6 = clock()
        msg = cs.CommandMessage.for_class(
            class_id=pred.class_id,
            frame_index=frame.k,
            timestamp_ms=int(round(frame.end / rate * 1000.0)),
            probability=float(pred.probabilities.max()),
        )
        t7 = clock()
        line = cs.encode_message(msg)
        t8 = clock()
        if decode:
            back = cs.decode_message(line)
            if back != msg:
                raise cs.ProtocolError(f"message {frame.k} did not round-trip")
        t9 = clock()
        if record is not None:
            record("classifier.frame_to_tensor", t4, t5, rid=frame.k)
            record("classifier.predict", t5, t6, rid=frame.k)
            record("protocol.encode", t7, t8, rid=frame.k)
            if decode:
                record("protocol.decode", t8, t9, rid=frame.k)
        out.append((msg.frame_index, frame_end(msg, rate)))
    return out, samples


def chain_layers(ctx: Ctx, rows_factory, model, reference, decode: bool, res: Outcome) -> None:
    """Single-thread baseline, untraced for its rate and traced for per-call costs."""
    t0 = _clock()
    got, samples = chain(rows_factory(), model, RATE, None, decode)
    wall = _clock() - t0
    res.layers["runtime.single_thread_samples_per_s"] = samples / wall
    check_stream(res, "single-thread chain", reference, got)
    got, samples = chain(rows_factory(), model, RATE, ctx.tracer, decode)
    check_stream(res, "traced single-thread chain", reference, got)
    tr = ctx.tracer
    res.layers.update(
        {
            "dsp.push_us": mean_us(tr, "dsp.push"),
            "dsp.samples": float(samples),
            "detector.step_us": mean_us(tr, "detector.step"),
            "detector.frames": float(len(got)),
            "classifier.frame_to_tensor_us": mean_us(tr, "classifier.frame_to_tensor"),
            "protocol.encode_us": mean_us(tr, "protocol.encode"),
            "protocol.decode_us": mean_us(tr, "protocol.decode"),
        }
    )


def check_stream(res: Outcome, what: str, reference, got) -> None:
    attempted, failed = compare_frames(reference, got)
    res.count(attempted, failed)
    res.check(f"{what}: messages equal run_detector", failed == 0, f"{failed}/{attempted} differ")


# ----------------------------------------------------------------------
# replay: unpaced closed loop, no socket


def replay(ctx: Ctx) -> Outcome:
    res = Outcome()

    def build():
        rec = ctx.call("simulate.generate_session", cs.generate_session, ctx.seed, ctx.sizes.replay_per_class, sampling_rate=RATE)
        return rec, cs.ClassifierModel.initialize("gru", seed=ctx.seed)

    (rec, model), setup_s = timed_setup(ctx, build)
    reference = [(k, end) for k, _, end in ctx.call("bench.reference", reference_frames, rec.stream)]
    ends = {end for _, end in reference}
    n = len(rec.stream)

    def one_pass(source, mdl):
        t0 = _clock()
        result = cs.run_pipeline(source, cs.PipelineConfig(queue_capacity=REPLAY_QUEUE), mdl)
        wall = _clock() - t0
        check_stream(res, "replay", reference, message_frames(result.messages, RATE))
        res.check("replay: every sample processed", result.samples == n, f"{result.samples}/{n}")
        return result, wall

    if ctx.tracer is None:
        def stamped_pass(_):
            src = StampedSource(cs.FileReplaySource.from_stream(rec.stream), ends)
            mdl = StampedModel(model)
            result, wall = one_pass(src, mdl)
            lat = [
                (done - src.read_at[frame_end(m, RATE)]) * 1000.0
                for m, done in zip(result.messages, mdl.done)
                if frame_end(m, RATE) in src.read_at
            ]
            return n / wall, lat

        passes = run_passes(ctx.seconds, stamped_pass)
        finish_e2e(res, setup_s, [rate for rate, _ in passes], [lat for _, lat in passes])
        return res

    tr = ctx.tracer
    _, base_wall = one_pass(cs.FileReplaySource.from_stream(rec.stream), model)
    with tr.span("runtime.run_pipeline") as sid:
        t0 = _clock()
        result = cs.run_pipeline(
            TracedSource(cs.FileReplaySource.from_stream(rec.stream), tr, sid),
            cs.PipelineConfig(queue_capacity=REPLAY_QUEUE),
            TracedModel(model, tr, sid),
        )
        wall = _clock() - t0
    check_stream(res, "traced replay", reference, message_frames(result.messages, RATE))
    pipeline_layers(tr, res, result, wall)
    res.layers["trace.overhead_frac"] = wall / base_wall - 1.0
    chain_layers(ctx, lambda: cs.FileReplaySource.from_stream(rec.stream).rows(), model, reference, False, res)
    return res


def pipeline_layers(tr: Tracer, res: Outcome, result, wall: float) -> None:
    predict = tr.durations_s("classifier.predict")
    res.layers.update(
        {
            "classifier.predict_ms_p50": pct(predict, 50) * 1000.0,
            "classifier.predict_ms_p90": pct(predict, 90) * 1000.0,
            "runtime.predict_busy_frac": float(predict.sum()) / wall,
            "runtime.max_latency_ms": result.max_latency_ms,
            "protocol.messages": float(len(result.messages)),
        }
    )


def finish_e2e(res: Outcome, setup_s: float, rates: list[float], latency_groups: list[list[float]]) -> None:
    """End-to-end metrics from the samples/s of each pass and groups of latencies (ms).

    Each latency percentile is the median over groups of the group's own
    percentile. replay passes one group per pass and live one per window of
    LIVE_WINDOW consecutive gestures, so a disturbed pass or window does not
    move the result; the batch workloads pass all their pass or train() times
    as one group.
    """
    res.e2e.update(
        {
            "setup_s": setup_s,
            "samples_per_s": statistics.median(rates),
            "latency_p50_ms": statistics.median(pct(g, 50) for g in latency_groups),
            "peak_rss_mb": peak_rss_mb(),
        }
    )
    # Printed, not bounded: on a shared VM a p90 moves with host stalls
    # more than with the program (see perfbench/README.md).
    res.info["latency_p90_ms"] = (statistics.median(pct(g, 90) for g in latency_groups), "ms")
    res.info["latency_samples"] = (float(sum(map(len, latency_groups))), "count")
    res.info["passes"] = (float(len(rates)), "count")


# ----------------------------------------------------------------------
# live: open loop at a fixed line rate, NDJSON over loopback TCP


PUMP = Path(__file__).resolve().parent / "pump.py"
# Part of a live run's measured time not spent streaming: the generator's
# start-up lead (0.3 s in live_pass) and the pipeline's start and drain.
LIVE_MARGIN_S = 1.0
LIVE_WINDOW = 50  # consecutive gestures per latency window


@dataclass
class PumpStats:
    """What the generator process reported: lateness and pipe backlog."""

    t0: float
    lag_max_s: float
    backlog_max_bytes: int
    backlog_first_third_bytes: float
    backlog_last_third_bytes: float


def live_pass(lines_path: Path, model, line_rate: float, tracer: Tracer | None = None):
    """One open-loop pass; returns (result, messages, receipt times, pump stats, wall).

    wall runs from the first line's due time to the pipeline's return.

    The generator (pump.py) is a separate process writing into a pipe that
    LiveByteSource reads; run_pipeline sends NDJSON over loopback TCP to
    consume() in a thread here, whose print_fn notes each receipt time.
    """
    ready = threading.Event()
    ports: list[int] = []
    receipts: list[float] = []
    box: dict = {}

    def consumer():
        try:
            box["messages"] = cs.consume(
                "127.0.0.1", 0, print_fn=lambda _line: receipts.append(_clock()),
                ready=ready, bound_port=ports, timeout=60.0,
            )
        except BaseException as exc:
            box["error"] = exc

    cthread = threading.Thread(target=consumer, name="perfbench-consume", daemon=True)
    cthread.start()
    if not ready.wait(10.0):
        raise RuntimeError("live pass: consumer did not start listening")
    # The schedule starts a moment after launch so the interpreter is up.
    t0 = _clock() + 0.3
    proc = subprocess.Popen(
        [sys.executable, str(PUMP), str(lines_path), repr(line_rate), repr(t0)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        cfg = cs.PipelineConfig(socket_addr=("127.0.0.1", ports[0]))
        source = cs.LiveByteSource(proc.stdout, sampling_rate=RATE)
        if tracer is None:
            result = cs.run_pipeline(source, cfg, model)
        else:
            with tracer.span("runtime.run_pipeline") as sid:
                result = cs.run_pipeline(TracedSource(source, tracer, sid), cfg, TracedModel(model, tracer, sid))
        wall = _clock() - t0
        if not result.messages:
            # The emitter connects on its first message; release consume()'s accept.
            socket.create_connection(("127.0.0.1", ports[0]), timeout=5.0).close()
        _, err = proc.communicate(timeout=30.0)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
        cthread.join(30.0)
    if cthread.is_alive():
        raise RuntimeError("live pass: consumer did not finish")
    if proc.returncode != 0:
        raise RuntimeError(f"live pass: generator exited {proc.returncode}: {err.decode(errors='replace')[-500:]}")
    if "error" in box:
        raise box["error"]
    stats = PumpStats(t0=t0, **json.loads(err.decode().strip().splitlines()[-1]))
    return result, box["messages"], receipts, stats, wall


def live(ctx: Ctx) -> Outcome:
    res = Outcome()
    sz = ctx.sizes
    line_rate = RATE * sz.live_speedup

    def build():
        rec = ctx.call("simulate.generate_session", cs.generate_session, ctx.seed, sz.live_per_class, sampling_rate=RATE)
        return rec, wire_lines(rec.stream.values), cs.ClassifierModel.initialize("gru", seed=ctx.seed)

    (rec, lines, model), setup_s = timed_setup(ctx, build)
    bytes_per_line = sum(map(len, lines)) / len(lines)
    ctx.work_dir.mkdir(parents=True, exist_ok=True)

    def prepare(n: int, name: str):
        """Write n wire lines for the generator: the session, repeated with
        indices running on. Returns (path, n, reference)."""
        session = rec.stream.values
        reps = -(-n // session.shape[1])
        stream = cs.RawStream(sampling_rate=RATE, values=six_decimals(np.tile(session, (1, reps))[:, :n]))
        reference = [(k, end) for k, _, end in ctx.call("bench.reference", reference_frames, stream)]
        path = ctx.work_dir / name
        with path.open("wb") as fh:
            for start in range(0, n, session.shape[1]):
                fh.write(b"".join(wire_lines(session[:, : n - start], start)))
        return path, n, reference

    def checked_pass(prepared, tracer=None):
        path, n_lines, reference = prepared
        result, received, receipts, pump, wall = live_pass(path, model, line_rate, tracer)
        got = message_frames(received, RATE)
        check_stream(res, "live", reference, got)
        res.check("live: every line processed", result.samples == n_lines, f"{result.samples}/{n_lines}")
        res.check("live: one receipt per message", len(receipts) == len(received))
        lat = [(t - (pump.t0 + end / line_rate)) * 1000.0 for t, (_, end) in zip(receipts, got)]
        growth = (pump.backlog_last_third_bytes - pump.backlog_first_third_bytes) / bytes_per_line
        # A backlog that grows by more than 50 ms of input over the run means
        # the pipeline fell behind the schedule.
        res.check("live: backlog did not grow", growth <= 0.05 * line_rate, f"{growth:.1f} lines")
        stats = {
            "runtime.gen_lag_max_ms": pump.lag_max_s * 1000.0,
            "runtime.backlog_max_lines": pump.backlog_max_bytes / bytes_per_line,
        }
        return result, wall, lat, stats

    if ctx.tracer is None:
        # One unbroken open-loop stream, at least the session, fills all but
        # LIVE_MARGIN_S of the measured time. Latency is then summarised over
        # windows of consecutive gestures.
        n = max(len(lines), int((ctx.seconds - LIVE_MARGIN_S) * line_rate))
        result, wall, lat, stats = checked_pass(prepare(n, "live-stream.txt"))
        finish_e2e(res, setup_s, [result.samples / wall], latency_windows(lat, LIVE_WINDOW))
        res.info["runtime.gen_lag_max_ms"] = (stats["runtime.gen_lag_max_ms"], "ms")
        return res

    tr = ctx.tracer
    session = prepare(len(lines), "live-lines.txt")
    _, _, base_lat, _ = checked_pass(session)
    result, wall, lat, stats = checked_pass(session, tr)
    pipeline_layers(tr, res, result, wall)
    res.layers.update(stats)
    # Paced input fixes the wall time, so tracing cost shows as latency.
    res.layers["trace.overhead_frac"] = pct(lat, 50) / pct(base_lat, 50) - 1.0
    chain_layers(ctx, lambda: cs.LiveByteSource(io.BytesIO(b"".join(lines)), RATE).rows(), model, session[2], True, res)
    res.layers["runtime.parse_us"] = mean_us(tr, "runtime.read")
    return res


def latency_windows(lat: list[float], size: int) -> list[list[float]]:
    """Consecutive gestures in len(lat) // size windows of nearly equal size (at least one)."""
    count = max(1, len(lat) // size)
    return [w.tolist() for w in np.array_split(np.asarray(lat), count)]


# ----------------------------------------------------------------------
# offline: simulate -> save -> load -> detect -> score -> save frames


def offline(ctx: Ctx) -> Outcome:
    res = Outcome()

    def build():
        return ctx.call("simulate.generate_session", cs.generate_session, ctx.seed, ctx.sizes.offline_per_class, sampling_rate=RATE)

    rec, setup_s = timed_setup(ctx, build)
    stored = cs.RawStream(sampling_rate=RATE, values=six_decimals(rec.stream.values))
    ref_frames = ctx.call("bench.reference", reference_frames, stored)
    ref_detected, ref_correct = reference_rates(ref_frames, rec.events)
    n, events = len(rec.stream), rec.events
    ctx.work_dir.mkdir(parents=True, exist_ok=True)

    def one_pass(i: int, c: Ctx):
        work = ctx.work_dir / f"offline-{i}"
        path = work / "session.csv"
        work.mkdir(parents=True, exist_ok=True)
        t0 = _clock()
        c.call("storage.save_recording", cs.storage.save_recording, path, rec.stream)
        stream = c.call("storage.load_recording", cs.storage.load_recording, path, sampling_rate=RATE)
        if c.tracer is None:
            frames = cs.run_detector(stream)
        else:
            processed = c.call("dsp.weighted_smoothed_difference", cs.weighted_smoothed_difference, stream)
            frames = c.call("detector.detect_frames", cs.detect_frames, processed)
        det = c.call("metrics.detection_rate", cs.detection_rate, frames, events)
        ext = c.call("metrics.extraction_rate", cs.extraction_rate, frames, events)
        index = c.call("storage.save_frames", cs.storage.save_frames, work / "frames", frames)
        wall = _clock() - t0

        got = [(f.k, f.start, f.end) for f in frames]
        attempted, failed = compare_frames(ref_frames, got)
        rates_ok = (
            det.detected_events == ref_detected
            and det.detection_rate == ref_detected / len(events)
            and ext.correctly_framed == ref_correct
            and ext.extraction_rate == (ref_correct / ref_detected if ref_detected else 0.0)
        )
        index_ok = [(f.k, f.start, f.end) for f in cs.storage.load_frame_index(index)] == got
        files_ok = len(list((work / "frames").glob("frame_*.csv"))) == len(frames)
        res.count(attempted + 2, failed + (not rates_ok) + (not (index_ok and files_ok)))
        res.check("offline: frames equal the reference", failed == 0, f"{failed}/{attempted} differ")
        res.check("offline: rates equal the reference", rates_ok, f"{det.detection_rate:.4f}, {ext.extraction_rate:.4f}")
        res.check("offline: frames_index round-trips", index_ok and files_ok)
        shutil.rmtree(work)
        return wall

    if ctx.tracer is None:
        walls = run_passes(ctx.seconds, lambda i: one_pass(i, ctx))
        finish_e2e(res, setup_s, [n / w for w in walls], [[w * 1000.0 for w in walls]])
        return res

    tr = ctx.tracer
    base = one_pass(0, replace(ctx, tracer=None))
    with tr.span("bench.offline_pass"):
        wall = one_pass(1, ctx)
    res.layers.update(
        {
            "storage.save_recording_s": median_s(tr, "storage.save_recording"),
            "storage.load_recording_s": median_s(tr, "storage.load_recording"),
            "storage.save_frames_s": median_s(tr, "storage.save_frames"),
            "dsp.condition_batch_s": median_s(tr, "dsp.weighted_smoothed_difference"),
            "detector.detect_frames_s": median_s(tr, "detector.detect_frames"),
            "detector.frames": float(len(ref_frames)),
            "metrics.detection_rate_s": median_s(tr, "metrics.detection_rate"),
            "metrics.extraction_rate_s": median_s(tr, "metrics.extraction_rate"),
            "trace.overhead_frac": wall / base - 1.0,
        }
    )
    return res


# ----------------------------------------------------------------------
# train: GRU then LSTM with the default TrainConfig and a fixed epoch count


def train(ctx: Ctx) -> Outcome:
    res = Outcome()
    sz = ctx.sizes

    def build():
        recs = ctx.call("simulate.generate_dataset", cs.generate_dataset, ctx.seed, sz.train_per_class, sampling_rate=RATE)
        return ctx.call("dataset.dataset_tensors", cs.dataset_tensors, recs, length=sz.frame_length)

    (x, y), setup_s = timed_setup(ctx, build)
    cfg = cs.TrainConfig(epochs=sz.train_epochs, seed=ctx.seed)
    # train() holds out round(count * val_fraction) frames of every class.
    n_train = sum(int(c) - int(round(c * cfg.val_fraction)) for c in np.unique(y, return_counts=True)[1])
    first_losses: dict[str, list[float]] = {}

    def train_one(cell: str, c: Ctx):
        t0 = _clock()
        _, hist = c.call(f"classifier.train_{cell}", cs.train, x, y, cfg, cell_type=cell)
        wall = _clock() - t0
        losses = hist.train_loss
        ok = (
            all(math.isfinite(v) for v in losses + hist.val_loss)
            and losses[-1] < losses[0]
            and bool(hist.val_acc)
            and hist.val_acc[-1] > CHANCE
        )
        same = first_losses.setdefault(cell, losses) == losses
        res.count(1, int(not (ok and same)))
        res.check(f"train {cell}: finite, falling loss, val acc above chance", ok,
                  f"loss {losses[0]:.3f} -> {losses[-1]:.3f}, val acc {hist.val_acc[-1] if hist.val_acc else 'none'}")
        res.check(f"train {cell}: same seed, same losses", same)
        return wall

    def one_pass(c: Ctx):
        return {cell: train_one(cell, c) for cell in ("gru", "lstm")}

    frames = n_train * sz.train_epochs
    if ctx.tracer is None:
        passes = run_passes(ctx.seconds, lambda _: one_pass(ctx))
        walls = [sum(p.values()) for p in passes]
        finish_e2e(res, setup_s, [2 * frames * sz.frame_length / w for w in walls], [[w * 1000.0 for w in walls]])
        for cell in ("gru", "lstm"):
            res.info[f"{cell}_frames_per_s"] = (frames * len(passes) / sum(p[cell] for p in passes), "1/s")
        return res

    tr = ctx.tracer
    base = one_pass(replace(ctx, tracer=None))
    with tr.span("bench.train_pass"):
        traced = one_pass(ctx)
    batch = x[: cfg.batch_size]
    batch_y = one_hot(y[: cfg.batch_size])
    for cell in ("gru", "lstm"):
        model = cs.ClassifierModel.initialize(cell, seed=ctx.seed)
        for i in range(sz.step_repeats):
            tr.timed(f"classifier.{cell}_step", backward_and_update, model, batch, batch_y, cfg.learning_rate, rid=i)
    gru = cs.ClassifierModel.initialize("gru", seed=ctx.seed)
    for i in range(sz.step_repeats):
        tr.timed("classifier.forward_batch", gru.forward, batch, rid=i)
    res.layers.update(
        {
            "classifier.gru_step_ms": median_s(tr, "classifier.gru_step") * 1000.0,
            "classifier.lstm_step_ms": median_s(tr, "classifier.lstm_step") * 1000.0,
            "classifier.forward_batch_ms": median_s(tr, "classifier.forward_batch") * 1000.0,
            "classifier.epoch_s": sum(traced.values()) / sz.train_epochs,
            "classifier.gru_frames_per_s": frames / base["gru"],
            "classifier.lstm_frames_per_s": frames / base["lstm"],
            "trace.overhead_frac": sum(traced.values()) / sum(base.values()) - 1.0,
        }
    )
    return res


WORKLOADS = {"replay": replay, "live": live, "offline": offline, "train": train}
