"""capstream command line: every pipeline stage as a subcommand.

Each subcommand registers only the options its handler reads. The detector
and dsp flags fall back to ``--config`` file values (key=value lines with
module-prefixed keys, e.g. ``detector.phi=20``) and then to the built-in
defaults, so experiment configs are diff-friendly and flags win.

The model file records the frame geometry it was trained on: the pads and
the dsp settings. ``train`` takes the flags that set it, ``eval`` cuts
frames with the model's geometry and takes no tuning flag, and ``run``
takes only the detector flags that do not change a frame; a geometry key
in its ``--config`` that disagrees with the model exits 2.
"""
from __future__ import annotations

import argparse
import csv
import logging
import math
import os
import socket as socket_module
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from . import classifier, dataset, dsp, metrics, runtime, simulate, storage
from .detector import DetectorConfig, detect_frames
from .errors import CapstreamError, ConfigError, InvalidParameterError
from .signals import validate_sampling_rate

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

_DETECTOR_DEFAULTS = DetectorConfig()
_DETECTOR_KEYS = (
    ("phi", float, _DETECTOR_DEFAULTS.phi, "added to the window's mean excess over the offset at each threshold update; not a floor [V]"),
    ("update_period", int, _DETECTOR_DEFAULTS.update_period, "offset/threshold refresh period [samples]"),
    ("pre_pad", int, _DETECTOR_DEFAULTS.pre_pad, "frame padding before the upward crossing [samples]"),
    ("post_pad", int, _DETECTOR_DEFAULTS.post_pad, "frame padding after the downward crossing [samples]"),
    ("safety_period", int, _DETECTOR_DEFAULTS.safety_period, "max dwell above threshold before recompute [samples]"),
    ("init_period", int, _DETECTOR_DEFAULTS.init_period, "offset initialization span [samples]"),
    ("warmup_period", int, _DETECTOR_DEFAULTS.warmup_period, "no emissions before this index [samples]"),
    ("max_crossing_window", int, _DETECTOR_DEFAULTS.max_crossing_window, "crisp crossing-pair dwell bound [samples]"),
)

_DSP_DEFAULTS = dsp.DspConfig()
# The CLI sets one sensitivity for all four sensors.
_DSP_KEYS = (
    ("sensitivity", float, _DSP_DEFAULTS.sensitivity[0], "weight on the current vs previous sample [0..1]"),
    ("smooth_window", int, _DSP_DEFAULTS.smooth_window, "moving-average window [samples]"),
)
_CONFIG_KEYS = {f"detector.{k[0]}" for k in _DETECTOR_KEYS} | {f"dsp.{k[0]}" for k in _DSP_KEYS}
# The detector keys that a model's FrameGeometry records; with the dsp keys
# they shape a frame tensor. The others decide which spans become frames.
_PAD_KEYS = tuple(k for k in _DETECTOR_KEYS if k[0] in ("pre_pad", "post_pad"))
_SPAN_KEYS = tuple(k for k in _DETECTOR_KEYS if k not in _PAD_KEYS)

# The tuning flags of each subcommand that takes any, as (table, keys) pairs.
_TUNING_FLAGS = {
    "process": (("dsp", _DSP_KEYS),),
    "detect": (("detector", _DETECTOR_KEYS), ("dsp", _DSP_KEYS)),
    "train": (("detector", _PAD_KEYS), ("dsp", _DSP_KEYS)),
    "run": (("detector", _SPAN_KEYS),),
}


def _add_tuning_flags(parser: argparse.ArgumentParser, tables) -> None:
    """--config and one flag per key of each (table, keys) pair."""
    parser.add_argument("--config", default=None, help="key=value config file [path] (default: none)")
    for table, keys in tables:
        for name, typ, default, help_text in keys:
            parser.add_argument(
                f"--{name.replace('_', '-')}",
                dest=f"{table}_{name}",
                type=typ,
                default=None,
                help=f"{table}: {help_text} (default: {default})",
            )


def _resolve(explicit, file_cfg: dict[str, str], key: str, typ):
    """The flag's value, else the config file's, else None."""
    if explicit is not None:
        return explicit
    if key in file_cfg:
        try:
            return typ(file_cfg[key])
        except ValueError as exc:
            raise ConfigError(f"config key {key}: {exc}") from None
    return None


def _load_config_file(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    file_cfg = storage.load_manifest(p)
    for key in file_cfg:
        # Keys without a table prefix, such as manifest keys, pass through.
        if key.startswith(("detector.", "dsp.")) and key not in _CONFIG_KEYS:
            raise ConfigError(f"config key {key}: no such detector or dsp setting")
    return file_cfg


def _tuned(base, table: str, keys, args, file_cfg: dict[str, str]):
    """base with each key set by its flag or config-file value, if either is given."""
    changes = {}
    for name, typ, _, _ in keys:
        value = _resolve(getattr(args, f"{table}_{name}", None), file_cfg, f"{table}.{name}", typ)
        if value is not None:
            changes[name] = value
    if "sensitivity" in changes:
        changes["sensitivity"] = (changes["sensitivity"],) * 4
    return replace(base, **changes)


def _detector_config(args, file_cfg: dict[str, str], base: DetectorConfig = _DETECTOR_DEFAULTS) -> DetectorConfig:
    return _tuned(base, "detector", _DETECTOR_KEYS, args, file_cfg)


def _dsp_config(args, file_cfg: dict[str, str], base: dsp.DspConfig = _DSP_DEFAULTS) -> dsp.DspConfig:
    return _tuned(base, "dsp", _DSP_KEYS, args, file_cfg)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capstream",
        description="Capacitive gesture streaming: simulate, condition, detect, classify, serve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate synthetic recordings")
    p.add_argument("--seed", type=int, default=0, help="RNG seed [integer] (default: 0)")
    p.add_argument("--mode", choices=("dataset", "session", "idle"), default="dataset",
                   help="dataset: one gesture per file; session: one long multi-gesture file; idle: background only [mode] (default: dataset)")
    p.add_argument("--classes", type=int, default=10, help="number of gesture classes, ids 1..N [count] (default: 10)")
    p.add_argument("--per-class", type=int, default=100, help="recordings or events per class [count] (default: 100)")
    p.add_argument("--rate", type=float, default=53.0, help="sampling rate [Hz] (default: 53.0)")
    p.add_argument("--idle-seconds", type=float, default=600.0, help="idle stream length for --mode idle [seconds] (default: 600.0)")
    p.add_argument("--out", required=True, help="output directory [path] (required)")

    p = sub.add_parser("process", help="condition a recording and write the processed CSV")
    p.add_argument("recording", help="input recording CSV [path]")
    p.add_argument("--out", default=None, help="output CSV [path] (default: stdout)")
    _add_tuning_flags(p, _TUNING_FLAGS["process"])

    p = sub.add_parser("fft", help="magnitude spectrum and band statistics of one channel")
    p.add_argument("recording", help="input recording CSV [path]")
    p.add_argument("--channel", type=int, default=1, help="sensor channel to analyze [1..4] (default: 1)")
    p.add_argument("--rate", type=float, default=None, help="sampling rate override [Hz] (default: manifest or 53.0)")
    p.add_argument("--bands", default=None,
                   help="colon ranges like 1:100,100:200 [Hz] (default: reference bands clipped to Nyquist)")
    p.add_argument("--out", default=None, help="spectrum CSV freq,magnitude [path] (default: stdout)")

    p = sub.add_parser("detect", help="run the adaptive-threshold detector over a recording")
    p.add_argument("recording", help="input recording CSV [path]")
    p.add_argument("--out-dir", default=None, help="directory for frame CSV blocks and index [path] (default: <recording>.frames)")
    _add_tuning_flags(p, _TUNING_FLAGS["detect"])

    p = sub.add_parser("train", help="train the gesture classifier on a dataset directory")
    p.add_argument("--seed", type=int, default=0, help="RNG seed [integer] (default: 0)")
    p.add_argument("--data", required=True, help="dataset directory from simulate [path] (required)")
    p.add_argument("--cell", choices=classifier.CELL_TYPES, default="gru", help="recurrent cell type [name] (default: gru)")
    p.add_argument("--out", required=True, help="output model file [path] (required)")
    p.add_argument("--epochs", type=int, default=60, help="training epochs [count] (default: 60)")
    p.add_argument("--batch-size", type=int, default=10, help="examples per update [count] (default: 10)")
    p.add_argument("--learning-rate", type=float, default=0.005, help="gradient-descent step [1/step] (default: 0.005)")
    p.add_argument("--hidden", type=int, default=20, help="recurrent hidden units [count] (default: 20)")
    p.add_argument("--frame-length", type=int, default=classifier.DEFAULT_FRAME_LENGTH,
                   help="resampled frame length, recorded in the model file [samples] "
                        f"(default: {classifier.DEFAULT_FRAME_LENGTH})")
    _add_tuning_flags(p, _TUNING_FLAGS["train"])

    p = sub.add_parser("eval", help="evaluate a trained model on a dataset directory, cutting frames as the model records")
    p.add_argument("--model", required=True, help="model file from train [path] (required)")
    p.add_argument("--data", required=True, help="dataset directory [path] (required)")
    p.add_argument("--csv-out", default=None, help="metrics CSV [path] (default: stdout table only)")

    p = sub.add_parser("eval-detect", help="score emitted frames against ground-truth labels")
    p.add_argument("frames", help="frames_index.csv from detect [path]")
    p.add_argument("labels", help="labels CSV [path]")
    p.add_argument("--iou-min", type=float, default=0.8, help="IoU threshold for correct extraction [0..1] (default: 0.8)")
    p.add_argument("--csv-out", default=None, help="report CSV [path] (default: stdout table only)")

    p = sub.add_parser("run", help="replay or ingest a stream and emit command messages")
    p.add_argument("--source", required=True,
                   help="file:PATH to replay, or live:HOST:PORT for a byte stream [spec] (required)")
    p.add_argument("--model", required=True, help="trained model file [path] (required)")
    p.add_argument("--socket", default="127.0.0.1:7171", help="command sink endpoint [host:port] (default: 127.0.0.1:7171)")
    p.add_argument("--no-socket", action="store_true", help="log-only mode: skip the socket sink (default: off)")
    p.add_argument("--unpaced", action="store_true", help="replay at full speed instead of the sampling rate (default: off)")
    p.add_argument("--rate", type=float, default=None, help="sampling rate override [Hz] (default: manifest or 53.0)")
    p.add_argument("--log", default=None, help="NDJSON message log [path] (default: none)")
    _add_tuning_flags(p, _TUNING_FLAGS["run"])

    p = sub.add_parser("consume", help="listen for command messages and print them")
    p.add_argument("--listen", default="127.0.0.1:7171", help="listen endpoint [host:port] (default: 127.0.0.1:7171)")
    p.add_argument("--max-messages", type=int, default=None, help="stop after N messages [count] (default: unlimited)")

    return parser


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ConfigError(f"endpoint must look like host:port, got {text!r}")
    if int(port) > 65535:
        raise ConfigError(f"endpoint port must be 0..65535, got {text!r}")
    return host, int(port)


def _cmd_simulate(args, file_cfg) -> int:
    params = simulate.PhysicsParams()
    out = Path(args.out)
    manifest = storage.manifest_entries(args.seed, args.rate, params, mode=args.mode)
    if args.mode == "dataset":
        recs = simulate.generate_dataset(
            args.seed, args.per_class, params, args.rate, classes=tuple(range(1, args.classes + 1))
        )
        storage.save_dataset(out, recs, manifest | {"n_per_class": args.per_class})
        print(f"wrote {len(recs)} recordings to {out}")
    elif args.mode == "session":
        rec = simulate.generate_session(
            args.seed, args.per_class, params, args.rate, classes=tuple(range(1, args.classes + 1))
        )
        out.mkdir(parents=True, exist_ok=True)
        rec_path = out / "session.csv"
        storage.save_recording(rec_path, rec.stream)
        storage.save_labels(storage.labels_path_for(rec_path), rec.events)
        storage.save_manifest(out / storage.MANIFEST_NAME, manifest | {"events": len(rec.events)})
        print(f"wrote session with {len(rec.events)} events to {rec_path}")
    else:
        if not 0 < args.idle_seconds < math.inf:
            raise ConfigError(f"--idle-seconds must be finite and > 0, got {args.idle_seconds}")
        length = int(round(args.idle_seconds * validate_sampling_rate(args.rate)))
        stream = simulate.generate_idle(args.seed, length, params, args.rate)
        out.mkdir(parents=True, exist_ok=True)
        rec_path = out / "idle.csv"
        storage.save_recording(rec_path, stream)
        storage.save_manifest(out / storage.MANIFEST_NAME, manifest | {"length": length})
        print(f"wrote {length} idle samples to {rec_path}")
    return EXIT_OK


def _cmd_process(args, file_cfg) -> int:
    stream = storage.load_recording(args.recording)
    processed = dsp.weighted_smoothed_difference(stream, _dsp_config(args, file_cfg))
    storage.write_samples(args.out or sys.stdout, processed.values, processed.start_index)
    return EXIT_OK


def _open_out(out_path):
    """The file at out_path opened for writing CSV, or stdout without a path."""
    return open(out_path, "w", newline="") if out_path else nullcontext(sys.stdout)


def _write_csv(out_path, header, rows) -> None:
    with _open_out(out_path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_fft(args, file_cfg) -> int:
    stream = storage.load_recording(args.recording, sampling_rate=args.rate)
    if not 1 <= args.channel <= 4:
        raise ConfigError(f"--channel must be 1..4, got {args.channel}")
    signal = stream.channel(args.channel)
    spec = dsp.fft(signal, stream.sampling_rate)
    _write_csv(
        args.out,
        ["freq", "magnitude"],
        [[f"{f:.6f}", f"{m:.6f}"] for f, m in zip(spec.frequencies, spec.magnitudes)],
    )
    nyquist = stream.sampling_rate / 2
    if args.bands:
        bands = []
        for part in args.bands.split(","):
            lo, _, hi = part.partition(":")
            try:
                bands.append((float(lo), float(hi)))
            except ValueError:
                raise ConfigError(f"--bands: expected lo:hi in Hz, got {part!r}") from None
    else:
        bands = [(lo, hi) for lo, hi in dsp.DEFAULT_BANDS if hi <= nyquist]
        if not bands:
            bands = [(1.0, float(int(nyquist)))]
    stats = dsp.band_statistics(signal, bands, stream.sampling_rate)
    writer = csv.writer(sys.stdout)
    writer.writerow(["band_lo_hz", "band_hi_hz", "mean", "std"])
    for st in stats:
        writer.writerow([st.band[0], st.band[1], f"{st.mean:.4f}", f"{st.std:.4f}"])
    return EXIT_OK


def _cmd_detect(args, file_cfg) -> int:
    stream = storage.load_recording(args.recording)
    det_cfg = _detector_config(args, file_cfg)
    dsp_cfg = _dsp_config(args, file_cfg)
    processed = dsp.weighted_smoothed_difference(stream, dsp_cfg)
    frames = detect_frames(processed, det_cfg)
    out_dir = Path(args.out_dir) if args.out_dir else Path(str(args.recording) + ".frames")
    index_path = storage.save_frames(out_dir, frames)
    print(f"{len(frames)} frames -> {index_path}")
    return EXIT_OK


def _cmd_train(args, file_cfg) -> int:
    recs = storage.load_dataset(args.data)
    det_cfg = _detector_config(args, file_cfg)
    dsp_cfg = _dsp_config(args, file_cfg)
    tensors, labels = dataset.dataset_tensors(recs, dsp_cfg, det_cfg, length=args.frame_length)
    cfg = classifier.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        seed=args.seed,
    )
    model, history = classifier.train(
        tensors, labels, cfg, cell_type=args.cell, hidden_size=args.hidden,
        geometry=classifier.FrameGeometry.of(dsp_cfg, det_cfg),
    )
    classifier.save_model(model, args.out)
    print(f"trained {args.cell} on {len(labels)} frames: final val_acc={history.val_acc[-1]:.4f} -> {args.out}")
    return EXIT_OK


def _cmd_eval(args, file_cfg) -> int:
    model = classifier.load_model(args.model)
    recs = storage.load_dataset(args.data)
    dsp_cfg, det_cfg = model.geometry.configs()
    tensors, labels = dataset.dataset_tensors(recs, dsp_cfg, det_cfg, length=model.frame_length)
    report = classifier.evaluate(model, tensors, labels)
    print(f"accuracy: {report.accuracy:.4f}")
    print(f"macro precision/recall/f1: {report.macro_precision:.4f} "
          f"{report.macro_recall:.4f} {report.macro_f1:.4f}")
    print("class,precision,recall,f1")
    for c in range(model.n_classes):
        print(f"{c + 1},{report.precision[c]:.4f},{report.recall[c]:.4f},{report.f1[c]:.4f}")
    if args.csv_out:
        rows = [
            [c + 1, f"{report.precision[c]:.6f}", f"{report.recall[c]:.6f}", f"{report.f1[c]:.6f}"]
            for c in range(model.n_classes)
        ]
        rows.append(["macro", f"{report.macro_precision:.6f}", f"{report.macro_recall:.6f}", f"{report.macro_f1:.6f}"])
        rows.append(["accuracy", f"{report.accuracy:.6f}", "", ""])
        _write_csv(args.csv_out, ["class", "precision", "recall", "f1"], rows)
    return EXIT_OK


def _cmd_eval_detect(args, file_cfg) -> int:
    frames = storage.load_frame_index(args.frames)
    events = storage.load_labels(args.labels)
    det_rep = metrics.detection_rate(frames, events)
    ext_rep = metrics.extraction_rate(frames, events, iou_min=args.iou_min)
    print(f"detection_rate: {det_rep.detection_rate:.4f} "
          f"({det_rep.detected_events}/{det_rep.total_events})")
    print(f"extraction_rate: {ext_rep.extraction_rate:.4f} "
          f"({ext_rep.correctly_framed}/{ext_rep.total_detected} at iou>={ext_rep.iou_min})")
    print(f"containment: {ext_rep.containment_count}  iou_pass: {ext_rep.iou_pass_count}")
    if args.csv_out:
        rows = [
            ["detection_rate", f"{det_rep.detection_rate:.6f}"],
            ["extraction_rate", f"{ext_rep.extraction_rate:.6f}"],
            ["containment_correct", ext_rep.containment_count],
            ["iou_correct", ext_rep.iou_pass_count],
            ["iou_min", ext_rep.iou_min],
        ]
        _write_csv(args.csv_out, ["metric", "value"], rows)
    return EXIT_OK


def _cmd_run(args, file_cfg) -> int:
    pacing = "unpaced" if args.unpaced else "realtime"
    socket_addr = None if args.no_socket else _parse_endpoint(args.socket)
    live = args.source.startswith("live:")
    if live:
        host, port = _parse_endpoint(args.source[5:])
        # Checked before connecting: a bad rate exits 2 without opening a connection.
        rate = validate_sampling_rate(53.0 if args.rate is None else args.rate)
    else:
        path = args.source.removeprefix("file:")
        source = runtime.FileReplaySource(path, sampling_rate=args.rate, pacing=pacing)
    model = classifier.load_model(args.model)
    # Frames are cut with the model's geometry; a --config geometry key that
    # disagrees with it fails run_pipeline's check, made here before a live
    # source connects.
    dsp_cfg, det_cfg = model.geometry.configs()
    cfg = runtime.PipelineConfig(
        dsp=_dsp_config(args, file_cfg, dsp_cfg),
        detector=_detector_config(args, file_cfg, det_cfg),
        socket_addr=socket_addr,
        log_path=args.log,
    )
    model.geometry.check(cfg.dsp, cfg.detector)
    if live:
        with socket_module.create_connection((host, port)) as conn, conn.makefile("rb") as reader:
            result = runtime.run_pipeline(runtime.LiveByteSource(reader, sampling_rate=rate), cfg, model)
    else:
        result = runtime.run_pipeline(source, cfg, model)
    print(
        f"{result.samples} samples, {result.frames} frames, "
        f"{len(result.messages)} messages, max latency {result.max_latency_ms:.1f} ms"
    )
    return EXIT_OK


def _cmd_consume(args, file_cfg) -> int:
    host, port = _parse_endpoint(args.listen)
    received = runtime.consume(host, port, max_messages=args.max_messages)
    print(f"received {len(received)} messages")
    return EXIT_OK


_HANDLERS = {
    "simulate": _cmd_simulate,
    "process": _cmd_process,
    "fft": _cmd_fft,
    "detect": _cmd_detect,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "eval-detect": _cmd_eval_detect,
    "run": _cmd_run,
    "consume": _cmd_consume,
}


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("CAPSTREAM_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_cfg = _load_config_file(getattr(args, "config", None))
        return _HANDLERS[args.command](args, file_cfg)
    except (ConfigError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CapstreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
