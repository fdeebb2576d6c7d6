"""On-disk formats: recording CSV, label sidecars, manifests, frame dumps.

Recording CSV: header ``index,s1,s2,s3,s4``, one decimal-text voltage row
per sample. Label sidecar: ``class_id,true_start,true_end``. Manifest:
``key=value`` lines. Imported real captures must be converted to this
layout first.
"""
from __future__ import annotations

import csv
import dataclasses
from pathlib import Path
from typing import Callable, Iterator, TextIO

import numpy as np

from .detector import GestureFrame
from .errors import InvalidParameterError
from .signals import _ROWS_CHUNK, GestureEvent, LabeledRecording, RawStream
from .simulate import PhysicsParams

RECORDING_HEADER = ["index", "s1", "s2", "s3", "s4"]
LABELS_HEADER = ["class_id", "true_start", "true_end"]
FRAME_INDEX_HEADER = ["k", "start", "end"]
MANIFEST_NAME = "manifest.txt"
_DEFAULT_RATE = 53.0


def _read_rows(
    path: str | Path, header: list[str], cast: Callable[[str], object], first: int = 0
) -> Iterator[list]:
    """Yield cells first..len(header)-1 of each non-empty row, each passed through cast.

    A wrong header, a short row or a cell that cast rejects raises
    InvalidParameterError naming path:line.
    """
    width = len(header)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise InvalidParameterError(f"{path}: expected header {','.join(header)}")
        for line in reader:
            if not line:
                continue
            if len(line) < width:
                raise InvalidParameterError(
                    f"{path}:{reader.line_num}: expected {width} cells, got {len(line)}"
                )
            try:
                row = [cast(v) for v in line[first:width]]
            except ValueError as exc:
                raise InvalidParameterError(f"{path}:{reader.line_num}: {exc}") from None
            yield row


def _manifest_rate(directory: Path) -> float:
    """sampling_rate from the directory's manifest, or the default without one."""
    path = directory / MANIFEST_NAME
    if not path.exists():
        return _DEFAULT_RATE
    text = load_manifest(path).get("sampling_rate", str(_DEFAULT_RATE))
    try:
        return float(text)
    except ValueError:
        raise InvalidParameterError(
            f"{path}: sampling_rate must be a number, got {text!r}"
        ) from None


def _write_samples(fh: TextIO, header: list[str], first_index: int, values: np.ndarray) -> None:
    """Write header, then one row per column of values (k, n), numbered from first_index.

    Each chunk of rows is formatted by one % over a repeated row format, so
    only _ROWS_CHUNK columns exist as Python objects at a time. The bytes are
    those of csv.writer with f"{v:.6f}" cells and its \\r\\n terminator.
    """
    k = values.shape[0]
    row_format = "%d" + ",%.6f" * k + "\r\n"
    fh.write(",".join(header) + "\r\n")
    for lo in range(0, values.shape[1], _ROWS_CHUNK):
        block = values[:, lo : lo + _ROWS_CHUNK]
        m = block.shape[1]
        cells = np.empty((m, 1 + k), dtype=object)
        cells[:, 0] = range(first_index + lo, first_index + lo + m)
        cells[:, 1:] = block.T
        fh.write((row_format * m) % tuple(cells.ravel().tolist()))


def save_recording(path: str | Path, stream: RawStream) -> None:
    with open(path, "w", newline="") as fh:
        _write_samples(fh, RECORDING_HEADER, 0, stream.values)


def _at_first_row(fh: TextIO) -> bool:
    """Skip empty lines; True with fh positioned at the next row, False at end of file."""
    while True:
        pos = fh.tell()
        line = fh.readline()
        if not line:
            return False
        if line.strip("\r\n"):
            fh.seek(pos)
            return True


def load_recording(path: str | Path, sampling_rate: float | None = None) -> RawStream:
    """Read a recording CSV; the rate comes from a sibling manifest unless given.

    One vectorized parse reads the file. Only when it fails is the file read
    again row by row, to raise an error naming path:line.
    """
    path = Path(path)
    if sampling_rate is None:
        sampling_rate = _manifest_rate(path.parent)
    with open(path, newline="") as fh:
        if next(csv.reader([fh.readline()]), None) != RECORDING_HEADER:
            raise InvalidParameterError(f"{path}: expected header {','.join(RECORDING_HEADER)}")
        if not _at_first_row(fh):
            raise InvalidParameterError(f"{path}: recording holds no samples")
        try:
            values = np.loadtxt(
                fh, delimiter=",", usecols=(1, 2, 3, 4), comments=None, quotechar='"', ndmin=2
            )
        except ValueError as exc:
            error = exc
        else:
            return RawStream(sampling_rate=sampling_rate, values=values.T)
    for _ in _read_rows(path, RECORDING_HEADER, float, first=1):
        pass
    # A cell that Python's float accepts but the vectorized parser does not
    # (such as "1_000") is still an error: the row reader only diagnoses.
    raise InvalidParameterError(f"{path}: {error}")


def labels_path_for(recording_path: str | Path) -> Path:
    p = Path(recording_path)
    return p.with_name(p.stem + ".labels.csv")


def save_labels(path: str | Path, events: list[GestureEvent]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABELS_HEADER)
        for ev in events:
            writer.writerow([ev.class_id, ev.start, ev.end])


def load_labels(path: str | Path) -> list[GestureEvent]:
    return [GestureEvent(*row) for row in _read_rows(path, LABELS_HEADER, int)]


def save_manifest(path: str | Path, entries: dict) -> None:
    lines = [f"{key}={value}" for key, value in entries.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def load_manifest(path: str | Path) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def manifest_entries(
    seed: int, sampling_rate: float, params: PhysicsParams, **extra
) -> dict:
    entries = {"seed": seed, "sampling_rate": sampling_rate} | dataclasses.asdict(params)
    entries["baselines"] = ",".join(str(b) for b in params.baselines)
    return entries | extra


def save_dataset(
    out_dir: str | Path,
    recordings: list[LabeledRecording],
    manifest: dict,
) -> list[Path]:
    """Write rec_NNNN.csv + rec_NNNN.labels.csv per recording plus one manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, rec in enumerate(recordings, start=1):
        rec_path = out_dir / f"rec_{i:04d}.csv"
        save_recording(rec_path, rec.stream)
        save_labels(labels_path_for(rec_path), rec.events)
        paths.append(rec_path)
    save_manifest(out_dir / MANIFEST_NAME, manifest)
    return paths


def load_dataset(data_dir: str | Path) -> list[LabeledRecording]:
    data_dir = Path(data_dir)
    rate = _manifest_rate(data_dir)
    recordings = []
    for rec_path in sorted(data_dir.glob("rec_*.csv")):
        if rec_path.name.endswith(".labels.csv"):
            continue
        stream = load_recording(rec_path, sampling_rate=rate)
        labels_file = labels_path_for(rec_path)
        events = load_labels(labels_file) if labels_file.exists() else []
        recordings.append(LabeledRecording(stream=stream, events=events))
    if not recordings:
        raise InvalidParameterError(f"{data_dir}: no rec_*.csv recordings found")
    return recordings


def save_frames(out_dir: str | Path, frames: list[GestureFrame]) -> Path:
    """Write frames_index.csv plus one frame_NNNN.csv block per frame."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    index_path = out_dir / "frames_index.csv"
    with open(index_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FRAME_INDEX_HEADER)
        for frame in frames:
            writer.writerow([frame.k, frame.start, frame.end])
    for frame in frames:
        if frame.channels is not None:
            with open(out_dir / f"frame_{frame.k:04d}.csv", "w", newline="") as fh:
                _write_samples(fh, RECORDING_HEADER, frame.start, frame.channels)
    return index_path


def load_frame_index(path: str | Path) -> list[GestureFrame]:
    return [GestureFrame(*row) for row in _read_rows(path, FRAME_INDEX_HEADER, int)]
