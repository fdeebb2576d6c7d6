"""On-disk formats: recording CSV, label sidecars, manifests, frame dumps.

Recording CSV: header ``index,s1,s2,s3,s4``, one decimal-text voltage row
per sample. Label sidecar: ``class_id,true_start,true_end``. Manifest:
``key=value`` lines. Imported real captures must be converted to this
layout first.
"""
from __future__ import annotations

import csv
import dataclasses
import io
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, TextIO

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


def _undecodable(path: str | Path, exc: UnicodeDecodeError) -> InvalidParameterError:
    """The error for a text file with bytes that do not decode, naming path:line.

    The text reader decodes a block at a time, so exc does not tell the line;
    the first bad byte of the file's raw bytes does.
    """
    try:
        data = Path(path).read_bytes()
        data.decode(exc.encoding)
    except UnicodeDecodeError as first:
        line = data.count(b"\n", 0, first.start) + 1
        return InvalidParameterError(
            f"{path}:{line}: byte {data[first.start]:#04x} is not {exc.encoding} text"
        )
    except OSError:
        pass
    return InvalidParameterError(f"{path}: not {exc.encoding} text: {exc.reason}")


def _read_rows(
    path: str | Path, header: list[str], cast: Callable[[str], object], first: int = 0
) -> Iterator[list]:
    """Yield cells first..len(header)-1 of each non-empty row, each passed through cast.

    A wrong header, a short row, a cell that cast rejects or bytes that are
    not text raise InvalidParameterError naming path:line.
    """
    width = len(header)
    try:
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
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None


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


# Recording rows are the bytes of csv.writer with f"{v:.6f}" cells and its
# \r\n terminator, rendered by a numpy kernel. A cell with |v| < _EXACT_BELOW
# is written as the digits of rint(|v| * 1e6): that product is below 2**40,
# so it is off the exact |v| * 10**6 by at most 2**-14 and rounds to the same
# integer as "%.6f" unless it lies within 1e-3 of a half (_TIE_BAND). Cells
# that near a half, at or above the bound, or not finite take their text
# from "%.6f" % v itself, one cell at a time. The sign comes from the sign
# bit, so -0.0 and negatives that round to zero keep their "-" as in "%.6f".
_HEADER_BYTES = (",".join(RECORDING_HEADER) + "\r\n").encode()
_EXACT_BELOW = 1e6
_TIE_BAND = 0.5 - 1e-3


def _words(texts: list[bytes]) -> np.ndarray:
    return np.frombuffer(b"".join(texts), dtype=np.uint32)


# Digit tables, one 4-byte word per group of three digits: a first byte that
# the next write to its left replaces, then three ASCII digits, where a 0
# byte (_ below) is padding the kernel drops. _GROUPS holds three tables,
# indexed by group value plus 0, _LEAD or _TOP: zero-padded (7 -> "_007"),
# blank-padded with the units digit always shown (7 -> "___7", 0 -> "___0"),
# and blank-padded with 0 all blank ("____"), for a group above the leading
# one. _POINT_GROUPS holds ".ddd", the point and the first three decimals.
_LEAD, _TOP = 1000, 2000
_GROUPS = _words(
    [b"\0%03d" % g for g in range(1000)]
    + [b"\0" + (b"%3d" % g).replace(b" ", b"\0") for g in range(1000)]
    + [b"\0\0\0\0"]
    + [b"\0" + (b"%3d" % g).replace(b" ", b"\0") for g in range(1, 1000)]
)
_POINT_GROUPS = _words([b".%03d" % g for g in range(1000)])
_COMMA_SIGN = np.frombuffer(b",\0,-", dtype=np.uint16)  # by sign bit: "," or ",-"
_POW1000 = 1000 ** np.arange(7, dtype=np.int64)


def _word(field: np.ndarray, at: int) -> np.ndarray:
    """field[..., at : at + 4] as one uint32 per row."""
    return field[..., at : at + 4].view(np.uint32)[..., 0]


def _put_digits(field: np.ndarray, n: np.ndarray, groups: int) -> None:
    """Write the non-negative int64 n as 3 * groups right-aligned digits into
    field[..., 1:], with 0 bytes for leading zeros.

    Groups are written lowest first, so the first byte of each word lands on
    a digit the next write fills. The highest group's word puts a stray byte
    in field[..., 0], which the caller overwrites afterwards.
    """
    rest = n
    for j in range(groups):
        if j == groups - 1:
            words = _GROUPS.take(rest + (_LEAD if j == 0 else _TOP))
        else:
            high = rest // 1000
            table = (n < _POW1000[j + 1]) * (_LEAD if j == 0 else _TOP)
            words = _GROUPS.take(rest - high * 1000 + table)
            rest = high
        _word(field, 3 * (groups - 1 - j))[...] = words


def _format_rows(index: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The CSV rows of index[j] and the cells values[:, j] as (m, width) uint8, 0-padded.

    values is (k, m) float64 with m at most _ROWS_CHUNK; index is (m,) int64.
    Every row has the same width; _compact drops the padding.
    """
    cells = np.ascontiguousarray(values.T)
    m, k = cells.shape
    mag = np.abs(cells)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = mag * 1e6
        units = np.rint(scaled)
        odd = ~(mag < _EXACT_BELOW) | (np.abs(scaled - units) >= _TIE_BAND)
    texts: list[str] = []
    if odd.any():
        rows, cols = np.nonzero(odd)
        texts = ["%.6f" % v for v in cells[rows, cols].tolist()]
        units[rows, cols] = 0.0
    units = units.astype(np.int64)
    whole = units // 1_000_000
    fraction = units - whole * 1_000_000
    # A cell is ",", a sign byte, 3 * groups integer digits, "." and six
    # decimals; the kernel writes the last 3 * own of those digits.
    own = -(-len(str(int(whole.max()))) // 3)
    groups = max([own] + [-(-(len(t) - 8) // 3) for t in texts])
    cell = 3 * groups + 9
    index_groups = -(-len(str(int(np.abs(index).max()))) // 3)
    head = 1 + 3 * index_groups

    # A word write puts a stray byte just left of its digits, so the order
    # matters: decimals before the point, integer digits before the comma
    # and sign, the index digits before its sign byte.
    buf = np.empty((m, head + k * cell + 2), dtype=np.uint8)
    body = buf[:, head:-2].reshape(m, k, cell)
    high = fraction // 1000
    _word(body, cell - 4)[...] = _GROUPS.take(fraction - high * 1000)
    _word(body, cell - 7)[...] = _POINT_GROUPS.take(high)
    _put_digits(body[..., 1 + 3 * (groups - own) : 2 + 3 * groups], whole, own)
    body[..., 2 : 2 + 3 * (groups - own)] = 0
    body[..., :2].view(np.uint16)[..., 0] = _COMMA_SIGN.take(np.signbit(cells).view(np.uint8))
    if texts:
        padded = "".join(t.rjust(cell - 1, "\0") for t in texts).encode()
        body[rows, cols, 1:] = np.frombuffer(padded, dtype=np.uint8).reshape(len(texts), cell - 1)
    _put_digits(buf[:, :head], np.abs(index), index_groups)
    buf[:, 0] = (index < 0) * np.uint8(ord("-"))
    buf[:, -2:] = (13, 10)
    return buf


def _compact(rows: np.ndarray) -> bytes:
    """The bytes of _format_rows rows without their 0-byte padding."""
    return rows.tobytes().translate(None, b"\0")


def write_samples(out: str | Path | BinaryIO | TextIO, values: np.ndarray, first_index: int = 0) -> None:
    """Write the recording CSV of values (k, n), rows numbered from first_index.

    out is a path, or an open binary or text handle (such as sys.stdout),
    which is left open. Rows are formatted _ROWS_CHUNK at a time.
    """
    if isinstance(out, (str, Path)):
        with open(out, "wb") as fh:
            write_samples(fh, values, first_index)
        return
    encoded = not isinstance(out, io.TextIOBase)
    values = np.asarray(values, dtype=np.float64)
    out.write(_HEADER_BYTES if encoded else _HEADER_BYTES.decode())
    for lo in range(0, values.shape[1], _ROWS_CHUNK):
        block = values[:, lo : lo + _ROWS_CHUNK]
        index = np.arange(first_index + lo, first_index + lo + block.shape[1], dtype=np.int64)
        data = _compact(_format_rows(index, block))
        out.write(data if encoded else data.decode())


def save_recording(path: str | Path, stream: RawStream) -> None:
    write_samples(path, stream.values)


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
    try:
        with open(path, newline="") as fh:
            if next(csv.reader([fh.readline()]), None) != RECORDING_HEADER:
                raise InvalidParameterError(
                    f"{path}: expected header {','.join(RECORDING_HEADER)}"
                )
            if not _at_first_row(fh):
                raise InvalidParameterError(f"{path}: recording holds no samples")
            try:
                values = np.loadtxt(
                    fh, delimiter=",", usecols=(1, 2, 3, 4), comments=None, quotechar='"', ndmin=2
                )
            except ValueError as exc:  # UnicodeDecodeError included
                error = exc
            else:
                return RawStream(sampling_rate=sampling_rate, values=values.T)
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
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
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
    out: dict[str, str] = {}
    for line in text.splitlines():
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
    for group in _frame_groups([f for f in frames if f.channels is not None]):
        if len(group) == 1:
            write_samples(out_dir / f"frame_{group[0].k:04d}.csv", group[0].channels, group[0].start)
            continue
        index = np.concatenate([np.arange(f.start, f.end + 1, dtype=np.int64) for f in group])
        rows = _format_rows(index, np.concatenate([f.channels for f in group], axis=1))
        bounds = np.cumsum([0] + [len(f) for f in group]).tolist()
        for frame, lo, hi in zip(group, bounds, bounds[1:]):
            (out_dir / f"frame_{frame.k:04d}.csv").write_bytes(_HEADER_BYTES + _compact(rows[lo:hi]))
    return index_path


def _frame_groups(frames: list[GestureFrame]) -> Iterator[list[GestureFrame]]:
    """Consecutive frames in groups of at most _ROWS_CHUNK rows, or of one longer frame.

    save_frames formats each group with one kernel call, so the kernel's
    buffers stay the size of one chunk however many frames there are.
    """
    group: list[GestureFrame] = []
    rows = 0
    for frame in frames:
        if group and rows + len(frame) > _ROWS_CHUNK:
            yield group
            group, rows = [], 0
        group.append(frame)
        rows += len(frame)
    if group:
        yield group


def load_frame_index(path: str | Path) -> list[GestureFrame]:
    return [GestureFrame(*row) for row in _read_rows(path, FRAME_INDEX_HEADER, int)]
