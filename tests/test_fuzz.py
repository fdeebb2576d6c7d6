"""Byte-mutation fuzzing of every input boundary.

Each test takes a valid input of one boundary (recording CSV, labels CSV,
frames index, manifest, model file, NDJSON line, live byte stream), edits its
bytes, and feeds the result to the loader that reads it. The loader must
either return or raise a CapstreamError, within the per-example deadline.
Through cli.main, a mutated --config file either runs or exits 2 with one
error: line.
"""
from __future__ import annotations

import io
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from capstream import storage
from capstream.classifier import ClassifierModel, load_model, save_model
from capstream.cli import EXIT_CONFIG, EXIT_OK, main
from capstream.detector import GestureFrame
from capstream.errors import CapstreamError
from capstream.protocol import CommandMessage, decode_message, encode_message
from capstream.runtime import LiveByteSource, PipelineConfig, run_pipeline
from capstream.simulate import generate_gesture

_SETTINGS = settings(
    max_examples=40,
    deadline=timedelta(seconds=2),
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# Bytes that change what a field means more often than a random byte does.
_TOKENS = [b",", b"\n", b"\r", b"=", b"-", b".", b"e", b"9", b"0", b"nan", b"inf", b"1e999",
           b"99999999999999999999", b"\x00", b"\xff", b'"', b"#", b" "]

_edit = st.tuples(
    st.floats(0.0, 1.0),
    st.sampled_from(("replace", "insert", "delete", "truncate")),
    st.one_of(st.sampled_from(_TOKENS), st.binary(min_size=1, max_size=3)),
)
_edits = st.lists(_edit, min_size=1, max_size=6)


def _mutate(data: bytes, edits) -> bytes:
    """data with each (position fraction, operation, bytes) edit applied in turn."""
    buf = bytearray(data)
    for where, op, chunk in edits:
        at = int(where * len(buf))
        if op == "replace":
            buf[at : at + len(chunk)] = chunk
        elif op == "insert":
            buf[at:at] = chunk
        elif op == "delete":
            del buf[at : at + len(chunk)]
        else:
            del buf[at:]
    return bytes(buf)


def _loads_or_raises_typed(load, *args) -> None:
    try:
        load(*args)
    except CapstreamError:
        pass


@pytest.fixture(scope="module")
def gesture():
    return generate_gesture(11, 3, pre_roll_seconds=8.0, tail_seconds=2.0)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory, gesture):
    """A one-recording dataset; each test overwrites one of its files."""
    out = tmp_path_factory.mktemp("fuzz_dataset")
    storage.save_dataset(out, [gesture], {"seed": 11, "sampling_rate": 53.0})
    return out


@pytest.fixture(scope="module")
def valid_files(dataset_dir, gesture, tmp_path_factory):
    """The valid bytes of each file boundary, read before any test mutates one."""
    model_path = tmp_path_factory.mktemp("fuzz_model") / "m.bin"
    save_model(ClassifierModel.initialize("gru", seed=1, hidden_size=3, dense_sizes=(4,)), model_path)
    frames_dir = tmp_path_factory.mktemp("fuzz_frames")
    frames = [GestureFrame(k=1, start=10, end=40), GestureFrame(k=2, start=90, end=150)]
    index = storage.save_frames(frames_dir, frames)
    return {
        "recording": (dataset_dir / "rec_0001.csv").read_bytes(),
        "labels": (dataset_dir / "rec_0001.labels.csv").read_bytes(),
        "manifest": (dataset_dir / storage.MANIFEST_NAME).read_bytes(),
        "frames_index": index.read_bytes(),
        "model": model_path.read_bytes(),
    }


def _restore(dataset_dir: Path, valid_files) -> None:
    (dataset_dir / "rec_0001.csv").write_bytes(valid_files["recording"])
    (dataset_dir / "rec_0001.labels.csv").write_bytes(valid_files["labels"])
    (dataset_dir / storage.MANIFEST_NAME).write_bytes(valid_files["manifest"])


# The dataset files, each read by load_dataset: the recording through
# load_recording, the labels through load_labels and LabeledRecording, and the
# manifest's sampling_rate through the recording's RawStream.
@pytest.mark.parametrize("name, filename", [
    ("recording", "rec_0001.csv"),
    ("labels", "rec_0001.labels.csv"),
    ("manifest", storage.MANIFEST_NAME),
])
@_SETTINGS
@given(edits=_edits)
@example(edits=[(0.99, "insert", b"\n1e999,1,1,1,1\n")])
@example(edits=[(0.9, "insert", b"nan")])
def test_dataset_file(dataset_dir, valid_files, name, filename, edits):
    _restore(dataset_dir, valid_files)
    (dataset_dir / filename).write_bytes(_mutate(valid_files[name], edits))
    _loads_or_raises_typed(storage.load_dataset, dataset_dir)


@_SETTINGS
@given(edits=_edits)
def test_frames_index(tmp_path, valid_files, edits):
    path = tmp_path / "frames_index.csv"
    path.write_bytes(_mutate(valid_files["frames_index"], edits))
    _loads_or_raises_typed(storage.load_frame_index, path)


@_SETTINGS
@given(edits=_edits)
def test_model_file(tmp_path, valid_files, edits):
    path = tmp_path / "m.bin"
    path.write_bytes(_mutate(valid_files["model"], edits))
    _loads_or_raises_typed(load_model, path)


_MESSAGE = encode_message(CommandMessage.for_class(4, 17, 1234, 0.75)).encode()


# The first example makes timestamp_ms 1e999, which JSON reads as infinity.
@settings(_SETTINGS, max_examples=200)
@given(edits=_edits)
@example(edits=[((_MESSAGE.index(b"1234") + 0.5) / len(_MESSAGE), "insert", b'1e999,"x":')])
def test_ndjson_line(edits):
    _loads_or_raises_typed(decode_message, _mutate(_MESSAGE, edits))


@pytest.fixture(scope="module")
def live_bytes(gesture):
    values = gesture.stream.values
    return b"".join(
        f"{i},{a!r},{b!r},{c!r},{d!r}\n".encode() for i, (a, b, c, d) in enumerate(values.T.tolist())
    )


@pytest.fixture(scope="module")
def small_model():
    return ClassifierModel.initialize("gru", seed=1, hidden_size=3, dense_sizes=(4,))


@_SETTINGS
@given(edits=_edits)
@example(edits=[(0.5, "insert", b"\n99999999999999999999,1,1,1,1\n")])
@example(edits=[(0.5, "insert", b"\n100,1e308,-1e308,1e308,-1e308\n")])
def test_live_byte_stream(live_bytes, small_model, edits):
    source = LiveByteSource(io.BytesIO(_mutate(live_bytes, edits)))
    _loads_or_raises_typed(run_pipeline, source, PipelineConfig(), small_model)


_CONFIG = (b"# experiment\ndetector.phi=20\ndetector.update_period=10\ndetector.post_pad=70\n"
           b"dsp.smooth_window=5\ndsp.sensitivity=0.5\n")


@_SETTINGS
@given(edits=_edits)
@example(edits=[((_CONFIG.index(b"=70") + 1.5) / len(_CONFIG), "insert", b"99999999999999999999")])
@example(edits=[((_CONFIG.index(b"=20") + 1.5) / len(_CONFIG), "insert", b"nan\n#")])
def test_cli_config(tmp_path, dataset_dir, valid_files, capsys, edits):
    _restore(dataset_dir, valid_files)
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(_mutate(_CONFIG, edits))
    capsys.readouterr()
    code = main(["detect", str(dataset_dir / "rec_0001.csv"), "--out-dir", str(tmp_path / "frames"),
                 "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_CONFIG)
    if code == EXIT_CONFIG:
        assert err.startswith("error: ") and err.count("\n") == 1
