from __future__ import annotations

import csv
import io
import warnings

import numpy as np
import pytest

from capstream.dataset import dataset_tensors, truth_frames
from capstream import storage
from capstream.detector import GestureFrame, run_detector
from capstream.errors import InvalidParameterError
from capstream.signals import GestureEvent, RawStream
from capstream.simulate import generate_dataset, generate_gesture
from capstream.storage import (
    labels_path_for,
    load_dataset,
    load_frame_index,
    load_labels,
    load_manifest,
    load_recording,
    manifest_entries,
    save_dataset,
    save_frames,
    save_labels,
    save_manifest,
    save_recording,
)


class TestRecordingRoundTrip:
    def test_values_survive_to_microvolt_precision(self, tmp_path, params):
        rec = generate_gesture(3, 1, params, sampling_rate=53.0)
        path = tmp_path / "rec.csv"
        save_recording(path, rec.stream)
        loaded = load_recording(path, sampling_rate=53.0)
        np.testing.assert_allclose(loaded.values, rec.stream.values, atol=5e-7)
        assert len(loaded) == len(rec.stream)

    def test_serialization_is_byte_deterministic(self, tmp_path, params):
        a = generate_gesture(5, 2, params, sampling_rate=53.0)
        b = generate_gesture(5, 2, params, sampling_rate=53.0)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        save_recording(pa, a.stream)
        save_recording(pb, b.stream)
        assert pa.read_bytes() == pb.read_bytes()

    def test_header_validation(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,a,b,c,d\n0,1,2,3,4\n")
        with pytest.raises(InvalidParameterError):
            load_recording(bad, sampling_rate=53.0)

    def test_non_numeric_cell_names_path_and_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("index,s1,s2,s3,s4\n0,1,2,3,4\n1,1,oops,3,4\n")
        with pytest.raises(InvalidParameterError, match=r"bad\.csv:3: .*oops"):
            load_recording(bad, sampling_rate=53.0)

    def test_short_row_names_path_and_line(self, tmp_path):
        bad = tmp_path / "short.csv"
        bad.write_text("index,s1,s2,s3,s4\n0,1,2,3,4\n\n2,1,2\n")
        with pytest.raises(InvalidParameterError, match=r"short\.csv:4: expected 5 cells, got 3"):
            load_recording(bad, sampling_rate=53.0)

    def test_rate_from_manifest(self, tmp_path, params):
        rec = generate_gesture(3, 1, params, sampling_rate=76.5)
        path = tmp_path / "rec.csv"
        save_recording(path, rec.stream)
        save_manifest(tmp_path / "manifest.txt", {"sampling_rate": 76.5})
        loaded = load_recording(path)
        assert loaded.sampling_rate == 76.5


def _csv_module_bytes(first_index, values):
    """The recording format as defined: csv.writer rows of the index and f"{v:.6f}" cells."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["index", "s1", "s2", "s3", "s4"])
    for i, row in enumerate(zip(*values.tolist()), start=first_index):
        writer.writerow([i] + [f"{v:.6f}" for v in row])
    return out.getvalue().encode()


def _awkward_values(n, seed=0):
    """(4, n) values with rounding ties, signed zero and wide magnitudes around column 4096."""
    values = np.random.default_rng(seed).normal(0.0, 300.0, size=(4, n))
    specials = [-0.0, 5e-7, 2.5e-7, -1.0000005, 123456.7890125, -2.5e-7, 1e9 + 0.5, 0.0]
    for j, v in enumerate(specials):
        values[j % 4, 4090 + j] = v
        values[(j + 1) % 4, 17 + j] = v
    return values


def _near_halves(n, seed):
    """(4, n // 4) values whose |v| * 1e6 lies a few ulps either side of k + 0.5."""
    rng = np.random.default_rng(seed)
    halves = np.floor(10.0 ** rng.uniform(0.0, 12.0, n)) + 0.5
    scaled = halves + rng.integers(-3, 4, n) * np.spacing(halves)
    return (scaled / 1e6 * rng.choice([-1.0, 1.0], n)).reshape(4, -1)


def _finite_bit_patterns(n, seed):
    """(4, n // 4) random float64 bit patterns, subnormals up to about 1e300, either sign."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
    exponents = rng.integers(0, 1023 + 997, n, dtype=np.uint64)
    bits = (bits & ~np.uint64(0x7FF << 52)) | (exponents << np.uint64(52))
    return bits.view(np.float64).reshape(4, -1)


def _around_the_bound():
    """Values a few ulps either side of 1e6 and of 999999.9999995, which rounds up to it."""
    centres = np.repeat([1e6, 999999.9999995], 7)
    values = centres + np.tile(np.arange(-3, 4), 2) * np.spacing(centres)
    return np.concatenate([values, -values]).reshape(4, -1)


class TestGoldenBytes:
    """The writer's output equals the csv-module formula, not just itself."""

    @pytest.mark.parametrize(
        "values, first_index",
        [
            (_near_halves(4 * 6000, seed=3), 0),
            (_finite_bit_patterns(4 * 3000, seed=4), 0),
            (_around_the_bound(), 0),
            (np.array([[-0.0, 0.0, -1e-300, 4.9e-7]] * 4), 0),
            (_awkward_values(4096 + 11, seed=5), 2**40 + 7),
        ],
        ids=["near-halves", "bit-patterns", "exactness-bound", "negative-zero", "index-above-2^40"],
    )
    def test_hard_cells_equal_csv_module(self, values, first_index):
        out = io.BytesIO()
        storage.write_samples(out, values, first_index)
        assert out.getvalue() == _csv_module_bytes(first_index, values)

    def test_frame_dump_crossing_a_chunk_equals_csv_module(self, tmp_path):
        values = _awkward_values(64 * 97, seed=6)
        frames = [
            GestureFrame(k=k, start=5 + 97 * (k - 1), end=5 + 97 * k - 1, channels=values[:, 97 * (k - 1) : 97 * k])
            for k in range(1, 65)
        ]
        frames[30].channels = None  # listed in the index, written to no file
        save_frames(tmp_path / "frames", frames)
        assert [(f.k, f.start, f.end) for f in load_frame_index(tmp_path / "frames" / "frames_index.csv")] == [
            (f.k, f.start, f.end) for f in frames
        ]
        written = sorted(p.name for p in (tmp_path / "frames").glob("frame_*.csv"))
        assert written == [f"frame_{f.k:04d}.csv" for f in frames if f.channels is not None]
        for frame in frames:
            if frame.channels is not None:
                got = (tmp_path / "frames" / f"frame_{frame.k:04d}.csv").read_bytes()
                assert got == _csv_module_bytes(frame.start, frame.channels)

    def test_recording_bytes_cross_a_chunk_boundary(self, tmp_path):
        values = _awkward_values(4096 + 37)
        path = tmp_path / "rec.csv"
        save_recording(path, RawStream(sampling_rate=53.0, values=values))
        assert path.read_bytes() == _csv_module_bytes(0, values)

    def test_frame_block_bytes_start_above_zero(self, tmp_path):
        values = _awkward_values(4096 + 5, seed=1)
        start = 10**12 + 3
        frame = GestureFrame(k=1, start=start, end=start + values.shape[1] - 1, channels=values)
        save_frames(tmp_path / "frames", [frame])
        got = (tmp_path / "frames" / "frame_0001.csv").read_bytes()
        assert got == _csv_module_bytes(start, values)

    def test_loaded_values_equal_parsed_text(self, tmp_path):
        values = _awkward_values(4096 + 37, seed=2)
        path = tmp_path / "rec.csv"
        save_recording(path, RawStream(sampling_rate=53.0, values=values))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        expected = np.array([[float(v) for v in row[1:]] for row in rows]).T
        loaded = load_recording(path, sampling_rate=53.0).values
        assert np.array_equal(loaded.view(np.int64), expected.view(np.int64))


class TestReaderEdgeCases:
    HEADER = "index,s1,s2,s3,s4"

    def _load(self, tmp_path, text, name="rec.csv"):
        path = tmp_path / name
        path.write_bytes(text.encode())
        return load_recording(path, sampling_rate=53.0).values

    def test_extra_cells_are_ignored(self, tmp_path):
        values = self._load(tmp_path, f"{self.HEADER}\n0,1,2,3,4,9\n1,5,6,7,8,9,x\n")
        np.testing.assert_array_equal(values, [[1, 5], [2, 6], [3, 7], [4, 8]])

    def test_blank_lines_are_skipped(self, tmp_path):
        values = self._load(tmp_path, f"{self.HEADER}\n\n0,1,2,3,4\n\n\n1,5,6,7,8\n\n")
        np.testing.assert_array_equal(values, [[1, 5], [2, 6], [3, 7], [4, 8]])

    def test_quoted_cells_and_crlf_load(self, tmp_path):
        text = f'{self.HEADER}\r\n0,"1.5",2,"-3",4\r\n"1",5," 6.25",7,8\r\n'
        values = self._load(tmp_path, text)
        np.testing.assert_array_equal(values, [[1.5, 5], [2, 6.25], [-3, 7], [4, 8]])

    def test_comment_line_is_a_short_row(self, tmp_path):
        with pytest.raises(InvalidParameterError, match=r"hash\.csv:3: expected 5 cells, got 1"):
            self._load(tmp_path, f"{self.HEADER}\n0,1,2,3,4\n# note\n1,1,2,3,4\n", "hash.csv")

    @pytest.mark.parametrize("tail", ["", "\n", "\r\n\r\n"])
    def test_header_only_raises_without_warning(self, tmp_path, tail):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="holds no samples"):
                self._load(tmp_path, f"{self.HEADER}\n{tail}")

    def test_cell_only_python_float_accepts_is_rejected(self, tmp_path):
        # The row reader only diagnoses; it never loads what the parser refused.
        with pytest.raises(InvalidParameterError, match=r"under\.csv: .*1_000"):
            self._load(tmp_path, f"{self.HEADER}\n0,1_000,2,3,4\n", "under.csv")

    def test_row_reader_runs_only_after_a_failed_parse(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("row reader used on a well-formed file")

        monkeypatch.setattr(storage, "_read_rows", refuse)
        values = self._load(tmp_path, f"{self.HEADER}\n0,1,2,3,4\n")
        np.testing.assert_array_equal(values, [[1], [2], [3], [4]])


class TestLabelsAndManifest:
    def test_labels_round_trip(self, tmp_path):
        events = [GestureEvent(1, 100, 150), GestureEvent(7, 300, 360)]
        path = tmp_path / "rec.labels.csv"
        save_labels(path, events)
        assert load_labels(path) == events

    def test_labels_path_convention(self):
        assert labels_path_for("/x/rec_0001.csv").name == "rec_0001.labels.csv"

    def test_manifest_round_trip(self, tmp_path, params):
        entries = manifest_entries(7, 53.0, params, n_per_class=100)
        path = tmp_path / "manifest.txt"
        save_manifest(path, entries)
        loaded = load_manifest(path)
        assert loaded["seed"] == "7"
        assert loaded["n_per_class"] == "100"
        assert float(loaded["idle_sigma"]) == params.idle_sigma


class TestDatasetDir:
    def test_save_load_round_trip(self, tmp_path, params):
        recs = generate_dataset(9, 1, params, sampling_rate=53.0, classes=(1, 2))
        save_dataset(tmp_path / "d", recs, manifest_entries(9, 53.0, params))
        loaded = load_dataset(tmp_path / "d")
        assert len(loaded) == 2
        for orig, back in zip(recs, loaded):
            assert back.events == orig.events
            assert back.stream.sampling_rate == 53.0
            np.testing.assert_allclose(back.stream.values, orig.stream.values, atol=5e-7)

    def test_empty_dir_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(InvalidParameterError):
            load_dataset(tmp_path / "empty")


class TestFrameIO:
    def test_index_round_trip(self, tmp_path, session_10, dsp_cfg, det_cfg):
        frames = run_detector(session_10.stream, dsp_cfg, det_cfg)
        index = save_frames(tmp_path / "frames", frames)
        loaded = load_frame_index(index)
        assert [(f.k, f.start, f.end) for f in loaded] == [
            (f.k, f.start, f.end) for f in frames
        ]


class TestDatasetPreparation:
    def test_truth_frames_align_with_events(self, params, dsp_cfg, det_cfg):
        rec = generate_gesture(10, 4, params, sampling_rate=53.0)
        frames = truth_frames(rec, dsp_cfg, det_cfg)
        assert len(frames) == 1
        frame = frames[0]
        ev = rec.events[0]
        assert frame.start == ev.start - det_cfg.pre_pad
        assert frame.end == ev.end + det_cfg.post_pad
        assert frame.channels.shape[1] == len(frame)

    def test_dataset_tensors_shapes_and_labels(self, params, dsp_cfg, det_cfg):
        recs = generate_dataset(11, 2, params, sampling_rate=53.0, classes=(1, 2, 3))
        tensors, labels = dataset_tensors(recs, dsp_cfg, det_cfg, length=128)
        assert tensors.shape == (6, 128, 4)
        assert sorted(labels.tolist()) == [1, 1, 2, 2, 3, 3]
