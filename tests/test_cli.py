from __future__ import annotations

import csv
import io
import json
import socket
from pathlib import Path

import pytest

from capstream.classifier import (
    ClassifierModel,
    FrameGeometry,
    evaluate,
    frame_to_tensor,
    load_model,
    save_model,
)
from capstream.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, build_parser, main
from capstream.dataset import dataset_tensors
from capstream.detector import DetectorConfig, run_detector
from capstream.simulate import generate_gesture
from capstream.storage import (
    labels_path_for,
    load_dataset,
    load_frame_index,
    load_labels,
    load_manifest,
    load_recording,
    save_labels,
    save_recording,
)


@pytest.fixture(scope="module")
def session_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_session")
    code = main(["simulate", "--mode", "session", "--per-class", "1", "--classes", "5",
                 "--seed", "21", "--out", str(out)])
    assert code == EXIT_OK
    return out


# The tuning dests that set a model's frame geometry, and those that decide
# only which spans become frames.
_GEOMETRY_DESTS = {"detector_pre_pad", "detector_post_pad", "dsp_sensitivity", "dsp_smooth_window"}
_SPAN_DESTS = {
    "detector_phi",
    "detector_update_period",
    "detector_safety_period",
    "detector_init_period",
    "detector_warmup_period",
    "detector_max_crossing_window",
}
_GEOMETRY_FLAGS = ["--pre-pad", "--post-pad", "--sensitivity", "--smooth-window"]
_SPAN_FLAGS = ["--phi", "--update-period", "--safety-period", "--init-period",
               "--warmup-period", "--max-crossing-window"]

# Every option dest, positionals included, that each subcommand accepts: the
# ones its handler reads and no others.
_ACCEPTED_DESTS = {
    "simulate": {"seed", "mode", "classes", "per_class", "rate", "idle_seconds", "out"},
    "process": {"recording", "out", "config", "dsp_sensitivity", "dsp_smooth_window"},
    "fft": {"recording", "channel", "rate", "bands", "out"},
    "detect": {"recording", "out_dir", "config"} | _GEOMETRY_DESTS | _SPAN_DESTS,
    "train": {"seed", "data", "cell", "out", "epochs", "batch_size", "learning_rate", "hidden",
              "frame_length", "config"} | _GEOMETRY_DESTS,
    "eval": {"model", "data", "csv_out"},
    "eval-detect": {"frames", "labels", "iou_min", "csv_out"},
    "run": {"source", "model", "socket", "no_socket", "unpaced", "rate", "log", "config"} | _SPAN_DESTS,
    "consume": {"listen", "max_messages"},
}


class TestInterface:
    def test_each_subcommand_accepts_exactly_the_pinned_options(self):
        subparsers = build_parser()._subparsers._group_actions[0]
        accepted = {
            name: [a.dest for a in sub._actions if a.dest != "help"]
            for name, sub in subparsers.choices.items()
        }
        assert {name: set(dests) for name, dests in accepted.items()} == _ACCEPTED_DESTS
        assert sum(len(dests) for dests in accepted.values()) == 67

    @pytest.mark.parametrize(
        "argv",
        [
            ["process", "rec.csv", "--phi", "999"],
            ["process", "rec.csv", "--seed", "1"],
            ["process", "rec.csv", "--scheme", "low-pass"],
            ["process", "rec.csv", "--lpf-cutoff", "10"],
            ["process", "rec.csv", "--rate", "53"],
            ["fft", "rec.csv", "--seed", "1"],
            ["fft", "rec.csv", "--config", "exp.cfg"],
            ["simulate", "--out", "out", "--config", "exp.cfg"],
            ["detect", "rec.csv", "--lpf-cutoff", "10"],
            ["detect", "rec.csv", "--seed", "1"],
            ["detect", "rec.csv", "--rate", "53"],
            ["train", "--data", "data", "--out", "m.bin", "--lpf-cutoff", "10"],
            ["eval", "--model", "m.bin", "--data", "data", "--seed", "1"],
            ["eval", "--model", "m.bin", "--data", "data", "--frame-length", "64"],
            ["eval-detect", "frames.csv", "labels.csv", "--config", "exp.cfg"],
            ["run", "--source", "file:rec.csv", "--model", "m.bin", "--frame-length", "64"],
            ["run", "--source", "file:rec.csv", "--model", "m.bin", "--lpf-cutoff", "10"],
            ["consume", "--config", "nope.cfg"],
            # The model file sets the frame geometry: eval takes no tuning
            # flag, run no geometry flag, and train no flag that leaves its
            # frames alone.
            *(["eval", "--model", "m.bin", "--data", "data", flag, "1"]
              for flag in ["--config", *_SPAN_FLAGS, *_GEOMETRY_FLAGS]),
            *(["train", "--data", "data", "--out", "m.bin", flag, "1"] for flag in _SPAN_FLAGS),
            *(["run", "--source", "file:rec.csv", "--model", "m.bin", flag, "1"]
              for flag in _GEOMETRY_FLAGS),
        ],
        ids=lambda argv: " ".join(argv[:1] + [a for a in argv if a.startswith("--")][-1:]),
    )
    def test_removed_flag_is_an_argparse_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert argv[-2] in err or argv[-1] in err

    @pytest.mark.parametrize("rate", ["0", "-1", "nan", "inf"])
    def test_run_live_bad_rate_fails_before_connecting(self, tmp_path, capsys, rate):
        # Nothing listens on the endpoint: a connect attempt would exit 3.
        code = main(["run", "--source", "live:127.0.0.1:1", "--model", str(tmp_path / "m.bin"),
                     "--no-socket", "--rate", rate])
        assert code == EXIT_CONFIG
        assert "sampling_rate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["consume", "--listen", "127.0.0.1:99999"],
            ["run", "--source", "file:rec.csv", "--model", "m.bin", "--socket", "127.0.0.1:99999"],
            ["run", "--source", "live:127.0.0.1:99999", "--model", "m.bin", "--no-socket"],
        ],
        ids=["consume-listen", "run-socket", "run-live-source"],
    )
    def test_port_above_65535_is_config_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "port" in err and "99999" in err


class TestDocs:
    def test_every_flag_documents_its_default(self):
        # Usage contract: help text carries defaults (and units for numerics).
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
        )
        for name, sub in subparsers.choices.items():
            for action in sub._actions:
                if action.dest in ("help", "command") or not action.option_strings:
                    continue  # positionals are not flags
                help_text = action.help or ""
                if action.required:
                    assert "required" in help_text, (name, action.dest)
                else:
                    assert "default" in help_text, (name, action.dest)

    def test_numeric_flags_state_units(self):
        parser = build_parser()
        subparsers = parser._subparsers._group_actions[0]
        for name, sub in subparsers.choices.items():
            for action in sub._actions:
                if action.type in (int, float):
                    assert "[" in (action.help or ""), (name, action.dest)


class TestSimulate:
    def test_dataset_writes_files_and_manifest(self, tmp_path):
        out = tmp_path / "data"
        code = main(["simulate", "--mode", "dataset", "--classes", "10", "--per-class", "1",
                     "--seed", "7", "--out", str(out)])
        assert code == EXIT_OK
        recs = sorted(out.glob("rec_*.csv"))
        recs = [p for p in recs if not p.name.endswith(".labels.csv")]
        assert len(recs) == 10
        manifest = load_manifest(out / "manifest.txt")
        assert manifest["seed"] == "7"
        assert float(manifest["sampling_rate"]) == 53.0
        labels = load_labels(labels_path_for(recs[0]))
        assert len(labels) == 1

    def test_seeded_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["simulate", "--mode", "dataset", "--per-class", "1", "--classes", "2",
                  "--seed", "3", "--out", str(out)])
        ra = (a / "rec_0001.csv").read_bytes()
        rb = (b / "rec_0001.csv").read_bytes()
        assert ra == rb

    def test_idle_mode(self, tmp_path):
        out = tmp_path / "idle"
        code = main(["simulate", "--mode", "idle", "--idle-seconds", "10",
                     "--seed", "2", "--out", str(out)])
        assert code == EXIT_OK
        stream = load_recording(out / "idle.csv")
        assert len(stream) == 530

    @pytest.mark.parametrize(
        "args, setting",
        [
            (["--rate", "nan"], "sampling_rate"),
            (["--rate", "inf"], "sampling_rate"),
            (["--rate", "0"], "sampling_rate"),
            (["--mode", "session", "--rate", "nan"], "sampling_rate"),
            (["--mode", "idle", "--rate", "inf"], "sampling_rate"),
            (["--mode", "idle", "--idle-seconds", "nan"], "--idle-seconds"),
            (["--mode", "idle", "--idle-seconds", "0"], "--idle-seconds"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
    )
    def test_bad_rate_or_idle_length_is_one_line_config_error(self, tmp_path, capsys, args, setting):
        out = tmp_path / "out"
        code = main(["simulate", *args, "--classes", "2", "--per-class", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("error: ") and err.count("\n") == 1
        assert setting in err
        assert not out.exists()


class TestDetect:
    def test_missing_recording_is_io_error(self, tmp_path, capsys):
        code = main(["detect", str(tmp_path / "missing.csv")])
        assert code == EXIT_IO
        assert "missing.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["1,1,x,3,4", "1,1,2"])
    def test_malformed_recording_is_config_error(self, tmp_path, capsys, row):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"index,s1,s2,s3,s4\n0,1,2,3,4\n{row}\n")
        code = main(["detect", str(bad), "--out-dir", str(tmp_path / "frames")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad.csv:3" in err
        assert "Traceback" not in err

    def test_detect_emits_frames_and_index(self, session_dir, tmp_path):
        frames_dir = tmp_path / "frames"
        code = main(["detect", str(session_dir / "session.csv"), "--out-dir", str(frames_dir)])
        assert code == EXIT_OK
        frames = load_frame_index(frames_dir / "frames_index.csv")
        events = load_labels(session_dir / "session.labels.csv")
        assert len(frames) == len(events)
        first = frames_dir / f"frame_{frames[0].k:04d}.csv"
        assert first.exists()
        with open(first, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "s1", "s2", "s3", "s4"]
        assert len(rows) - 1 == frames[0].end - frames[0].start + 1

    def test_eval_detect_reports(self, session_dir, tmp_path, capsys):
        frames_dir = tmp_path / "frames"
        main(["detect", str(session_dir / "session.csv"), "--out-dir", str(frames_dir)])
        code = main(["eval-detect", str(frames_dir / "frames_index.csv"),
                     str(session_dir / "session.labels.csv"), "--csv-out",
                     str(tmp_path / "report.csv")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "detection_rate: 1.0000" in out
        assert "extraction_rate: 1.0000" in out
        report = (tmp_path / "report.csv").read_text()
        assert "containment_correct" in report


def _bands_not_numbers(d):
    return ["fft", str(d / "rec.csv"), "--bands", "1:x"]


def _frames_index_short_row(d):
    (d / "frames_index.csv").write_text("k,start,end\n1,10,20\n2,30\n")
    return ["eval-detect", str(d / "frames_index.csv"), str(d / "rec.labels.csv")]


def _labels_not_integer(d):
    (d / "frames_index.csv").write_text("k,start,end\n1,10,20\n")
    (d / "rec.labels.csv").write_text("class_id,true_start,true_end\n1,12,1.5\n")
    return ["eval-detect", str(d / "frames_index.csv"), str(d / "rec.labels.csv")]


def _manifest_rate_for_recording(d):
    (d / "manifest.txt").write_text("sampling_rate=fast\n")
    return ["detect", str(d / "rec.csv"), "--out-dir", str(d / "frames")]


def _manifest_rate_not_finite(d):
    (d / "manifest.txt").write_text("sampling_rate=nan\n")
    return ["fft", str(d / "rec.csv")]


def _simulate_dataset_no_classes(d):
    return ["simulate", "--mode", "dataset", "--classes", "0", "--out", str(d / "data")]


def _simulate_session_no_classes(d):
    return ["simulate", "--mode", "session", "--classes", "0", "--out", str(d / "sess")]


def _manifest_rate_for_dataset(d):
    (d / "manifest.txt").write_text("sampling_rate=fast\n")
    return ["train", "--data", str(d), "--out", str(d / "model.bin"), "--epochs", "1"]


class TestBoundaryErrors:
    @pytest.mark.parametrize(
        "make_argv",
        [
            _bands_not_numbers,
            _frames_index_short_row,
            _labels_not_integer,
            _manifest_rate_for_recording,
            _manifest_rate_not_finite,
            _manifest_rate_for_dataset,
            _simulate_dataset_no_classes,
            _simulate_session_no_classes,
        ],
    )
    def test_bad_input_is_one_line_config_error(self, tmp_path, capsys, params, make_argv):
        rec = generate_gesture(5, 1, params, sampling_rate=53.0)
        save_recording(tmp_path / "rec_0001.csv", rec.stream)
        save_recording(tmp_path / "rec.csv", rec.stream)
        save_labels(tmp_path / "rec.labels.csv", rec.events)
        code = main(make_argv(tmp_path))
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def _byte_in_recording_cell(d):
    # Far past the first block the text reader decodes.
    rows = (d / "rec.csv").read_bytes().split(b"\r\n")
    rows[300] = rows[300].replace(b",", b",\xff", 1)
    (d / "bad.csv").write_bytes(b"\r\n".join(rows))
    return ["detect", str(d / "bad.csv"), "--out-dir", str(d / "frames")], "bad.csv:301"


def _byte_in_short_recording(d):
    # Inside the first block, read with the header.
    (d / "bad.csv").write_bytes(b"index,s1,s2,s3,s4\r\n0,1,2,3,4\r\n1,1,\xff,3,4\r\n")
    return ["detect", str(d / "bad.csv"), "--out-dir", str(d / "frames")], "bad.csv:3"


def _byte_in_labels(d):
    (d / "frames_index.csv").write_text("k,start,end\n1,10,20\n")
    (d / "bad.labels.csv").write_bytes(b"class_id,true_start,true_end\n1,12,\xff\n")
    return (
        ["eval-detect", str(d / "frames_index.csv"), str(d / "bad.labels.csv")],
        "bad.labels.csv:2",
    )


def _byte_in_frames_index(d):
    (d / "frames_index.csv").write_bytes(b"k,start,end\n1,10,20\n\xff,30,40\n")
    return (
        ["eval-detect", str(d / "frames_index.csv"), str(d / "rec.labels.csv")],
        "frames_index.csv:3",
    )


def _byte_in_config(d):
    (d / "bad.cfg").write_bytes(b"detector.phi=55\n# \xff\n")
    return (
        ["detect", str(d / "rec.csv"), "--config", str(d / "bad.cfg"),
         "--out-dir", str(d / "frames")],
        "bad.cfg:2",
    )


class TestUndecodableInput:
    @pytest.mark.parametrize(
        "make_argv",
        [
            _byte_in_recording_cell,
            _byte_in_short_recording,
            _byte_in_labels,
            _byte_in_frames_index,
            _byte_in_config,
        ],
    )
    def test_non_utf8_byte_is_one_line_config_error(self, tmp_path, capsys, params, make_argv):
        rec = generate_gesture(5, 1, params, sampling_rate=53.0)
        save_recording(tmp_path / "rec.csv", rec.stream)
        save_labels(tmp_path / "rec.labels.csv", rec.events)
        argv, where = make_argv(tmp_path)
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{where}: byte 0xff" in err
        assert not (tmp_path / "frames").exists()


class TestProcessAndFft:
    def test_process_weighted_diff_output(self, session_dir, tmp_path):
        out_csv = tmp_path / "proc.csv"
        code = main(["process", str(session_dir / "session.csv"), "--out", str(out_csv)])
        assert code == EXIT_OK
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "s1", "s2", "s3", "s4"]
        assert int(rows[1][0]) == 5  # smoothing window latency

    def test_process_stdout_equals_file_in_csv_module_format(self, session_dir, tmp_path, capsys):
        recording = str(session_dir / "session.csv")
        out_csv = tmp_path / "out.csv"
        assert main(["process", recording, "--out", str(out_csv)]) == EXIT_OK
        capsys.readouterr()
        assert main(["process", recording]) == EXIT_OK
        text = out_csv.read_bytes().decode()
        lines = text.splitlines(keepends=True)  # lists keep a failing diff short
        assert capsys.readouterr().out.splitlines(keepends=True) == lines
        # The rows csv.writer gives for six-decimal cells, indices counting up by one.
        rows = list(csv.reader(io.StringIO(text, newline="")))
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(rows[0])
        first = int(rows[1][0])
        writer.writerows(
            [i] + [f"{float(v):.6f}" for v in row[1:]] for i, row in enumerate(rows[1:], start=first)
        )
        assert expected.getvalue().splitlines(keepends=True) == lines

    def test_fft_band_table_low_band_dominates(self, tmp_path, capsys, params):
        # High-rate gesture so the reference bands fit under Nyquist.
        rec = generate_gesture(31, 1, params, sampling_rate=1200.0,
                               pre_roll_seconds=1.0, tail_seconds=1.0)
        rec_path = tmp_path / "fast.csv"
        save_recording(rec_path, rec.stream)
        save_labels(labels_path_for(rec_path), rec.events)
        code = main(["fft", str(rec_path), "--rate", "1200", "--bands",
                     "1:100,100:200", "--out", str(tmp_path / "spec.csv")])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "band_lo_hz,band_hi_hz,mean,std"
        low = lines[1].split(",")
        high = lines[2].split(",")
        assert float(low[3]) > float(high[3])
        spec = (tmp_path / "spec.csv").read_text().splitlines()
        assert spec[0] == "freq,magnitude"


class TestConfigPrecedence:
    def test_config_file_overrides_default_and_flag_wins(self, session_dir, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("detector.phi=55\ndetector.pre_pad=10\n")
        frames_dir = tmp_path / "f1"
        code = main(["detect", str(session_dir / "session.csv"), "--config", str(cfg),
                     "--out-dir", str(frames_dir), "--pre-pad", "30"])
        assert code == EXIT_OK
        frames = load_frame_index(frames_dir / "frames_index.csv")
        events = load_labels(session_dir / "session.labels.csv")
        # pre_pad=30 from the flag (not 10 from file): starts sit 30 before
        # the crossing, so frames still begin before their events.
        assert frames, "expected detections"
        for frame, ev in zip(frames, events):
            assert frame.start <= ev.start

    def test_bad_config_value_is_config_error(self, session_dir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("detector.phi=abc\n")
        code = main(["detect", str(session_dir / "session.csv"), "--config", str(cfg)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("key", ["detector.phy", "dsp.smoothing_window", "dsp.phi", "detector.lpf_cutoff", "dsp.lpf_cutoff"])
    def test_unknown_table_key_is_config_error(self, session_dir, tmp_path, capsys, key):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(f"{key}=55\n")
        code = main(["detect", str(session_dir / "session.csv"), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "frames")])
        assert code == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "frames").exists()

    def test_manifest_keys_and_known_table_keys_pass(self, session_dir, tmp_path):
        cfg = tmp_path / "manifest.cfg"
        cfg.write_text("seed=4\nsampling_rate=53.0\ndsp.smooth_window=5\n")
        code = main(["detect", str(session_dir / "session.csv"), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "frames")])
        assert code == EXIT_OK

    def test_missing_config_file_is_io_error(self, session_dir, tmp_path):
        code = main(["detect", str(session_dir / "session.csv"), "--config",
                     str(tmp_path / "nope.cfg")])
        assert code == EXIT_IO


class TestTrainEval:
    def test_train_eval_round_trip(self, tmp_path):
        data = tmp_path / "data"
        main(["simulate", "--mode", "dataset", "--classes", "3", "--per-class", "4",
              "--seed", "13", "--out", str(data)])
        model_path = tmp_path / "model.bin"
        code = main(["train", "--data", str(data), "--cell", "gru", "--out", str(model_path),
                     "--epochs", "8", "--seed", "1"])
        assert code == EXIT_OK
        assert model_path.exists()
        assert Path(str(model_path) + ".json").exists()
        code = main(["eval", "--model", str(model_path), "--data", str(data),
                     "--csv-out", str(tmp_path / "metrics.csv")])
        assert code == EXIT_OK
        text = (tmp_path / "metrics.csv").read_text()
        assert text.splitlines()[0] == "class,precision,recall,f1"

    @pytest.mark.parametrize(
        "flag, message",
        [("--hidden", "hidden_size"), ("--frame-length", "frame length")],
        ids=["hidden-0", "frame-length-0"],
    )
    def test_zero_model_size_is_config_error(self, tmp_path, capsys, flag, message):
        data = tmp_path / "data"
        main(["simulate", "--mode", "dataset", "--classes", "3", "--per-class", "2",
              "--seed", "4", "--out", str(data)])
        model_path = tmp_path / "model.bin"
        code = main(["train", "--data", str(data), "--out", str(model_path),
                     "--epochs", "1", flag, "0"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not model_path.exists()

    def test_empty_validation_split_is_config_error(self, tmp_path, capsys):
        # 2 frames per class: round(2 * 0.2) = 0 held out, so no val_acc.
        data = tmp_path / "data"
        main(["simulate", "--mode", "dataset", "--classes", "3", "--per-class", "2",
              "--seed", "4", "--out", str(data)])
        model_path = tmp_path / "model.bin"
        code = main(["train", "--data", str(data), "--out", str(model_path), "--epochs", "1"])
        assert code == EXIT_CONFIG
        assert "validation split is empty" in capsys.readouterr().err
        assert not model_path.exists()

    def test_eval_reads_the_frame_length_from_the_model(self, tmp_path):
        data = tmp_path / "data"
        main(["simulate", "--mode", "dataset", "--classes", "3", "--per-class", "4",
              "--seed", "13", "--out", str(data)])
        model_path = tmp_path / "model.bin"
        assert main(["train", "--data", str(data), "--out", str(model_path), "--epochs", "2",
                     "--frame-length", "48"]) == EXIT_OK
        model = load_model(model_path)
        assert model.frame_length == 48
        assert main(["eval", "--model", str(model_path), "--data", str(data),
                     "--csv-out", str(tmp_path / "metrics.csv")]) == EXIT_OK
        tensors, labels = dataset_tensors(load_dataset(data), length=48)
        accuracy = evaluate(model, tensors, labels).accuracy
        rows = list(csv.reader((tmp_path / "metrics.csv").open()))
        assert rows[-1] == ["accuracy", f"{accuracy:.6f}", "", ""]


@pytest.fixture
def model_at_post_pad_35(tmp_path):
    # Untrained: these tests check how frames are cut, not accuracy. On the
    # seed-13 dataset, seed 3's predictions differ between pads 35 and 70.
    model = ClassifierModel.initialize("gru", seed=3, geometry=FrameGeometry(post_pad=35))
    path = tmp_path / "m35.bin"
    save_model(model, path)
    return model, path


class TestModelGeometry:
    def test_train_records_the_geometry_of_its_frames(self, tmp_path):
        data = tmp_path / "data"
        main(["simulate", "--mode", "dataset", "--classes", "3", "--per-class", "4",
              "--seed", "13", "--out", str(data)])
        model_path = tmp_path / "model.bin"
        assert main(["train", "--data", str(data), "--out", str(model_path), "--epochs", "1",
                     "--post-pad", "35", "--sensitivity", "0.6"]) == EXIT_OK
        expected = FrameGeometry(post_pad=35, sensitivity=(0.6,) * 4)
        assert load_model(model_path).geometry == expected
        sidecar = json.loads(Path(str(model_path) + ".json").read_text())
        assert (sidecar["post_pad"], sidecar["sensitivity"]) == (35, [0.6] * 4)

    def test_eval_cuts_frames_with_the_model_geometry(self, tmp_path, model_at_post_pad_35):
        model, model_path = model_at_post_pad_35
        data = tmp_path / "data"
        main(["simulate", "--mode", "dataset", "--classes", "3", "--per-class", "4",
              "--seed", "13", "--out", str(data)])
        out = tmp_path / "metrics.csv"
        assert main(["eval", "--model", str(model_path), "--data", str(data),
                     "--csv-out", str(out)]) == EXIT_OK
        recs = load_dataset(data)

        def summary(post_pad):
            tensors, labels = dataset_tensors(recs, det_cfg=DetectorConfig(post_pad=post_pad))
            rep = evaluate(model, tensors, labels)
            return [["macro", f"{rep.macro_precision:.6f}", f"{rep.macro_recall:.6f}",
                     f"{rep.macro_f1:.6f}"], ["accuracy", f"{rep.accuracy:.6f}", "", ""]]

        assert summary(35) != summary(70)
        assert list(csv.reader(out.open()))[-2:] == summary(35)

    def test_run_cuts_frames_with_the_model_geometry(self, session_dir, tmp_path, model_at_post_pad_35):
        model, model_path = model_at_post_pad_35
        recording = session_dir / "session.csv"
        log = tmp_path / "run.ndjson"
        assert main(["run", "--source", f"file:{recording}", "--model", str(model_path),
                     "--no-socket", "--unpaced", "--log", str(log)]) == EXIT_OK
        messages = [json.loads(line) for line in log.read_text().splitlines()]
        stream = load_recording(recording)

        def stamps(post_pad):
            frames = run_detector(stream, det_cfg=DetectorConfig(post_pad=post_pad))
            return frames, [(f.k, int(round(f.end / stream.sampling_rate * 1000.0))) for f in frames]

        frames, expected = stamps(35)
        assert expected != stamps(70)[1]
        assert [(m["frame_index"], m["timestamp_ms"]) for m in messages] == expected
        for msg, frame in zip(messages, frames):
            pred = model.predict(frame_to_tensor(frame, model.frame_length))
            assert (msg["class_id"], msg["probability"]) == (pred.class_id, float(pred.probabilities.max()))

    def test_run_config_geometry_key_that_disagrees_exits_2(self, session_dir, tmp_path, capsys,
                                                            model_at_post_pad_35):
        _, model_path = model_at_post_pad_35
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("detector.phi=20\ndetector.post_pad=70\n")
        log = tmp_path / "run.ndjson"
        code = main(["run", "--source", f"file:{session_dir / 'session.csv'}", "--model",
                     str(model_path), "--no-socket", "--unpaced", "--config", str(cfg),
                     "--log", str(log)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "post_pad 70" in err and "35" in err
        assert not log.exists()

    @pytest.mark.parametrize("case", ["missing-model", "geometry-key-disagrees"])
    def test_run_live_checks_the_model_before_connecting(self, tmp_path, capsys, model_at_post_pad_35,
                                                         case):
        _, model_path = model_at_post_pad_35
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("detector.post_pad=70\n")
        with socket.create_server(("127.0.0.1", 0)) as listener:
            argv = ["run", "--source", f"live:127.0.0.1:{listener.getsockname()[1]}", "--no-socket"]
            if case == "missing-model":
                argv += ["--model", str(tmp_path / "absent.bin")]
            else:
                argv += ["--model", str(model_path), "--config", str(cfg)]
            code = main(argv)
            # A connect completes in the listen backlog even unaccepted, so
            # accept() would return it at once.
            listener.settimeout(0.2)
            with pytest.raises(TimeoutError):
                listener.accept()
        err = capsys.readouterr().err
        assert code == (EXIT_IO if case == "missing-model" else EXIT_CONFIG)
        assert err.startswith("error: ") and err.count("\n") == 1
