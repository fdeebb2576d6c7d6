from __future__ import annotations

import csv
import io
from pathlib import Path

import pytest

from capstream.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, build_parser, main
from capstream.simulate import generate_gesture
from capstream.storage import (
    labels_path_for,
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


_DETECTION_DESTS = {
    "config",
    "detector_phi",
    "detector_update_period",
    "detector_pre_pad",
    "detector_post_pad",
    "detector_safety_period",
    "detector_init_period",
    "detector_warmup_period",
    "detector_max_crossing_window",
    "dsp_sensitivity",
    "dsp_smooth_window",
}

# Every option dest, positionals included, that each subcommand accepts: the
# ones its handler reads and no others.
_ACCEPTED_DESTS = {
    "simulate": {"seed", "mode", "classes", "per_class", "rate", "idle_seconds", "out"},
    "process": {"recording", "scheme", "rate", "out", "config",
                "dsp_sensitivity", "dsp_smooth_window", "dsp_lpf_cutoff"},
    "fft": {"recording", "channel", "rate", "bands", "out"},
    "detect": {"recording", "rate", "out_dir"} | _DETECTION_DESTS,
    "train": {"seed", "data", "cell", "out", "epochs", "batch_size", "learning_rate", "hidden",
              "frame_length"} | _DETECTION_DESTS,
    "eval": {"model", "data", "frame_length", "csv_out"} | _DETECTION_DESTS,
    "eval-detect": {"frames", "labels", "iou_min", "csv_out"},
    "run": {"source", "model", "socket", "no_socket", "unpaced", "rate", "log"} | _DETECTION_DESTS,
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
        assert sum(len(dests) for dests in accepted.values()) == 93

    @pytest.mark.parametrize(
        "argv",
        [
            ["process", "rec.csv", "--phi", "999"],
            ["process", "rec.csv", "--seed", "1"],
            ["process", "rec.csv", "--scheme", "literal-sum"],
            ["fft", "rec.csv", "--seed", "1"],
            ["fft", "rec.csv", "--config", "exp.cfg"],
            ["simulate", "--out", "out", "--config", "exp.cfg"],
            ["detect", "rec.csv", "--lpf-cutoff", "10"],
            ["detect", "rec.csv", "--seed", "1"],
            ["train", "--data", "data", "--out", "m.bin", "--lpf-cutoff", "10"],
            ["eval", "--model", "m.bin", "--data", "data", "--seed", "1"],
            ["eval-detect", "frames.csv", "labels.csv", "--config", "exp.cfg"],
            ["run", "--source", "file:rec.csv", "--model", "m.bin", "--frame-length", "64"],
            ["run", "--source", "file:rec.csv", "--model", "m.bin", "--lpf-cutoff", "10"],
            ["consume", "--config", "nope.cfg"],
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


class TestProcessAndFft:
    def test_process_weighted_diff_output(self, session_dir, tmp_path):
        out_csv = tmp_path / "proc.csv"
        code = main(["process", str(session_dir / "session.csv"), "--out", str(out_csv)])
        assert code == EXIT_OK
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "s1", "s2", "s3", "s4"]
        assert int(rows[1][0]) == 5  # smoothing window latency

    def test_process_pairwise_has_six_columns(self, session_dir, tmp_path):
        out_csv = tmp_path / "pairs.csv"
        main(["process", str(session_dir / "session.csv"), "--scheme", "pairwise-diff",
              "--out", str(out_csv)])
        with open(out_csv, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["index", "s1s2", "s1s3", "s1s4", "s2s3", "s2s4", "s3s4"]

    def test_process_low_pass_default_cutoff_fits_default_rate(self, session_dir, tmp_path):
        # The session is at the default 53 Hz, so the default cutoff must lie below 26.5 Hz.
        out_csv = tmp_path / "lpf.csv"
        code = main(["process", str(session_dir / "session.csv"), "--scheme", "low-pass",
                     "--out", str(out_csv)])
        assert code == EXIT_OK
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "s1", "s2", "s3", "s4"]
        assert len(rows) - 1 == len(load_recording(session_dir / "session.csv"))

    @pytest.mark.parametrize("scheme", ["weighted-diff", "pairwise-diff", "low-pass"])
    def test_process_stdout_equals_file_in_csv_module_format(self, session_dir, tmp_path, capsys, scheme):
        recording = str(session_dir / "session.csv")
        out_csv = tmp_path / "out.csv"
        assert main(["process", recording, "--scheme", scheme, "--out", str(out_csv)]) == EXIT_OK
        capsys.readouterr()
        assert main(["process", recording, "--scheme", scheme]) == EXIT_OK
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

    @pytest.mark.parametrize("key", ["detector.phy", "dsp.smoothing_window", "dsp.phi", "detector.lpf_cutoff"])
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
        cfg.write_text("seed=4\nsampling_rate=53.0\ndsp.lpf_cutoff=10\n")
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
