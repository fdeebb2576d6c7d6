#!/usr/bin/env python3
"""Digest every output file of the capstream CLI on seeded inputs.

Runs capstream.cli.main through simulate (dataset, session and idle modes),
process (to a file and to stdout), fft, detect, eval-detect, a 2-epoch
train at 256 steps per frame, eval and an unpaced run without a socket, a
second train, eval and run chain whose model is trained at post_pad 35 and
the default frame length, so that eval and run must cut frames with the
model's geometry, and a third at 128 steps; all write under OUT_DIR.
The standard output of each command is kept as <step>.stdout, except for
run, whose summary line reports a wall-clock latency. Prints one
"sha256  name" line per file, sorted by name, so that two source trees can
be compared with diff:

    PYTHONPATH=<other checkout>/src python scripts/cli_digest.py /tmp/a > a.txt
    PYTHONPATH=src python scripts/cli_digest.py /tmp/b > b.txt
    diff a.txt b.txt

The steps run inside OUT_DIR with relative paths, so the outputs name no
absolute path. Every argv below is kept valid for the commits being
compared, so a difference is a change of behaviour, not of interface.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

from capstream.cli import EXIT_OK, main

# (step name, argv, keep stdout as <step>.stdout)
STEPS = (
    ("simulate-dataset", "simulate --mode dataset --classes 10 --per-class 3 --seed 3 --out data", True),
    ("simulate-session", "simulate --mode session --classes 10 --per-class 1 --seed 4 --out sess", True),
    ("simulate-idle", "simulate --mode idle --idle-seconds 30 --seed 5 --out idle", True),
    ("process-file", "process sess/session.csv --out processed.csv", True),
    ("process", "process sess/session.csv", True),
    ("fft", "fft sess/session.csv --out spectrum.csv", True),
    ("detect", "detect sess/session.csv --out-dir frames", True),
    ("eval-detect", "eval-detect frames/frames_index.csv sess/session.labels.csv --csv-out eval_detect.csv", True),
    ("train", "train --data data --epochs 2 --seed 1 --frame-length 256 --out gru.bin", True),
    ("eval", "eval --model gru.bin --data data --csv-out eval.csv", True),
    ("run", "run --source file:sess/session.csv --model gru.bin --no-socket --unpaced --log run.ndjson", False),
    ("train-post-pad-35", "train --data data --epochs 2 --seed 1 --post-pad 35 --out gru35.bin", True),
    ("eval-post-pad-35", "eval --model gru35.bin --data data --csv-out eval35.csv", True),
    ("run-post-pad-35",
     "run --source file:sess/session.csv --model gru35.bin --no-socket --unpaced --log run35.ndjson", False),
    ("train-128", "train --data data --epochs 2 --seed 1 --frame-length 128 --out gru128.bin", True),
    ("eval-128", "eval --model gru128.bin --data data --csv-out eval128.csv", True),
    ("run-128", "run --source file:sess/session.csv --model gru128.bin --no-socket --unpaced --log run128.ndjson",
     False),
)


def run_steps() -> None:
    """Run every step in the current directory; exit on the first failure."""
    for name, argv, keep_stdout in STEPS:
        with open(f"{name}.stdout" if keep_stdout else os.devnull, "w", newline="") as fh:
            with redirect_stdout(fh):
                code = main(argv.split())
        if code != EXIT_OK:
            sys.exit(f"{name}: capstream {argv} exited {code}")


def digests() -> list[str]:
    """One "sha256  path" line per file under the current directory, sorted by path."""
    return [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}"
        for path in sorted(Path(".").rglob("*"))
        if path.is_file()
    ]


def cli() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir", help="empty or missing directory for the outputs")
    out = Path(ap.parse_args().out_dir)
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    run_steps()
    print("\n".join(digests()))


if __name__ == "__main__":
    cli()
