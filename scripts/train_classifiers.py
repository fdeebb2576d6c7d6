#!/usr/bin/env python3
"""Train the GRU and LSTM classifiers on the seeded 1000-frame dataset.

Reference hyperparameters: hidden 20, dense 32-64-32, 60 epochs, batch 10,
learning rate 0.005, plain gradient descent. Prints per-model validation
accuracy and writes model files next to --out-dir.

With --sweep it writes no model: it trains both cells at every frame length
in SWEEP_LENGTHS and training seed in SWEEP_SEEDS, one worker process per
CPU, and prints one row per run with the training time, the accuracy on a
held-out dataset (seed 99, 30 per class) and the chain score, which replays
the 300-gesture sessions of seeds 2024 and 7 through run_pipeline and scores
the messages with metrics.command_score.

Usage:
    python scripts/train_classifiers.py --out-dir models/ [--per-class 100]
    python scripts/train_classifiers.py --sweep
"""
from __future__ import annotations

import argparse
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from capstream.classifier import TrainConfig, evaluate, save_model, train
from capstream.dataset import dataset_tensors
from capstream.detector import run_detector
from capstream.metrics import command_score
from capstream.runtime import FileReplaySource, PipelineConfig, run_pipeline
from capstream.simulate import PhysicsParams, generate_dataset, generate_session

CELLS = ("gru", "lstm")
HELD_OUT_SEED = 99
CHAIN_SESSIONS = (2024, 7)
PER_CLASS_HELD_OUT = 30
SWEEP_LENGTHS = (32, 48, 64, 96, 128)
SWEEP_SEEDS = (0, 1, 2)


def sweep_row(args, cell: str, length: int, train_seed: int) -> dict:
    """Train one model at one frame length and score it; runs in a worker."""
    recs = generate_dataset(args.seed, args.per_class, PhysicsParams(), args.rate)
    tensors, labels = dataset_tensors(recs, length=length)
    t0 = time.monotonic()
    model, history = train(tensors, labels, TrainConfig(epochs=args.epochs, seed=train_seed), cell_type=cell)
    train_s = time.monotonic() - t0
    held_out = generate_dataset(HELD_OUT_SEED, PER_CLASS_HELD_OUT, PhysicsParams(), args.rate)
    accuracy = evaluate(model, *dataset_tensors(held_out, length=length)).accuracy
    correct = unmatched = missed = events = 0
    for session_seed in CHAIN_SESSIONS:
        rec = generate_session(session_seed, PER_CLASS_HELD_OUT, PhysicsParams(), args.rate)
        result = run_pipeline(FileReplaySource.from_stream(rec.stream), PipelineConfig(), model)
        score = command_score(result.messages, run_detector(rec.stream), rec.events)
        correct += score.correct
        unmatched += score.unmatched
        missed += score.missed
        events += len(rec.events)
    return {
        "cell": cell, "T": length, "seed": train_seed, "train_s": train_s,
        "val_acc": history.val_acc[-1], "held_out_acc": accuracy,
        "correct": correct, "unmatched": unmatched, "missed": missed, "events": events,
    }


def run_sweep(args) -> None:
    runs = [(cell, length, seed) for cell in CELLS for length in SWEEP_LENGTHS for seed in SWEEP_SEEDS]
    print("cell  T    seed  train_s  val_acc  held_out_acc  correct  unmatched  missed  events", flush=True)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    # spawn, not fork: workers start from a fresh import.
    with ProcessPoolExecutor(cpus or 1, mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = [pool.submit(sweep_row, args, *run) for run in runs]
        rows = []
        for future in futures:
            r = future.result()
            rows.append(r)
            print(f"{r['cell']:<5} {r['T']:<4} {r['seed']:<5} {r['train_s']:7.1f}  {r['val_acc']:.4f}   "
                  f"{r['held_out_acc']:.4f}        {r['correct']:<7}  {r['unmatched']:<9}  "
                  f"{r['missed']:<6}  {r['events']}", flush=True)
    print("\nsummed over seeds and sessions (mean accuracies, mean training time):")
    print("cell  T    train_s  held_out_acc  correct  unmatched  missed  events")
    for cell in CELLS:
        for length in SWEEP_LENGTHS:
            group = [r for r in rows if r["cell"] == cell and r["T"] == length]
            n = len(group)
            print(f"{cell:<5} {length:<4} {sum(r['train_s'] for r in group) / n:7.1f}  "
                  f"{sum(r['held_out_acc'] for r in group) / n:.4f}        "
                  f"{sum(r['correct'] for r in group):<7}  {sum(r['unmatched'] for r in group):<9}  "
                  f"{sum(r['missed'] for r in group):<6}  {sum(r['events'] for r in group)}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--per-class", type=int, default=100)
    ap.add_argument("--rate", type=float, default=53.0)
    ap.add_argument("--epochs", type=int, default=60)
    ap.add_argument("--out-dir", default="models")
    ap.add_argument("--sweep", action="store_true", help="train and score every length and seed; write no model")
    args = ap.parse_args()
    if args.sweep:
        run_sweep(args)
        return

    print(f"building dataset: {10 * args.per_class} recordings ...")
    recs = generate_dataset(args.seed, args.per_class, PhysicsParams(), args.rate)
    tensors, labels = dataset_tensors(recs)
    print(f"  tensors {tensors.shape}")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for cell in CELLS:
        cfg = TrainConfig(epochs=args.epochs, seed=0)
        t0 = time.monotonic()
        model, history = train(tensors, labels, cfg, cell_type=cell)
        elapsed = time.monotonic() - t0
        path = out_dir / f"{cell}.bin"
        save_model(model, path)
        report = evaluate(model, tensors, labels)
        print(f"{cell}: val_acc={history.val_acc[-1]:.4f} "
              f"train_acc={history.train_acc[-1]:.4f} "
              f"full-set macro-F1={report.macro_f1:.4f} "
              f"({elapsed:.0f}s) -> {path}")


if __name__ == "__main__":
    main()
