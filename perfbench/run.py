#!/usr/bin/env python3
"""capstream benchmark: four seeded workloads, end-to-end and per-layer metrics.

Usage:
    python3 perfbench/run.py --workload {replay,live,offline,train,all}
        [--seed 2024] [--seconds N] [--trace 0|1]

Run from the root of a source checkout; capstream is imported from its
``src`` directory. Every workload checks its outputs against a reference
computed in set-up; the command exits 1 if any check fails and 2 if it
cannot start. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced run. The last line of standard
output is one JSON object; spans and the full result, with the
environment, go under ``.perfbench_out/``.

Seeds: 2024 is the default seed; 7 is held out for confirming a claim made
on the default seed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 2024
HELD_OUT_SEED = 7

SPEC = ROOT / "BENCHMARK.json"


def cannot_start(message: str):
    """Exit 2 without a result line: the benchmark cannot run here."""
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def metric_specs() -> tuple[dict[str, str], dict[str, str], int]:
    """BENCHMARK.json's end-to-end and per-layer {name: unit}, and its run_seconds.

    Every workload reports all end-to-end metrics with --trace 0 and all
    per-layer metrics with --trace 1; a layer the workload leaves idle reads
    0. perfbench/README.md says which end-to-end metric each layer metric
    should move, on which workload.
    """
    try:
        spec = json.loads(SPEC.read_text())
        return (
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            int(spec["run_seconds"]),
        )
    except (OSError, ValueError, KeyError, TypeError) as exc:
        cannot_start(f"cannot read {SPEC}: {exc}")


# Per-layer set-up costs, taken from the spans of the traced set-up.
_SETUP_SPANS = {
    "simulate.session_s": "simulate.generate_session",
    "simulate.dataset_s": "simulate.generate_dataset",
    "dataset.tensors_s": "dataset.dataset_tensors",
}


def import_capstream():
    """Put the checkout's src first on the path and import capstream from it."""
    src = ROOT / "src"
    if not (src / "capstream" / "__init__.py").is_file():
        cannot_start(f"no capstream sources under {src}")
    sys.path.insert(0, str(src))
    import capstream

    if Path(capstream.__file__).resolve().parent != (src / "capstream").resolve():
        cannot_start(f"imported capstream from {capstream.__file__}, not {src}")
    return capstream


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git_sha": git_sha(),
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes, work_dir: Path, layer_metrics):
    """Run one workload; returns (Outcome, tracer or None)."""
    import workloads
    from tracing import Tracer

    tracer = Tracer() if trace else None
    ctx = workloads.Ctx(seed=seed, seconds=seconds, sizes=sizes, work_dir=work_dir, tracer=tracer)
    res = workloads.WORKLOADS[name](ctx)
    if tracer is not None:
        for metric, span in _SETUP_SPANS.items():
            res.layers[metric] = workloads.median_s(tracer, span)
        for layer, self_s in tracer.self_times_s().items():
            res.layers[f"{layer}.self_s"] = self_s
        res.layers["trace.spans"] = float(len(tracer))
        res.layers = {m: float(res.layers.get(m, 0.0)) for m in layer_metrics}
    else:
        failed_frac = res.failed / res.attempted if res.attempted else 1.0
        res.info["failed_frac"] = (failed_frac, "1")
    return res, tracer


def report(name: str, res, values: dict[str, float], units: dict[str, str], out=sys.stdout) -> dict:
    """Print one line per check and metric; returns the metrics as {name: {value, unit}}."""
    for check, ok, detail in res.checks:
        if not ok:
            print(f"[{name}] CHECK FAILED: {check} {detail}".rstrip(), file=out)
    passed = sum(ok for _, ok, _ in res.checks)
    print(f"[{name}] checks: {passed}/{len(res.checks)} passed; results: "
          f"{res.attempted - res.failed}/{res.attempted} correct", file=out)
    metrics = {m: {"value": float(values[m]), "unit": u} for m, u in units.items()}
    for m, (value, unit) in res.info.items():
        print(f"[{name}] {m} = {value:.6g} {unit}", file=out)
    for m, v in metrics.items():
        print(f"[{name}] {m} = {v['value']:.6g} {v['unit']}", file=out)
    return metrics


def main(argv=None, sizes=None, out=sys.stdout) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("replay", "live", "offline", "train", "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, help="measured time (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    e2e_metrics, layer_metrics, run_seconds = metric_specs()
    if args.seconds is None:
        args.seconds = float(run_seconds)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    import_capstream()
    import workloads  # after capstream: it imports capstream at module level

    sizes = sizes or workloads.FULL
    OUT_DIR.mkdir(exist_ok=True)
    env = environment()
    print(f"env {json.dumps(env, sort_keys=True)}", file=out)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    results = {}
    try:
        for name in names:
            t0 = time.perf_counter()
            res, tracer = run_workload(name, args.seed, args.seconds, trace, sizes, work_dir, layer_metrics)
            if trace:
                metrics = report(name, res, res.layers, layer_metrics, out)
            else:
                metrics = report(name, res, res.e2e, e2e_metrics, out)
            print(f"[{name}] run took {time.perf_counter() - t0:.1f} s", file=out)
            results[name] = (res, metrics)
            tag = f"{name}-seed{args.seed}-trace{args.trace}"
            if tracer is not None:
                tracer.write(OUT_DIR / f"spans-{tag}.npz")
            (OUT_DIR / f"result-{tag}.json").write_text(json.dumps({
                "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                "env": env, "correct": res.correct, "attempted": res.attempted, "failed": res.failed,
                "checks": res.checks, "metrics": metrics,
                "info": {k: {"value": v, "unit": u} for k, (v, u) in res.info.items()},
            }, indent=2) + "\n")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    correct = all(res.correct for res, _ in results.values())
    if len(names) == 1:
        metrics = results[names[0]][1]
    else:
        metrics = {f"{n}/{m}": v for n, (_, ms) in results.items() for m, v in ms.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(res.attempted for res, _ in results.values()),
        "failed": sum(res.failed for res, _ in results.values()),
        "metrics": metrics,
    }), file=out)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
