#!/usr/bin/env python3
"""Fast self-test of the benchmark at tiny input sizes.

Checks that:
  * every workload, untraced and traced, prints every metric with its unit
    and ends with one JSON line holding exactly those metrics;
  * a dropped message (replay and live) or a miscounted detection (offline)
    makes the reference check fail and the run exit 1;
  * without the capstream sources the benchmark exits non-zero without
    printing a result.

Usage (from the root of the checkout):
    python3 perfbench/selftest.py
"""
from __future__ import annotations

import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run

LINE = re.compile(r"^\[(?P<wl>\w+)\] (?P<name>\S+) = (?P<value>\S+) (?P<unit>\S+)$")
WORKLOADS = ("replay", "live", "offline", "train")
SECONDS = "0.2"


def run_tiny(args: list[str]) -> tuple[int, str]:
    import workloads

    buf = io.StringIO()
    code = run.main(args + ["--seconds", SECONDS], sizes=workloads.TINY, out=buf)
    return code, buf.getvalue()


def printed(text: str) -> dict[tuple[str, str], str]:
    """{(workload, metric): unit} of every metric line."""
    out = {}
    for line in text.splitlines():
        m = LINE.match(line)
        if m:
            float(m["value"])
            out[(m["wl"], m["name"])] = m["unit"]
    return out


def check_all_metrics(trace: int, expected: dict[str, str], extra: tuple[str, ...]) -> list[str]:
    problems = []
    code, text = run_tiny(["--workload", "all", "--trace", str(trace)])
    if code != 0:
        problems.append(f"trace {trace}: exit {code}\n{text}")
    lines = printed(text)
    final = json.loads(text.strip().splitlines()[-1])
    for wl in WORKLOADS:
        for name, unit in list(expected.items()) + [(e, None) for e in extra]:
            got = lines.get((wl, name))
            if got is None or (unit is not None and got != unit):
                problems.append(f"trace {trace}: {wl} {name} printed with unit {got!r}, want {unit!r}")
        keys = {k.split("/", 1)[1] for k in final["metrics"] if k.startswith(wl + "/")}
        if keys != set(expected):
            problems.append(f"trace {trace}: {wl} JSON metrics {sorted(keys ^ set(expected))} differ")
    if not final["correct"] or final["failed"] != 0 or final["attempted"] < 1:
        problems.append(f"trace {trace}: final line {final}")
    return problems


def check_corruption_detected() -> list[str]:
    """Corrupt one output of replay, live and offline; each run must fail."""
    import capstream

    problems = []
    cases = {
        "replay": ("run_pipeline", lambda r: r.messages.pop()),
        "live": ("consume", lambda msgs: msgs.pop()),
        "offline": ("detection_rate", lambda rep: setattr(rep, "detected_events", rep.detected_events - 1)),
    }
    for wl, (attr, drop) in cases.items():
        orig = getattr(capstream, attr)

        def corrupted(*args, _orig=orig, _drop=drop, **kwargs):
            out = _orig(*args, **kwargs)
            _drop(out)
            return out

        setattr(capstream, attr, corrupted)
        try:
            code, text = run_tiny(["--workload", wl])
        finally:
            setattr(capstream, attr, orig)
        final = json.loads(text.strip().splitlines()[-1])
        if code != 1 or final["correct"] or final["failed"] < 1 or "CHECK FAILED" not in text:
            problems.append(f"{wl}: a dropped output went unnoticed (exit {code}, {final})")
    return problems


def check_bare_directory() -> list[str]:
    """BENCHMARK.json and perfbench alone: the run must fail without a result."""
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(Path(run.__file__).resolve().parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if (run.ROOT / "BENCHMARK.json").is_file():
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "replay", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode != 2 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    run.import_capstream()
    e2e_metrics, layer_metrics, _ = run.metric_specs()
    problems = []
    problems += check_all_metrics(0, e2e_metrics, ("failed_frac", "latency_p90_ms", "latency_samples"))
    problems += check_all_metrics(1, layer_metrics, ())
    problems += check_corruption_detected()
    problems += check_bare_directory()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
