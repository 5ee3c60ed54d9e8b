#!/usr/bin/env python3
"""RPSLyzer end-to-end benchmark: one command, three workloads.

    python3 perfbench/run.py --workload table-cold --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run of the same inputs.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it is the run manifest
(host calibration, nproc, Python version, source digest, seed).  See
METHOD.md for what each workload measures and why.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    WORK_ROOT,
    BenchError,
    calibrate,
    manifest,
    require_sources,
    spec_metrics,
)

WORKLOAD_PARTS = {
    "table-cold": {"world", "table"},
    "serve-steady": {"world", "export", "pool"},
    "serve-churn": {"world", "export", "pool", "journals"},
}


def _workload(name: str):
    if name == "table-cold":
        from table_cold import table_cold

        return table_cold
    from serving import serve_churn, serve_steady

    return serve_steady if name == "serve-steady" else serve_churn


def run(workload: str, seed: int, seconds: float, trace: bool, preset: str) -> dict:
    require_sources()
    from inputs import ensure

    header = manifest(workload, seed, seconds, trace)
    if preset == "full":
        preset = "table" if workload == "table-cold" else "serve"
    inputs = ensure(preset, seed, WORKLOAD_PARTS[workload])
    run_dir = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if trace:
            from tracing import traced_run

            result = traced_run(workload, inputs, run_dir, seed, seconds, preset)
        else:
            result = _workload(workload)(inputs, run_dir, seed, seconds, preset)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    header["preset"] = preset
    header["calib_ms_after"] = round(calibrate(), 3)
    header["info"] = result["info"]
    metrics = {
        name: {"value": float(value), "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    failed = int(result["failed"])
    return {
        "manifest": header,
        "result": {
            "correct": failed == 0,
            "attempted": int(result["attempted"]),
            "failed": failed,
            "metrics": metrics,
        },
    }


def self_test(seconds: float) -> int:
    """Every workload end to end on the tiny preset, untraced and traced."""
    problems = []
    for workload in WORKLOAD_PARTS:
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload, "--seed", "3", "--seconds", str(seconds),
                "--trace", str(trace), "--preset", "tiny",
            ]
            began = time.perf_counter()
            done = subprocess.run(command, capture_output=True, text=True, timeout=600)
            label = f"{workload} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expected = spec_metrics("per_layer" if trace else "end_to_end")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                problems.append(f"{label}: metrics/units differ from BENCHMARK.json: {got}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: oracle failed ({result['failed']} failed)")
            if not trace and any(m["value"] <= 0 for m in result["metrics"].values()):
                problems.append(f"{label}: an end-to-end metric is not positive")
            print(f"self-test {label}: ok in {time.perf_counter() - began:.1f}s", file=sys.stderr)
    for problem in problems:
        print(f"self-test FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="RPSLyzer end-to-end benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOAD_PARTS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--preset", choices=("full", "tiny"), default="full")
    parser.add_argument(
        "--self-test", action="store_true", help="tiny-preset smoke run of every workload"
    )
    args = parser.parse_args()
    try:
        if args.self_test:
            require_sources()
            return self_test(seconds=3.0)
        if args.workload is None:
            parser.error("--workload is required")
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), args.preset)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(outcome["manifest"], sort_keys=True))
    print(json.dumps(outcome["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
