"""Shared helpers: checkout paths, statistics, host calibration, process memory.

Nothing here imports the program under test, so :mod:`run` can check that
the checkout holds the sources before anything else is loaded.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Everything the benchmark writes lives under these two checkout-local
# directories (both ignored by git).
CACHE_ROOT = ROOT / ".perfbench_cache"
WORK_ROOT = ROOT / ".perfbench_work"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed set-up)."""


def require_sources() -> None:
    """Fail before importing anything when the checkout has no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def spec_metrics(section: str) -> dict[str, str]:
    """Metric name -> unit of one section of BENCHMARK.json, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def child_env() -> dict:
    """Environment for program subprocesses: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("RPSLYZER_CACHE_DIR", None)
    return env


def fresh_dir(parent: Path, name: str) -> Path:
    """An empty directory ``parent/name`` (removed first if it exists)."""
    path = parent / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- statistics -------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, min(len(ordered), int(round(q / 100.0 * len(ordered) + 0.5))))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values)


# -- host description -------------------------------------------------------


def calibrate(rounds: int = 5) -> float:
    """Milliseconds for a fixed pure-Python loop (median of ``rounds``).

    Recorded beside every run so host drift shows next to the metrics;
    nothing is normalised by it.
    """
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        table: dict[int, int] = {}
        total = 0
        for i in range(200_000):
            table[i & 1023] = table.get(i & 1023, 0) + i
            total += (i * 7919) % 104729
        samples.append((time.perf_counter() - started) * 1000.0)
        if total < 0 or not table:  # keep the loop's results live
            raise AssertionError
    return median(samples)


def source_digest() -> str:
    """Content digest of the program sources (the checkout is not a git repo)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def manifest(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "source_digest": source_digest(),
        "calib_ms": round(calibrate(), 3),
    }


# -- process memory ---------------------------------------------------------


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, MiB; 0 when it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0.0


def proc_cpu_s(pid: int) -> float:
    """User+system CPU seconds a live process has used (0 when gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return 0.0
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (the daemon's worker processes)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return sorted(found)
