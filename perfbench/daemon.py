"""Start, probe and stop ``python -m repro serve`` as its own process."""

from __future__ import annotations

import http.client
import json
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import (
    BenchError,
    child_env,
    child_pids,
    proc_cpu_s,
    proc_peak_rss_mb,
)

_BANNER = re.compile(r"^(http|whois) on [\d.]+:(\d+)", re.MULTILINE)
_SAMPLE = re.compile(r"^([A-Za-z_:][\w:]*)(\{[^}]*\})?\s+(\S+)$")
STAGES = ("accept", "queue", "coalesce", "dispatch", "execute", "respond")


def http_get(port: int, path: str, timeout: float = 10.0) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def scrape(port: int) -> dict[str, float]:
    """``GET /metrics`` as ``{"name{labels}": value}``."""
    status, body = http_get(port, "/metrics")
    if status != 200:
        raise BenchError(f"/metrics answered {status}")
    series = {}
    for line in body.decode().splitlines():
        matched = _SAMPLE.match(line)
        if matched:
            name, labels, value = matched.groups()
            series[name + (labels or "")] = float(value)
    return series


class Daemon:
    """One serve daemon on ephemeral ports, hermetic under ``run_dir``."""

    def __init__(
        self,
        run_dir: Path,
        inputs,
        *,
        workers: int,
        name: str,
        access_log: Path | None = None,
    ):
        self.run_dir = run_dir
        self.inputs = inputs
        self.workers = workers
        self.name = name
        self.access_log = access_log
        self.process: subprocess.Popen | None = None
        self.http_port = 0
        self.whois_port = 0
        self._stderr_path = run_dir / f"{name}.stderr"

    def start(self, timeout: float = 120.0) -> float:
        """Spawn the daemon; seconds from spawn until ``/healthz`` is ok."""
        command = [
            sys.executable, "-m", "repro", "serve",
            "--ir", str(self.inputs.ir),
            "--as-rel", str(self.inputs.as_rel),
            "--index", str(self.inputs.index),
            "--http-port", "0",
            "--whois-port", "0",
            "--workers", str(self.workers),
            "--cache-dir", str(self.run_dir / f"{self.name}-cache"),
            "--incident-dir", str(self.run_dir / f"{self.name}-incidents"),
        ]
        if self.access_log is not None:
            command += ["--access-log", str(self.access_log)]
        stderr = open(self._stderr_path, "wb")
        started = time.perf_counter()
        try:
            self.process = subprocess.Popen(
                command,
                cwd=self.run_dir,
                env=child_env(),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
            )
        finally:
            stderr.close()
        try:
            deadline = started + timeout
            while time.perf_counter() < deadline:
                if self.process.poll() is not None:
                    raise BenchError(f"daemon exited early:\n{self.stderr_tail()}")
                if not self.http_port:
                    banner = self._stderr_path.read_text(errors="replace")
                    ports = dict(_BANNER.findall(banner))
                    if "http" in ports and "whois" in ports:
                        self.http_port = int(ports["http"])
                        self.whois_port = int(ports["whois"])
                if self.http_port and self._healthy():
                    return time.perf_counter() - started
                time.sleep(0.005)
            raise BenchError(f"daemon not healthy after {timeout}s:\n{self.stderr_tail()}")
        except BaseException:
            self.stop()
            raise

    def _healthy(self) -> bool:
        try:
            status, body = http_get(self.http_port, "/healthz", timeout=2.0)
        except OSError:
            return False
        if status != 200:
            return False
        health = json.loads(body)
        if self.workers:
            return health.get("supervisor", {}).get("live") == self.workers
        return health.get("status") == "ok"

    def pids(self) -> list[int]:
        if self.process is None or self.process.poll() is not None:
            return []
        return [self.process.pid, *child_pids(self.process.pid)]

    def cpu_s(self) -> float:
        """CPU seconds used so far by the daemon and its live workers."""
        return sum(proc_cpu_s(pid) for pid in self.pids())

    def peak_rss_mb(self) -> float:
        """Peak RSS of the daemon plus its workers, MiB."""
        return sum(proc_peak_rss_mb(pid) for pid in self.pids())

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL; waits for the exit."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process = None

    def stderr_tail(self) -> str:
        try:
            return self._stderr_path.read_text(errors="replace")[-3000:]
        except FileNotFoundError:
            return ""


def stage_means_us(before: dict, after: dict) -> dict[str, float]:
    """Mean µs per request of each serve stage between two scrapes."""
    means = {}
    for stage in STAGES:
        key = f'{{stage="{stage}"}}'
        total = after.get("serve_stage_seconds_sum" + key, 0.0) - before.get(
            "serve_stage_seconds_sum" + key, 0.0
        )
        count = after.get("serve_stage_seconds_count" + key, 0.0) - before.get(
            "serve_stage_seconds_count" + key, 0.0
        )
        means[stage] = total / count * 1e6 if count else 0.0
    return means


def delta(before: dict, after: dict, prefix: str) -> float:
    """Summed change of every series whose name starts with ``prefix``."""
    keys = {key for key in (*before, *after) if key.startswith(prefix)}
    return sum(after.get(key, 0.0) - before.get(key, 0.0) for key in keys)
