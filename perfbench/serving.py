"""The two serving workloads: ``serve-steady`` and ``serve-churn``.

Both start ``python -m repro serve`` from an exported IR and a compiled
index made during untimed preparation, and drive it from one asyncio
process over two connections.  See METHOD.md for why each exists.
"""

from __future__ import annotations

import asyncio
import bisect
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

import loadgen
from common import BenchError, median, percentile
from daemon import Daemon
from loadgen import Connection, Request

SETUP_REPS = 3


@dataclass(frozen=True)
class ServePlan:
    fixed_rate: float  # requests/s, serve-steady's open loop
    churn_rate: float  # requests/s, serve-churn's reads
    depth: int  # requests kept outstanding per connection at saturation
    reload_period_s: float  # serve-churn: one /reload per period
    warmup: int  # requests sent before anything is timed


PLANS = {
    # serve-churn's daemon has no worker: reads, reloads and the cold hop
    # checks after each reload share one process.  At 150 req/s a slow
    # spell of the host pushed it past capacity and read latency grew
    # without bound; 100 req/s leaves it headroom.  METHOD.md has the basis
    # of every rate here.
    "serve": ServePlan(
        fixed_rate=150.0, churn_rate=100.0, depth=4, reload_period_s=0.5, warmup=1000
    ),
    "tiny": ServePlan(fixed_rate=60.0, churn_rate=60.0, depth=4, reload_period_s=0.3, warmup=60),
}


def _zipf_sampler(size: int, rng: random.Random, exponent: float = 1.1):
    weights = [1.0 / (rank + 1) ** exponent for rank in range(size)]
    cumulative, total = [], 0.0
    for weight in weights:
        total += weight
        cumulative.append(total)

    def draw() -> int:
        return min(size - 1, bisect.bisect_left(cumulative, rng.random() * total))

    return draw


class Traffic:
    """Pre-encoded requests over a seeded route pool."""

    def __init__(self, pool: list[dict], seed: int, trace: bool = False):
        self.pool = pool
        self.rng = random.Random(seed)
        self.draw = _zipf_sampler(len(pool), self.rng)
        self.trace = trace
        self._http = [loadgen.http_request("/verify", loadgen.verify_body(r)) for r in pool]
        self._whois = [loadgen.whois_request(r) for r in pool]
        self._next_id = 0

    def request(self, kind: str, index: int, due: float) -> Request:
        if kind == "whois":
            return Request(due, self._whois[index], ("whois", index))
        if self.trace:
            # The span id doubles as the request id the daemon logs.
            self._next_id += 1
            rid = f"bench{self._next_id:08d}"
            payload = loadgen.http_request(
                "/verify", loadgen.verify_body(self.pool[index]), rid
            )
            return Request(due, payload, ("http", index, rid))
        return Request(due, self._http[index], ("http", index))

    def fixed(self, kinds: tuple[str, ...], rate: float, seconds: float) -> list[list[Request]]:
        dues = loadgen.fixed_rate_schedule(rate, seconds, len(kinds))
        return [
            [self.request(kind, self.draw(), due) for due in stream]
            for kind, stream in zip(kinds, dues)
        ]

    def sweep(self, kinds: tuple[str, ...], count: int) -> list[list[Request]]:
        """Every pool route once (up to ``count``), all due immediately."""
        streams: list[list[Request]] = [[] for _ in kinds]
        for index in range(min(count, len(self.pool))):
            slot = index % len(kinds)
            streams[slot].append(self.request(kinds[slot], index, 0.0))
        return streams


async def _open(daemon: Daemon, kinds: tuple[str, ...]) -> list[Connection]:
    ports = {"http": daemon.http_port, "whois": daemon.whois_port}
    return [await Connection.open(kind, "127.0.0.1", ports[kind]) for kind in kinds]


async def _phase(daemon: Daemon, kinds, streams, seconds: float):
    conns = await _open(daemon, kinds)
    try:
        return await loadgen.run_phase(list(zip(conns, streams)), seconds + 60.0)
    finally:
        for conn in conns:
            await conn.close()


def _flat(results) -> list:
    return [outcome for stream in results for outcome in stream]


def _setup(run_dir: Path, inputs, workers: int, reps: int) -> tuple[Daemon, list[float]]:
    """Spawn the daemon ``reps`` times; keep the last one running."""
    times = []
    daemon = None
    for rep in range(reps):
        if daemon is not None:
            daemon.stop()
        daemon = Daemon(run_dir, inputs, workers=workers, name=f"setup{rep}")
        times.append(daemon.start())
    return daemon, times


def _expected_reports(inputs, routes: set[tuple]) -> dict[tuple, tuple]:
    """Reference (statuses, text) per route via ``Session.verify_route``."""
    from repro import api

    expected = {}
    with api.open_session(
        inputs.ir,
        as_rel=inputs.as_rel,
        index=inputs.index,
    ) as session:
        for prefix, as_path in sorted(routes):
            report = session.verify_route(prefix, as_path)
            expected[(prefix, as_path)] = (
                [hop.status.label for hop in report.hops],
                str(report),
            )
    return expected


def _frame(text: str) -> bytes:
    payload = text + "\n" if text else ""
    return f"A{len(payload.encode())}\n{payload}C\n".encode()


def check_served(outcomes, pool: list[dict], expected: dict) -> int:
    """Count answered requests whose verdict differs from the reference."""
    wrong = 0
    for outcome in outcomes:
        if not outcome.ok:
            continue
        kind, index = outcome.request.tag[0], outcome.request.tag[1]
        route = pool[index]
        statuses, text = expected[(route["prefix"], tuple(route["as_path"]))]
        if kind == "whois":
            wrong += outcome.body != _frame(text)
        else:
            answer = json.loads(outcome.body)
            served = [hop["status"] for hop in answer["hops"]]
            wrong += served != statuses or answer["text"] != text
    return wrong


def _served_routes(outcomes, pool) -> set[tuple]:
    return {
        (pool[o.request.tag[1]]["prefix"], tuple(pool[o.request.tag[1]]["as_path"]))
        for o in outcomes
    }


# -- serve-steady -----------------------------------------------------------


async def _saturate(daemon: Daemon, traffic: Traffic, seconds: float, depth: int):
    kinds = ("http", "whois")
    conns = await _open(daemon, kinds)
    # Pre-built requests, repeated endlessly: however fast the daemon
    # answers, the phase never runs out of requests or encodes one.
    queues = [itertools.cycle(stream) for stream in traffic.fixed(kinds, 2000.0, seconds)]
    try:
        return await loadgen.run_saturation(
            [(conn, queue.__next__) for conn, queue in zip(conns, queues)], seconds, depth
        )
    finally:
        for conn in conns:
            await conn.close()


def serve_steady(inputs, run_dir: Path, seed: int, seconds: float, preset: str):
    plan = PLANS[preset]
    pool = json.loads(inputs.pool.read_text())
    traffic = Traffic(pool, seed)
    kinds = ("http", "whois")
    daemon, setups = _setup(run_dir, inputs, workers=1, reps=SETUP_REPS)
    try:
        asyncio.run(_phase(daemon, kinds, traffic.sweep(kinds, plan.warmup), 0))
        half = seconds / 2.0
        fixed = _flat(
            asyncio.run(_phase(daemon, kinds, traffic.fixed(kinds, plan.fixed_rate, half), half))
        )
        saturated = _flat(asyncio.run(_saturate(daemon, traffic, half, plan.depth)))
        peak = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    stats = loadgen.summarize(fixed)
    measured = fixed + saturated
    expected = _expected_reports(inputs, _served_routes(measured, pool))
    wrong = check_served(measured, pool, expected)
    rates = loadgen.window_rates(saturated, half)
    windows = loadgen.window_p50s(fixed)
    info = {
        "setup_s": setups,
        "fixed": dict(sent=stats.sent, failed=stats.failed, p50_ms=stats.p50_ms,
                      p99_ms=stats.p99_ms, late_ms_max=stats.late_ms_max),
        "window_p50_ms": [round(value, 3) for value in windows],
        "saturation": dict(sent=len(saturated), failed=sum(not o.ok for o in saturated),
                           rates=rates),
        "wrong_verdicts": wrong,
    }
    metrics = {
        "setup_s": (median(setups), "s"),
        "throughput_per_s": (percentile(rates, 75), "1/s"),
        "latency_p50_ms": (percentile(windows, 25), "ms"),
        "peak_rss_mb": (peak, "MiB"),
    }
    failed = sum(not o.ok for o in measured) + wrong
    return dict(metrics=metrics, attempted=len(measured), failed=failed, info=info)


# -- serve-churn ------------------------------------------------------------


def _journal_requests(inputs) -> list[dict]:
    from repro.irr.journal import JOURNAL_FORMAT

    records = json.loads(inputs.journals.read_text())
    for record in records:
        body = json.dumps(
            {"journal": {"format": JOURNAL_FORMAT, "entries": record["entries"]}},
            separators=(",", ":"),
        ).encode()
        record["reload_bytes"] = loadgen.http_request("/reload", body)
        record["probe_bytes"] = loadgen.http_request(
            "/verify", loadgen.verify_body(record["probe"])
        )
    return records


def reload_steps(journals: list[dict], count: int, period: float) -> list:
    """One ``/reload`` plus its probe every ``period`` seconds."""
    return [
        (
            number * period,
            [
                Request(0.0, journals[number]["reload_bytes"], ("reload", number)),
                Request(0.0, journals[number]["probe_bytes"], ("probe", number)),
            ],
        )
        for number in range(count)
    ]


async def _churn_phase(daemon: Daemon, reads, steps, seconds: float):
    read_conn, write_conn = await _open(daemon, ("http", "http"))
    try:
        reads_task = asyncio.ensure_future(
            loadgen.run_phase([(read_conn, reads)], seconds + 60.0)
        )
        writes = await loadgen.run_sequence(write_conn, steps, seconds + 60.0)
        return (await reads_task)[0], writes
    finally:
        await read_conn.close()
        await write_conn.close()


def replay_reference(inputs, journals: list[dict]):
    """IRs after each journal, replayed with ``apply_journal_to_ir``."""
    from repro.ir.json_io import load_ir
    from repro.irr.journal import Journal, JournalEntry, apply_journal_to_ir

    ir = load_ir(inputs.ir)
    snapshots = []
    for record in journals:
        journal = Journal(entries=[JournalEntry.from_jsonable(e) for e in record["entries"]])
        ir, report = apply_journal_to_ir(ir, journal)
        if report:
            raise BenchError(f"reference replay degraded: {report.as_dict()}")
        snapshots.append((ir, journal))
    return snapshots


def check_reloads(inputs, journals: list[dict], writes) -> tuple[int, list[dict]]:
    """Reload summaries and post-reload probes against the replayed reference."""
    from repro import api
    from repro.bgp.topology import AsRelationships

    relationships = AsRelationships.load(inputs.as_rel)
    snapshots = replay_reference(inputs, journals[: len(writes)])
    wrong, summaries = 0, []
    for number, ((reload, probe), (ir, journal)) in enumerate(zip(writes, snapshots), 1):
        summary = json.loads(reload.body) if reload.ok else {}
        summaries.append(summary)
        good = (
            reload.ok
            and summary.get("generation") == number
            and summary.get("applied") == len(journal.entries)
            and summary.get("degraded") is False
        )
        route = journals[number - 1]["probe"]
        report = api.make_verifier(ir, relationships).verify_route(
            route["prefix"], tuple(route["as_path"])
        )
        if probe.ok:
            answer = json.loads(probe.body)
            good = good and answer["text"] == str(report) and [
                hop["status"] for hop in answer["hops"]
            ] == [hop.status.label for hop in report.hops]
        wrong += not (good and probe.ok)
    return wrong, summaries


def serve_churn(inputs, run_dir: Path, seed: int, seconds: float, preset: str):
    plan = PLANS[preset]
    pool = json.loads(inputs.pool.read_text())
    traffic = Traffic(pool, seed)
    journals = _journal_requests(inputs)
    count = min(len(journals), int(seconds / plan.reload_period_s))
    if count < 2:
        raise BenchError("too few journals for the run length")
    steps = reload_steps(journals, count, plan.reload_period_s)
    reads = traffic.fixed(("http",), plan.churn_rate, seconds)[0]
    daemon, setups = _setup(run_dir, inputs, workers=0, reps=SETUP_REPS)
    info: dict = {"setup_s": setups}
    try:
        warm = traffic.sweep(("http",), min(plan.warmup, 300))
        asyncio.run(_phase(daemon, ("http",), warm, 0))
        read_outcomes, writes = asyncio.run(_churn_phase(daemon, reads, steps, seconds))
        peak = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    stats = loadgen.summarize(read_outcomes)
    wrong, summaries = check_reloads(inputs, journals, writes)
    reload_ms = [(r.done - r.sent) * 1000.0 for r, _ in writes]
    # Journal entries made queryable per second of /reload round trip.
    reload_rates = [
        summary.get("applied", 0) / (ms / 1000.0) for summary, ms in zip(summaries, reload_ms)
    ]
    windows = loadgen.window_p50s(read_outcomes)
    info.update(
        reads=dict(sent=stats.sent, failed=stats.failed, p50_ms=stats.p50_ms,
                   p99_ms=stats.p99_ms, late_ms_max=stats.late_ms_max),
        window_p50_ms=[round(value, 3) for value in windows],
        reloads=len(writes),
        reload_p50_ms=percentile(reload_ms, 50),
        reload_p90_ms=percentile(reload_ms, 90),
        wrong_reloads=wrong,
    )
    metrics = {
        "setup_s": (median(setups), "s"),
        "throughput_per_s": (median(reload_rates), "1/s"),
        "latency_p50_ms": (percentile(windows, 25), "ms"),
        "peak_rss_mb": (peak, "MiB"),
    }
    failed = sum(not o.ok for o in read_outcomes) + wrong
    return dict(
        metrics=metrics, attempted=len(read_outcomes) + len(writes), failed=failed, info=info
    )
