"""The ``table-cold`` workload: dumps → warm Session → batch verification.

Every route is verified once, each batch by a fresh two-process pool, so
the hop checks are cold.  Nothing from ``serve`` runs.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path

from common import fresh_dir, median, percentile, self_peak_rss_mb

SETUP_REPS = 3
PROCESSES = 2
BATCH = {"table": 1000, "tiny": 300}
LATENCY_PASSES = 16
LATENCY_ROUTES = {"table": 600, "tiny": 100}


def open_cold_session(inputs, cache_dir: Path):
    from repro import api

    return api.open_session(
        inputs.world,
        as_rel=inputs.as_rel,
        cache_dir=cache_dir,
        processes=PROCESSES,
    )


def load_table(inputs) -> list:
    from repro.bgp.table import parse_table_file

    return list(parse_table_file(inputs.table))


def stats_key(stats) -> tuple:
    """The parts of VerificationStats every verification path must agree on."""
    return (
        stats.routes_total,
        dict(stats.routes_ignored),
        dict(stats.hop_totals),
        dict(stats.route_single_status),
        dict(stats.route_status_count_hist),
        dict(stats.first_hop_statuses),
        {asn: dict(mix.counts) for asn, mix in stats.per_as.items()},
        stats.unverified_hops,
        stats.unverified_peering_only,
    )


def hop_key(report) -> list[tuple]:
    return [
        (h.direction, h.from_asn, h.to_asn, h.status, h.rule_index, h.items, h.peer_matched)
        for h in report.hops
    ]


def _latency_pass(api, session, entries) -> tuple[list, list[float]]:
    """Cold verdicts for ``entries`` from a fresh Session on the same IR and
    index: (reports, ms per ``verify_route`` call)."""
    reports, timings = [], []
    with api.open_session(
        session.ir, as_rel=session.relationships, index=session.index
    ) as fresh:
        verifier = None
        for entry in entries:
            if entry.as_set is None and not entry.communities:
                began = time.perf_counter()
                reports.append(fresh.verify_route(str(entry.prefix), entry.as_path))
                timings.append((time.perf_counter() - began) * 1000.0)
            else:
                # verify_route cannot carry AS_SET segments or communities.
                if verifier is None:
                    verifier = api.make_verifier(
                        session.ir, session.relationships, index=session.index
                    )
                reports.append(verifier.verify_entry(entry))
    return reports, timings


def table_cold(inputs, run_dir: Path, seed: int, seconds: float, preset: str):
    from repro import api
    from repro.stats.verification import VerificationStats

    routes = load_table(inputs)
    batch = BATCH[preset]
    check_entries = routes[:batch]
    timed = check_entries[: LATENCY_ROUTES[preset]]
    # Each latency pass verifies the first batch's routes cold in a fresh
    # Session.  Passes are spread over the whole run (after every set-up
    # and every batch) and each route keeps its fastest pass, so a
    # spell of host contention has to cover the whole run to move the
    # figure.  The first pass covers the whole batch: it is the oracle's
    # reference.
    # Garbage the benchmark leaves (a closed Session, a latency pass's
    # verifier) is collected before each timed step: otherwise a full
    # collection of the parent's heap (0.2-0.3 s here) lands inside a set-up
    # or a 0.6 s batch, halving that batch's rate every other batch.
    setups, passes, session = [], [], None
    for rep in range(SETUP_REPS):
        if session is not None:
            session.close()
            session = None
        cache = fresh_dir(run_dir, f"cache{rep}")
        gc.collect()
        started = time.perf_counter()
        session = open_cold_session(inputs, cache)
        setups.append(time.perf_counter() - started)
        passes.append(_latency_pass(api, session, timed if passes else check_entries))

    batches, rates, failed, busy = [], [], 0, 0.0
    position = 0
    while position + batch <= len(routes) and (len(batches) < 3 or busy < seconds):
        entries = routes[position : position + batch]
        position += batch
        gc.collect()
        began = time.perf_counter()
        stats = session.verify_table(entries, processes=PROCESSES, chunk_size=batch // 6)
        elapsed = time.perf_counter() - began
        busy += elapsed
        rates.append(len(entries) / elapsed)
        batches.append((entries, stats))
        if stats.routes_total != len(entries) or stats.degradation:
            failed += len(entries)
        if len(passes) < LATENCY_PASSES:
            passes.append(_latency_pass(api, session, timed))

    # Oracle: the first batch through Session.verify_route (or, for routes
    # it cannot express, the verifier's verify_entry) against the serial
    # table path, which hands back every per-hop report, and against the
    # folded statistics of the timed parallel run of that batch.
    reference = passes[0][0]
    serial = []
    session.verify_table(check_entries, processes=1, on_report=serial.append)
    wrong = sum(
        hop_key(ref) != hop_key(got) or ref.ignored != got.ignored
        for ref, got in zip(reference, serial)
    ) + abs(len(reference) - len(serial))
    wrong += sum(
        hop_key(ref) != hop_key(got)
        for reports, _ in passes[1:]
        for ref, got in zip(reference, reports)
    )
    folded = VerificationStats()
    for report in reference:
        folded.add_report(report)
    if stats_key(folded) != stats_key(batches[0][1]):
        wrong += len(check_entries)
    peak = self_peak_rss_mb()
    session.close()
    # zip() stops at the shortest pass: the routes every pass timed.
    fastest = [min(column) for column in zip(*(timings for _, timings in passes))]
    metrics = {
        "setup_s": (median(setups), "s"),
        "throughput_per_s": (percentile(rates, 75), "1/s"),
        "latency_p50_ms": (median(fastest), "ms"),
        "peak_rss_mb": (peak, "MiB"),
    }
    info = {
        "setup_s": setups,
        "batches": len(batches),
        "batch_routes_per_s": [round(rate, 1) for rate in rates],
        "verify_route_p50_ms_per_pass": [round(median(t), 4) for _, t in passes],
        "latency_p99_ms": percentile(fastest, 99),
        "wrong_verdicts": wrong,
    }
    return dict(
        metrics=metrics,
        attempted=sum(len(entries) for entries, _ in batches),
        failed=failed + wrong,
        info=info,
    )
