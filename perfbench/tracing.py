"""The traced run: per-layer counts, busy time and self time.

Spans are recorded only from the benchmark's own code, around calls into
each layer's public functions: the setup layers are timed call by call,
and a verifier built with ``api.make_verifier`` has its instance's
``check``, ``peerings.evaluate``, ``filters.evaluate``, ``query.*_match``
and ``special.*`` replaced by recording wrappers.  On the serve workloads
the served request sequence is replayed through such a verifier, and the
daemon's own six-stage access-log lines are joined to the client's
requests by request id.  End-to-end numbers never come from this run; it
reports its own overhead against an untraced pass of the same work.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from pathlib import Path

import loadgen
from common import WORK_ROOT, calibrate, median, percentile, spec_metrics

_QUERY_MATCHES = ("asn_route_match", "as_set_route_match", "route_set_match", "origins_of")
_SPECIAL = ("relaxed_item", "safelist_item")


class SpanRecorder:
    """Spans kept in memory as parallel lists: layer, start, end, parent."""

    def __init__(self):
        self.layers: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.outermost: list[bool] = []  # no enclosing span of the same layer
        self.flags: list[bool] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}

    def wrap(self, owner, attribute: str, layer: str, flag=None, watch=None) -> None:
        """Replace ``owner.attribute`` with a recording wrapper.

        ``flag(result)`` marks a span (e.g. a peering that matched);
        ``watch()`` is read before and after the call and marks the span
        when it changed (e.g. the verifier's hop-cache miss counter).
        """
        inner = getattr(owner, attribute)
        clock = time.perf_counter_ns
        layers, starts, ends, parents = self.layers, self.starts, self.ends, self.parents
        outermost, flags, stack, active = self.outermost, self.flags, self._stack, self._active

        def wrapped(*args, **kwargs):
            index = len(starts)
            layers.append(layer)
            parents.append(stack[-1] if stack else -1)
            outermost.append(not active.get(layer))
            flags.append(False)
            ends.append(0)
            stack.append(index)
            active[layer] = active.get(layer, 0) + 1
            before = watch() if watch is not None else None
            starts.append(clock())
            try:
                result = inner(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                active[layer] -= 1
            if watch is not None:
                flags[index] = watch() != before
            elif flag is not None:
                flags[index] = bool(flag(result))
            return result

        setattr(owner, attribute, wrapped)

    def instrument(self, verifier) -> None:
        self.wrap(verifier, "check", "core.verify", watch=lambda: verifier.hop_cache_misses)
        self.wrap(
            verifier.peerings, "evaluate", "core.peering_match",
            flag=lambda result: result.value.name == "TRUE",
        )
        self.wrap(verifier.filters, "evaluate", "core.filter_match")
        for name in _QUERY_MATCHES:
            self.wrap(verifier.query, name, "core.query")
        for name in _SPECIAL:
            self.wrap(verifier.special, name, "core.special")

    def summary(self, verifiers) -> dict[str, float]:
        count = {layer: 0 for layer in (
            "core.verify", "core.peering_match", "core.filter_match", "core.query", "core.special"
        )}
        busy = dict.fromkeys(count, 0)
        child_time = [0] * len(self.starts)
        matched = cold = cold_ns = 0
        for index, layer in enumerate(self.layers):
            duration = self.ends[index] - self.starts[index]
            count[layer] += 1
            if self.outermost[index]:
                busy[layer] += duration
            parent = self.parents[index]
            if parent >= 0:
                child_time[parent] += duration
            if layer == "core.peering_match" and self.flags[index]:
                matched += 1
        self_ns = 0
        for index, layer in enumerate(self.layers):
            if layer == "core.verify" and self.flags[index]:
                duration = self.ends[index] - self.starts[index]
                cold += 1
                cold_ns += duration
                self_ns += duration - child_time[index]
        hits = sum(v.hop_cache_hits for v in verifiers)
        misses = sum(v.hop_cache_misses for v in verifiers)
        return {
            "core.verify.hop_checks": count["core.verify"],
            "core.verify.hop_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "core.verify.cold_hop_us": cold_ns / cold / 1e3 if cold else 0.0,
            "core.verify.self_s": self_ns / 1e9,
            "core.peering_match.evals": count["core.peering_match"],
            "core.peering_match.match_ratio": (
                matched / count["core.peering_match"] if count["core.peering_match"] else 0.0
            ),
            "core.peering_match.busy_s": busy["core.peering_match"] / 1e9,
            "core.filter_match.evals": count["core.filter_match"],
            "core.filter_match.busy_s": busy["core.filter_match"] / 1e9,
            "core.query.prefix_probes": count["core.query"],
            "core.query.busy_s": busy["core.query"] / 1e9,
            "core.special.calls": count["core.special"],
            "core.special.busy_s": busy["core.special"] / 1e9,
            "trace.spans": len(self.starts),
        }

    def write(self, path: Path) -> None:
        """One JSON line per span: name, start/end (ns), parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, layer in enumerate(self.layers):
                handle.write(
                    json.dumps([index, layer, self.starts[index], self.ends[index], self.parents[index]])
                    + "\n"
                )


def _timed(function, *args, **kwargs):
    started = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - started


def _spans_path(workload: str, seed: int) -> Path:
    return WORK_ROOT / "traces" / f"{workload}-s{seed}.jsonl"


# -- table-cold ---------------------------------------------------------------


def _table_cold(inputs, run_dir: Path, seed: int, seconds: float, preset: str):
    from repro import api
    from repro.bgp.topology import AsRelationships
    from repro.core.compiled import ir_digest, load_index, save_index
    from table_cold import BATCH, PROCESSES, hop_key, load_table

    routes = load_table(inputs)[: BATCH[preset]]
    layers: dict[str, float] = {}
    registry, layers["irr.parse_s"] = _timed(api.parse_registry, inputs.world)
    objects = 0
    for source in registry.sources.values():
        counts = source.ir.counts()
        objects += sum(counts[key] for key in counts if key not in ("import", "export"))
    layers["irr.objects"] = objects
    layers["irr.parse_us_per_object"] = layers["irr.parse_s"] / max(1, objects) * 1e6
    ir, layers["ir.merge_s"] = _timed(registry.merged)
    digest = ir_digest(ir)
    index, layers["core.compiled.compile_s"] = _timed(api.compile_index, ir, digest=digest)
    artifact = run_dir / "index.pkl"
    _, layers["core.compiled.save_s"] = _timed(save_index, index, artifact)
    layers["core.compiled.index_bytes"] = artifact.stat().st_size
    loaded, layers["core.compiled.load_s"] = _timed(load_index, artifact, expect_digest=digest)
    relationships = AsRelationships.load(inputs.as_rel)

    plain = api.make_verifier(ir, relationships, index=loaded)
    expected, serial_s = _timed(lambda: [plain.verify_entry(entry) for entry in routes])
    recorder = SpanRecorder()
    traced = api.make_verifier(ir, relationships, index=loaded)
    recorder.instrument(traced)
    reports, traced_s = _timed(lambda: [traced.verify_entry(entry) for entry in routes])
    wrong = sum(hop_key(a) != hop_key(b) for a, b in zip(expected, reports))
    layers.update(recorder.summary([traced]))
    recorder.write(_spans_path("table-cold", seed))

    chunk = len(routes) // 6
    with api.open_session(ir, as_rel=relationships, index=loaded, processes=PROCESSES) as session:
        stats, parallel_s = _timed(session.verify_table, routes, chunk_size=chunk)
    layers["core.parallel.chunks"] = math.ceil(len(routes) / chunk)
    layers["core.parallel.retries"] = len(stats.degradation.events())
    # Serial route cost x routes / (processes x wall).
    layers["core.parallel.efficiency"] = serial_s / (PROCESSES * parallel_s)
    layers["trace.overhead_ratio"] = traced_s / serial_s
    loaded.close()
    info = {"serial_s": serial_s, "traced_s": traced_s, "parallel_s": parallel_s}
    return layers, len(routes), wrong, info


# -- serve workloads ----------------------------------------------------------


def _stage_layers(before: dict, after: dict, workers: int) -> dict[str, float]:
    from daemon import delta, stage_means_us

    layers = {f"serve.stage.{stage}_us": value for stage, value in stage_means_us(before, after).items()}
    batches = delta(before, after, "serve_batch_size_count")
    layers["serve.batcher.batch_size_mean"] = (
        delta(before, after, "serve_batch_size_sum") / batches if batches else 0.0
    )
    layers["serve.shed"] = delta(before, after, "serve_shed_total")
    layers["serve.refused"] = delta(before, after, 'serve_queue_wait_seconds_count{outcome="refused"}')
    layers["serve.deadline"] = delta(before, after, "serve_deadline_miss_total")
    layers["serve.supervisor.dispatch_us"] = layers["serve.stage.dispatch_us"] if workers else 0.0
    layers["serve.supervisor.worker_restarts"] = delta(before, after, "serve_worker_restarts_total")
    hits = delta(before, after, 'verify_hop_cache_total{result="hit"}')
    misses = delta(before, after, 'verify_hop_cache_total{result="miss"}')
    layers["serve.hop_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return layers


def _join_access_log(path: Path, outcomes) -> tuple[float, float]:
    """(share of client requests found in the access log, median µs spent
    outside the daemon's six stages as the client saw it)."""
    records = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("type") == "request":
                records[record["id"]] = record
    joined, outside = 0, []
    for outcome in outcomes:
        record = records.get(outcome.request_id)
        if record is None:
            continue
        joined += 1
        client_ms = (outcome.done - outcome.sent) * 1000.0
        outside.append((client_ms - record["total_ms"]) * 1000.0)
    return joined / max(1, len(outcomes)), median(outside) if outside else 0.0


def _replay(inputs, steps, journals=None) -> tuple[dict, list]:
    """Replay served routes through instrumented verifiers.

    ``steps`` is a list of (generation, routes); a new generation rebuilds
    the verifier on the IR and index patched by that many journals, as
    the daemon does on every reload.  Each step also runs through a plain
    verifier of the same generation first, so ``trace.overhead_ratio`` is
    the wrappers' own cost: traced over plain verification time.
    """
    from repro import api
    from repro.bgp.topology import AsRelationships
    from repro.core.compiled import load_index
    from repro.ir.json_io import load_ir
    from repro.irr.journal import Journal, JournalEntry, apply_journal_to_ir

    relationships = AsRelationships.load(inputs.as_rel)
    ir = load_ir(inputs.ir)
    index, load_s = _timed(load_index, inputs.index)
    recorder = SpanRecorder()
    verifiers, apply_ms, patch_ms = [], [], []
    plain_s = traced_s = 0.0
    generation, verifier = 0, None
    for wanted, routes in steps:
        while generation < wanted:
            record = journals[generation]
            journal = Journal(entries=[JournalEntry.from_jsonable(e) for e in record["entries"]])
            (patched, _), seconds = _timed(apply_journal_to_ir, ir, journal)
            apply_ms.append(seconds * 1000.0)
            index, seconds = _timed(api.patch_index, index, ir, patched, journal)
            patch_ms.append(seconds * 1000.0)
            ir = patched
            generation += 1
            verifier = None
        if verifier is None:
            plain = api.make_verifier(ir, relationships, index=index)
            verifier = api.make_verifier(ir, relationships, index=index)
            recorder.instrument(verifier)
            verifiers.append(verifier)
        pairs = [(route["prefix"], tuple(route["as_path"])) for route in routes]
        plain_s += _timed(lambda: [plain.verify_route(*pair) for pair in pairs])[1]
        traced_s += _timed(lambda: [verifier.verify_route(*pair) for pair in pairs])[1]
    layers = recorder.summary(verifiers)
    layers["trace.overhead_ratio"] = traced_s / plain_s
    layers["core.compiled.load_s"] = load_s
    layers["irr.journal.apply_ms"] = median(apply_ms) if apply_ms else 0.0
    layers["core.compiled.patch_ms"] = median(patch_ms) if patch_ms else 0.0
    return layers, recorder


def _serve_steady(inputs, run_dir: Path, seed: int, seconds: float, preset: str):
    from daemon import Daemon, scrape
    from serving import (
        PLANS, Traffic, _expected_reports, _flat, _phase, _served_routes, _setup,
        check_served,
    )

    plan = PLANS[preset]
    pool = json.loads(inputs.pool.read_text())
    kinds = ("http", "whois")
    half = seconds / 2.0

    # Untraced pass: the overhead baseline.
    daemon, _ = _setup(run_dir, inputs, workers=1, reps=1)
    plain_traffic = Traffic(pool, seed)
    try:
        asyncio.run(_phase(daemon, kinds, plain_traffic.sweep(kinds, plan.warmup), 0))
        plain = _flat(asyncio.run(_phase(daemon, kinds, plain_traffic.fixed(kinds, plan.fixed_rate, half), half)))
    finally:
        daemon.stop()

    traffic = Traffic(pool, seed, trace=True)
    access_log = run_dir / "access.jsonl"
    daemon = Daemon(run_dir, inputs, workers=1, name="traced", access_log=access_log)
    daemon.start()
    try:
        warm = traffic.sweep(kinds, plan.warmup)
        asyncio.run(_phase(daemon, kinds, warm, 0))
        streams = traffic.fixed(kinds, plan.fixed_rate, half)
        before, cpu_before = scrape(daemon.http_port), daemon.cpu_s()
        results = asyncio.run(_phase(daemon, kinds, streams, half))
        after, cpu_after = scrape(daemon.http_port), daemon.cpu_s()
    finally:
        daemon.stop()
    outcomes = _flat(results)
    layers = _stage_layers(before, after, workers=1)
    layers["serve.server_cpu_us_per_req"] = (cpu_after - cpu_before) / len(outcomes) * 1e6
    layers["serve.http.p50_ms"] = percentile([o.latency_ms for o in results[0]], 50)
    layers["serve.whois.p50_ms"] = percentile([o.latency_ms for o in results[1]], 50)
    layers["serve.p99_ms"] = percentile([o.latency_ms for o in outcomes], 99)
    layers["serve.trace.joined_ratio"], layers["serve.trace.outside_server_us"] = (
        _join_access_log(access_log, outcomes)
    )
    stats = loadgen.summarize(outcomes)
    layers["loadgen.sent"] = stats.sent
    layers["loadgen.failed"] = stats.failed
    layers["loadgen.late_ms_max"] = stats.late_ms_max
    # The traced daemon differs from the plain one only by --access-log
    # and X-Request-Id: this ratio is the access log's cost.
    layers["serve.trace.access_log_ratio"] = stats.p50_ms / loadgen.summarize(plain).p50_ms

    # The daemon's worker answered the warm-up sweep, then the timed phase,
    # from one warm verifier: replay that sequence.
    sequence = pool[: plan.warmup] + [
        pool[o.request.tag[1]] for o in sorted(outcomes, key=lambda o: o.sent)
    ]
    replay, recorder = _replay(inputs, [(0, sequence)])
    layers.update(replay)
    recorder.write(_spans_path("serve-steady", seed))

    expected = _expected_reports(inputs, _served_routes(outcomes, pool))
    wrong = check_served(outcomes, pool, expected)
    info = {"joined_ratio": layers["serve.trace.joined_ratio"]}
    return layers, len(outcomes), stats.failed + wrong, info


def _serve_churn(inputs, run_dir: Path, seed: int, seconds: float, preset: str):
    from daemon import Daemon, scrape
    from serving import (
        PLANS, Traffic, _churn_phase, _journal_requests, _phase, _setup, check_reloads,
        reload_steps,
    )

    plan = PLANS[preset]
    pool = json.loads(inputs.pool.read_text())
    journals = _journal_requests(inputs)
    half = seconds / 2.0
    count = min(len(journals), max(2, int(half / plan.reload_period_s)))
    steps = reload_steps(journals, count, plan.reload_period_s)

    def churn(daemon, traffic):
        asyncio.run(_phase(daemon, ("http",), traffic.sweep(("http",), min(plan.warmup, 300)), 0))
        reads = traffic.fixed(("http",), plan.churn_rate, half)[0]
        before = scrape(daemon.http_port)
        cpu_before = daemon.cpu_s()
        outcome = asyncio.run(_churn_phase(daemon, reads, steps, half))
        return outcome, before, scrape(daemon.http_port), daemon.cpu_s() - cpu_before

    daemon, _ = _setup(run_dir, inputs, workers=0, reps=1)
    try:
        (plain_reads, _), *_ = churn(daemon, Traffic(pool, seed))
    finally:
        daemon.stop()
    access_log = run_dir / "access.jsonl"
    daemon = Daemon(run_dir, inputs, workers=0, name="traced", access_log=access_log)
    daemon.start()
    try:
        (reads, writes), before, after, cpu = churn(daemon, Traffic(pool, seed, trace=True))
    finally:
        daemon.stop()
    wrong, summaries = check_reloads(inputs, journals, writes)
    layers = _stage_layers(before, after, workers=0)
    layers["serve.server_cpu_us_per_req"] = cpu / max(1, len(reads)) * 1e6
    layers["serve.http.p50_ms"] = percentile([o.latency_ms for o in reads], 50)
    layers["serve.whois.p50_ms"] = 0.0
    layers["serve.p99_ms"] = percentile([o.latency_ms for o in reads], 99)
    layers["serve.trace.joined_ratio"], layers["serve.trace.outside_server_us"] = (
        _join_access_log(access_log, reads)
    )
    reload_ms = [(r.done - r.sent) * 1000.0 for r, _ in writes]
    layers["serve.reload.p50_ms"] = percentile(reload_ms, 50)
    layers["serve.reload.p90_ms"] = percentile(reload_ms, 90)
    layers["serve.reload.delta_apply_ms"] = median(
        [s.get("delta_apply_s") or 0.0 for s in summaries]
    ) * 1000.0
    layers["serve.reload.fast_path_ratio"] = sum(
        s.get("degraded") is False for s in summaries
    ) / len(summaries)
    layers["irr.journal.entries"] = sum(s.get("applied", 0) for s in summaries)
    stats = loadgen.summarize(reads)
    layers["loadgen.sent"] = stats.sent + 2 * len(writes)
    layers["loadgen.failed"] = stats.failed + sum(not (r.ok and p.ok) for r, p in writes)
    layers["loadgen.late_ms_max"] = stats.late_ms_max
    layers["serve.trace.access_log_ratio"] = (
        stats.p50_ms / loadgen.summarize(plain_reads).p50_ms
    )

    # Reads answered before reload n finished ran on generation n - 1.
    finished = sorted(r.done for r, _ in writes)
    steps: list = []
    for outcome in sorted(reads, key=lambda o: o.sent):
        generation = sum(1 for done in finished if done <= outcome.sent)
        route = pool[outcome.request.tag[1]]
        if steps and steps[-1][0] == generation:
            steps[-1][1].append(route)
        else:
            steps.append((generation, [route]))
    replay, recorder = _replay(inputs, steps, journals)
    layers.update(replay)
    recorder.write(_spans_path("serve-churn", seed))
    info = {"reloads": len(writes)}
    return layers, len(reads) + len(writes), stats.failed + wrong, info


def traced_run(workload: str, inputs, run_dir: Path, seed: int, seconds: float, preset: str):
    runner = {
        "table-cold": _table_cold,
        "serve-steady": _serve_steady,
        "serve-churn": _serve_churn,
    }[workload]
    layers, attempted, failed, info = runner(inputs, run_dir, seed, seconds, preset)
    layers["host.calib_ms"] = calibrate()
    # Every per-layer metric BENCHMARK.json names; 0 where a workload does
    # not exercise the layer.
    metrics = {
        name: (float(layers.get(name, 0.0)), unit)
        for name, unit in spec_metrics("per_layer").items()
    }
    return dict(metrics=metrics, attempted=attempted, failed=failed, info=info)
