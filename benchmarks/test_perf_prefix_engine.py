"""P3 — flat-plane prefix engine vs the legacy dict engine.

Four comparisons over the mid-scale benchmark world:

* **prefix-match microbenchmark** — the engine's mask-pruned hash
  probes (``match_origin``/``match_any``/``match_members``) against the
  legacy ancestor enumeration, over balanced IPv4+IPv6 probe sets and
  the full range-op alphabet (``^-``, ``^+``, ``^n``, ``^n-m``, exact).
  Probes mix the verifier's three real shapes: the origin hop (declared
  exact hit), a transit hop (origin miss), and a perturbed network
  (ancestor miss);
* **route-set op index** — :meth:`PrefixOpIndex.matches` (flat op
  planes) against the preserved dict-walk oracle;
* **warm start** — attaching the mmap envelope against
  unpickling the whole artifact, measured with a production-scale
  (~100k-prefix) route table spliced into the compiled index;
* **end-to-end verify** — full verification flat engine vs legacy
  engine, the bit-identity gate.

The legacy engine is the oracle in ``tests/prefix_oracle.py``.  Every
comparison hard-asserts identical answers; timing floors only fail
under ``RPSLYZER_PERF_STRICT`` (the perf-regression CI job sets it).  The
measured ratios accumulate into ``benchmarks/results/BENCH_prefix_engine.json``,
which ``scripts/check_perf_regression.py`` diffs against
``benchmarks/baselines.json``.
"""

import dataclasses
import json
import os
import pickle
import random
import time

import pytest
from conftest import RESULTS_DIR, emit
from prefix_oracle import install_naive_routes, matches_naive, naive_routes

from repro.core.compiled import compile_index, load_index, save_index
from repro.core.parallel import verify_table
from repro.core.prefixtrie import RouteTrieBuilder
from repro.core.query import PrefixOpIndex, QueryEngine
from repro.core.verify import Verifier
from repro.net.prefix import Prefix, RangeOp, RangeOpKind
from repro.obs import get_registry
from repro.stats.verification import VerificationStats

STRICT = bool(os.environ.get("RPSLYZER_PERF_STRICT"))

_metrics: dict[str, float] = {}


@pytest.fixture(scope="module", autouse=True)
def bench_report():
    """Write the accumulated ratio metrics once the module finishes."""
    yield
    RESULTS_DIR.mkdir(exist_ok=True)
    document = {
        "bench": "prefix_engine",
        "strict": STRICT,
        "metrics": dict(sorted(_metrics.items())),
    }
    path = RESULTS_DIR / "BENCH_prefix_engine.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"\n=== BENCH_prefix_engine ===\n{json.dumps(document['metrics'], indent=2)}")


def _best_of(runs, fn):
    """Min-of-N wall time plus the last result (comparison-friendly)."""
    best = float("inf")
    result = None
    for _ in range(runs):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


_OPS = (
    RangeOp(RangeOpKind.NONE),
    RangeOp(RangeOpKind.MINUS),
    RangeOp(RangeOpKind.PLUS),
    RangeOp(RangeOpKind.EXACT, 24, 24),
    RangeOp(RangeOpKind.RANGE, 20, 28),
)

_PROBES_PER_FAMILY = 2000


def _family_probes(routes, version, count):
    """A balanced probe set for one family, mirroring the verifier's mix.

    For every observed route the verifier checks the origin hop (usually
    a declared exact hit), the transit hops (origin misses — the legacy
    engine rescans every ancestor length), and occasionally prefixes
    with no declared ancestor at all (perturbed network).
    """
    entries = [e for e in routes if e.prefix.version == version]
    flip = 1 << (8 if version == 4 else 80)
    probes = []
    for i in range(count):
        entry = entries[i % len(entries)]
        prefix = entry.prefix
        if i % 3 == 0:
            probes.append((entry.origin, version, prefix.network, prefix.length))
        elif i % 3 == 1:
            probes.append((entry.as_path[0], version, prefix.network, prefix.length))
        else:
            probes.append(
                (entry.origin, version, prefix.network ^ flip, prefix.length)
            )
    return probes


def test_prefix_match_microbenchmark(ir, routes):
    flat = QueryEngine(ir).routes
    naive = naive_routes(ir)

    def run(engine, probes):
        answers = []
        for i, (asn, version, net, length) in enumerate(probes):
            op = _OPS[i % len(_OPS)]
            answers.append(engine.match_origin(asn, version, net, length, op))
            answers.append(engine.match_any(version, net, length, op))
            answers.append(
                engine.match_members(
                    frozenset((asn, asn + 1)), version, net, length, op
                )
            )
        return answers

    flat_total = naive_total = 0.0
    report_lines = []
    for version in (4, 6):
        probes = _family_probes(routes, version, _PROBES_PER_FAMILY)
        flat_s, flat_answers = _best_of(3, lambda: run(flat, probes))
        naive_s, naive_answers = _best_of(3, lambda: run(naive, probes))
        assert flat_answers == naive_answers  # the identity gate
        flat_total += flat_s
        naive_total += naive_s
        family_speedup = naive_s / flat_s
        _metrics[f"prefix_match_speedup_v{version}"] = round(family_speedup, 3)
        report_lines.append(
            f"v{version}: legacy {naive_s * 1e3:.2f}ms  flat {flat_s * 1e3:.2f}ms"
            f"  speedup {family_speedup:.2f}x"
        )

    speedup = naive_total / flat_total
    _metrics["prefix_match_speedup"] = round(speedup, 3)
    registry = get_registry()
    registry.gauge("bench_prefix_match_flat_seconds").set(flat_total)
    registry.gauge("bench_prefix_match_naive_seconds").set(naive_total)
    emit(
        "perf_prefix_engine_match",
        f"probes: {_PROBES_PER_FAMILY} per family x3 queries x {len(_OPS)} ops\n"
        + "\n".join(report_lines)
        + f"\ncomposite speedup: {speedup:.2f}x",
    )
    if STRICT:
        assert speedup >= 2.0, f"flat engine only {speedup:.2f}x over legacy"


def test_route_set_op_index_vs_dict_walk(routes):
    rng = random.Random(42)
    index = PrefixOpIndex()
    seen = set()
    for entry in routes:
        if entry.prefix in seen:
            continue
        seen.add(entry.prefix)
        index.add(entry.prefix, _OPS[rng.randrange(len(_OPS))])
    index.freeze()
    by_family = {4: [], 6: []}
    for entry in routes:
        by_family[entry.prefix.version].append(entry.prefix)
    probes = by_family[4][:2000] + by_family[6][:2000]
    overrides = [None, RangeOp(RangeOpKind.PLUS)]

    def run(fn):
        return [
            fn(probe, overrides[i % 2]) for i, probe in enumerate(probes)
        ]

    flat_s, flat_answers = _best_of(3, lambda: run(index.matches))
    naive_s, naive_answers = _best_of(
        3, lambda: run(lambda probe, override: matches_naive(index, probe, override))
    )
    assert flat_answers == naive_answers

    speedup = naive_s / flat_s
    _metrics["op_index_speedup"] = round(speedup, 3)
    emit(
        "perf_prefix_engine_ops",
        f"entries: {len(index)}  probes: {len(probes)}\n"
        f"dict walk: {naive_s:.3f}s\nop planes: {flat_s:.3f}s\n"
        f"speedup: {speedup:.2f}x",
    )
    if STRICT:
        assert speedup >= 1.0, f"op planes slower than dict walk ({speedup:.2f}x)"


_WARM_PREFIXES = 100_000


def _production_scale_trie():
    """A ~100k-prefix route table, the scale real IRR snapshots reach."""
    rng = random.Random(1)
    builder = RouteTrieBuilder()
    for _ in range(_WARM_PREFIXES):
        length = rng.randint(16, 24)
        network = rng.getrandbits(length) << (32 - length)
        builder.add(Prefix(4, network, length), rng.randint(1, 30_000))
    return builder.build()


def test_warm_start_mmap_vs_pickle(ir, tmp_path_factory):
    index = dataclasses.replace(compile_index(ir), route_trie=_production_scale_trie())
    directory = tmp_path_factory.mktemp("envelope")
    path = directory / "index.rpslidx"
    save_index(index, path)
    blob = pickle.dumps(index)

    def attach():
        loaded = load_index(path)
        loaded.close()
        return loaded

    mmap_s, _ = _best_of(5, attach)
    pickle_s, _ = _best_of(5, lambda: pickle.loads(blob))

    artifact_bytes = path.stat().st_size
    size_ratio = artifact_bytes / len(blob)
    speedup = pickle_s / mmap_s
    _metrics["warm_load_speedup"] = round(speedup, 3)
    _metrics["artifact_size_ratio"] = round(size_ratio, 4)
    registry = get_registry()
    registry.gauge("bench_index_mmap_load_seconds").set(mmap_s)
    registry.gauge("bench_index_pickle_load_seconds").set(pickle_s)
    emit(
        "perf_prefix_engine_warm_start",
        f"route table: {_WARM_PREFIXES} prefixes\n"
        f"artifact: {artifact_bytes} bytes (pickle: {len(blob)} bytes, "
        f"ratio {size_ratio:.3f})\n"
        f"full unpickle: {pickle_s * 1e3:.2f}ms\nmmap attach: {mmap_s * 1e3:.2f}ms\n"
        f"speedup: {speedup:.2f}x",
    )
    if STRICT:
        assert speedup >= 2.0, f"mmap attach only {speedup:.2f}x over unpickle"


def test_end_to_end_verify_identical_and_recorded(ir, world, routes):
    sample = routes[:3000]

    # Built untimed: the timed run covers the legacy engine's own build
    # and the verification, not the trie this verifier starts with.
    verifier = Verifier(ir, world.topology)

    def run_legacy():
        install_naive_routes(verifier)
        stats = VerificationStats()
        for entry in sample:
            stats.add_report(verifier.verify_entry(entry))
        return stats

    index = compile_index(ir)
    legacy_s, legacy = _best_of(1, run_legacy)
    flat_s, flat = _best_of(
        2,
        lambda: verify_table(ir, world.topology, sample, processes=1, index=index),
    )
    # Bit-identity, always enforced.
    assert flat.summary() == legacy.summary()
    assert flat.hop_totals == legacy.hop_totals
    assert flat.route_single_status == legacy.route_single_status

    speedup = legacy_s / flat_s
    _metrics["e2e_verify_speedup"] = round(speedup, 3)
    emit(
        "perf_prefix_engine_e2e",
        f"routes: {len(sample)}\nlegacy engine: {legacy_s:.3f}s\n"
        f"flat engine (compiled): {flat_s:.3f}s\nspeedup: {speedup:.2f}x",
    )
