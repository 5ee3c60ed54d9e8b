"""Shared benchmark fixtures: one mid-scale world, verified once.

Every table/figure benchmark consumes the same session-scoped artifacts:
the synthetic world, its parsed registry, the merged IR, and a full
verification pass aggregated into :class:`VerificationStats`.  Each
benchmark times its own (re-)aggregation and writes the regenerated
table/figure rows to ``benchmarks/results/``, plus a run manifest
(``<name>.manifest.json``) snapshotting the session's metrics registry so
perf runs are diffable against each other (see docs/observability.md).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.bgp.routegen import collector_routes
from repro.core.verify import Verifier
from repro.irr.synth import SynthConfig, build_world
from repro.obs import MetricsRegistry, build_manifest, get_registry, set_registry, write_manifest
from repro.stats.verification import VerificationStats

RESULTS_DIR = Path(__file__).parent / "results"

# The differential oracles (tests/prefix_oracle.py) are shared with the
# test suite; appended so this directory's conftest still wins.
sys.path.append(str(Path(__file__).parent.parent / "tests"))


@pytest.fixture(scope="session", autouse=True)
def obs_registry():
    """One live metrics registry for the whole benchmark session."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    yield registry
    set_registry(previous)


def bench_config(seed: int = 42) -> SynthConfig:
    """The benchmark world: ~500 ASes, 3 collectors."""
    return SynthConfig(
        seed=seed,
        n_tier1=6,
        n_tier2=30,
        n_tier3=100,
        n_stub=360,
        n_collectors=3,
        peers_per_collector=10,
    )


@pytest.fixture(scope="session")
def world(obs_registry):
    return build_world(bench_config())


@pytest.fixture(scope="session")
def registry(world):
    return world.registry()


@pytest.fixture(scope="session")
def ir(registry):
    return registry.merged()


@pytest.fixture(scope="session")
def verifier(ir, world):
    return Verifier(ir, world.topology)


@pytest.fixture(scope="session")
def routes(world):
    return list(
        collector_routes(world.topology, world.announced, world.collectors)
    )


@pytest.fixture(scope="session")
def verification(verifier, routes):
    """The full verification pass, aggregated (runs once per session)."""
    stats = VerificationStats()
    for entry in routes:
        stats.add_report(verifier.verify_entry(entry))
    return stats


def emit(name: str, text: str) -> None:
    """Persist a regenerated table/figure and echo it for the console.

    Alongside each result file a run manifest is written from the session's
    metrics registry, so every benchmark leaves an auditable record of the
    phase timings and counters accumulated up to that point.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    registry = get_registry()
    if registry.enabled:
        manifest = build_manifest(command=f"benchmark:{name}", registry=registry)
        write_manifest(RESULTS_DIR / f"{name}.manifest.json", manifest)
    print(f"\n=== {name} ===\n{text}")
