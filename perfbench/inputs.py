"""Seeded input generation for the benchmark, cached per checkout.

The synthetic world (IRR dumps, AS relationships) is a fixed fixture per
preset, built from ``WORLD_SEED``; the ``--seed`` of a run draws
everything else: the table's route sample, the served route pool and its
request mix, and the churn journals.  A world drawn per seed would make
every metric move with the world's policy mix (per-route cost differed
by ~30% between worlds), hiding the program's own run-to-run spread.

The exported IR and the compiled index are not inputs but artifacts of
the program under test (``serve --index`` refuses an index built by
another program version), so they are cached under a digest of the
program's sources: a changed program always rebuilds them.

Run as a script (``python3 perfbench/inputs.py ...``) so generation memory
never counts toward the measuring process's peak RSS.  The program under
test only ever sees what this writes:

* ``world/``        IRR dumps (``*.db``) plus ``as-rel.txt``;
* ``export-<digest>/ir.json``   the merged IR exported from those dumps;
* ``export-<digest>/index.pkl`` the compiled index of ``ir.json``;
* ``table.txt``     collector routes of a seeded sample of origins;
* ``pool.json``     a seeded pool of distinct routes for served requests;
* ``journals.json`` small mixed NRTM journals cut from one seeded churn
  epoch, each with a probe route that touches what the journal changed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from common import CACHE_ROOT, BenchError, child_env, source_digest  # noqa: E402

WORLD_SEED = 42
WORLD_PARTS = ("world",)
PROGRAM_PARTS = ("export",)
SEED_PARTS = ("table", "pool", "journals")


# Every churn journal carries the same mix of classes, so one reload costs
# about what another does however many reloads a run makes: route adds and
# deletes (trie point updates), an aut-num rule change and an as-set member
# change (dependency invalidation).
MIX = (
    (("route", "ADD"), 2),
    (("route", "DEL"), 2),
    (("aut-num", "MOD"), 1),
    (("as-set", "MOD"), 1),
)
TINY_MIX = tuple((kind, 1) for kind, _ in MIX)
# Churn rates for the one epoch the journals are cut from: raised from
# ChurnConfig's defaults (which gave ~13 aut-num and ~14 as-set changes on
# the serve world) so that the epoch holds enough of every class.
JOURNAL_CHURN = dict(route_removal=0.05, rule_addition=0.3, as_set_member_addition=0.4)


@dataclasses.dataclass(frozen=True)
class Preset:
    scale: int  # multiple of default_config's AS counts (0 = tiny_config)
    table_routes: int  # routes sampled for table-cold
    pool_routes: int  # distinct routes served by the serve workloads
    journals: int  # small journals cut for serve-churn
    recipe: tuple  # ((class, action), entries) making up every journal


PRESETS = {
    # table-cold: ~2.7k aut-nums and ~16.8k route objects (4x the default
    # world's AS counts): parse+merge ~2 s, compile ~0.5 s.
    "table": Preset(4, 32_000, 0, 0, ()),
    # serve-*: the default world; served requests cost framework time, not
    # world size, and the daemon is spawned several times per run.
    # 32 journals outlast a 14 s run at one reload per 0.5 s.
    "serve": Preset(1, 0, 1_000, 32, MIX),
    # The self-test world: whole runs take seconds.
    "tiny": Preset(0, 1_500, 120, 3, TINY_MIX),
}


def _config(preset: Preset, seed: int):
    from repro.irr.synth import default_config, tiny_config

    if preset.scale == 0:
        return tiny_config(seed)
    base = default_config(seed)
    return dataclasses.replace(
        base,
        n_tier1=base.n_tier1 * preset.scale,
        n_tier2=base.n_tier2 * preset.scale,
        n_tier3=base.n_tier3 * preset.scale,
        n_stub=base.n_stub * preset.scale,
    )


def _sample_routes(world, rng: random.Random, target: int, seed: int, keep: float = 1.0) -> list:
    """Collector routes of randomly drawn origins until ``target`` routes.

    Generating the full table of the big world takes ~46 s; sampling
    origins keeps the route shape (every collector peer's path to the
    origin) at a fraction of the cost.  ``keep`` < 1 keeps that share of
    each origin's routes, spreading the sample over more origins so that
    one seed's table costs about what another's does.
    """
    from repro.bgp.routegen import RouteGenConfig, collector_routes

    origins = sorted(asn for asn, prefixes in world.announced.items() if prefixes)
    rng.shuffle(origins)
    routes: list = []
    config = RouteGenConfig(seed=seed)
    step = 16
    for start in range(0, len(origins), step):
        chosen = {asn: world.announced[asn] for asn in origins[start : start + step]}
        for entry in collector_routes(world.topology, chosen, world.collectors, config):
            if keep >= 1.0 or rng.random() < keep:
                routes.append(entry)
        if len(routes) >= target:
            break
    rng.shuffle(routes)
    return routes[:target]


def _verifiable(entry) -> bool:
    return entry.as_set is None and len(entry.deprepended_path()) >= 2


def _mixed_journals(journal, preset: Preset, rng: random.Random) -> list:
    """Cut one churn epoch into small journals of the preset's class mix.

    Every entry of one epoch is a diff against the same base IR and
    touches an object no other entry touches, so any subset of them, in
    any order, replays without degradation.  Entries get fresh sequential
    serials, so the small journals replayed in order are a valid NRTM
    stream.
    """
    queues: dict[tuple, list] = defaultdict(list)
    for entry in journal.entries:
        queues[(entry.cls, entry.action)].append(entry)
    journals, serial = [], 1
    for _ in range(preset.journals):
        if any(len(queues[key]) < count for key, count in preset.recipe):
            break
        picked = [queues[key].pop(0) for key, count in preset.recipe for _ in range(count)]
        rng.shuffle(picked)
        renumbered = []
        for entry in picked:
            renumbered.append(dataclasses.replace(entry, serial=serial))
            serial += 1
        journals.append(renumbered)
    if len(journals) < preset.journals:
        raise BenchError(f"churn epoch holds only {len(journals)} journals of the mix")
    return journals


def _probe_for(entries, topology, pool, rng: random.Random) -> dict:
    """A route whose verdict depends on what the journal touched."""
    from repro.bgp.routegen import propagate

    for entry in entries:
        if entry.cls != "route":
            continue
        prefix, origin = str(entry.key[0]), int(entry.key[1])
        if origin not in topology.ases():
            continue
        paths = propagate(topology, origin)
        candidates = sorted(path for path in paths.values() if len(path) >= 2)
        if candidates:
            return {"prefix": prefix, "as_path": list(rng.choice(candidates))}
    entry = rng.choice(pool)
    return {"prefix": entry["prefix"], "as_path": entry["as_path"]}


@dataclasses.dataclass(frozen=True)
class Inputs:
    """Where one run's inputs live: the shared world, the program's
    artifacts built from it, and the seed's draws."""

    world_dir: Path
    export_dir: Path
    seed_dir: Path

    @property
    def world(self) -> Path:
        return self.world_dir / "world"

    @property
    def as_rel(self) -> Path:
        return self.world_dir / "world" / "as-rel.txt"

    @property
    def ir(self) -> Path:
        return self.export_dir / "ir.json"

    @property
    def index(self) -> Path:
        return self.export_dir / "index.pkl"

    @property
    def table(self) -> Path:
        return self.seed_dir / "table.txt"

    @property
    def pool(self) -> Path:
        return self.seed_dir / "pool.json"

    @property
    def journals(self) -> Path:
        return self.seed_dir / "journals.json"


def generate(inputs: Inputs, preset: Preset, seed: int, parts: set[str]) -> None:
    from repro.bgp.table import write_table_file
    from repro.core.compiled import compile_index, ir_digest, save_index
    from repro.ir.json_io import dump_ir, load_ir
    from repro.irr.history import ChurnConfig, evolve_with_journal
    from repro.irr.synth import build_world

    world = build_world(_config(preset, WORLD_SEED))
    if "world" in parts:
        shutil.rmtree(inputs.world, ignore_errors=True)
        world.write_to_dir(inputs.world)
    if "export" in parts:
        dump_ir(world.merged_ir(), inputs.ir)
        exported = load_ir(inputs.ir)
        save_index(compile_index(exported, digest=ir_digest(exported)), inputs.index)
    if "table" in parts:
        routes = _sample_routes(world, random.Random(seed), preset.table_routes, seed, keep=0.25)
        write_table_file(inputs.table, routes)
    pool = None
    if "pool" in parts or "journals" in parts:
        rng = random.Random(seed * 31 + 7)
        seen, pool = set(), []
        for entry in _sample_routes(world, rng, preset.pool_routes * 4, seed + 1):
            key = (str(entry.prefix), entry.as_path)
            if _verifiable(entry) and key not in seen:
                seen.add(key)
                pool.append({"prefix": key[0], "as_path": list(key[1])})
            if len(pool) == preset.pool_routes:
                break
        inputs.pool.write_text(json.dumps(pool), encoding="utf-8")
    if "journals" in parts:
        rng = random.Random(seed * 131 + 3)
        _, epoch = evolve_with_journal(
            load_ir(inputs.ir), ChurnConfig(seed=seed, **JOURNAL_CHURN)
        )
        records = []
        for entries in _mixed_journals(epoch, preset, rng):
            records.append(
                {
                    "entries": [entry.to_jsonable() for entry in entries],
                    "probe": _probe_for(entries, world.topology, pool, rng),
                }
            )
        inputs.journals.write_text(json.dumps(records), encoding="utf-8")


def _generator_key() -> str:
    return hashlib.sha256((HERE / "inputs.py").read_bytes()).hexdigest()[:8]


def _home(inputs: Inputs, part: str) -> Path:
    if part in WORLD_PARTS:
        return inputs.world_dir
    return inputs.export_dir if part in PROGRAM_PARTS else inputs.seed_dir


def ensure(preset: str, seed: int, parts: set[str]) -> Inputs:
    """The inputs for (preset, seed), generating whatever is not cached."""
    key = _generator_key()
    world_dir = CACHE_ROOT / f"{preset}-world-{key}"
    inputs = Inputs(
        world_dir,
        world_dir / f"export-{source_digest()}",
        CACHE_ROOT / f"{preset}-s{seed}-{key}",
    )
    parts = set(parts) | set(WORLD_PARTS)
    missing = sorted(p for p in parts if not (_home(inputs, p) / f".done-{p}").exists())
    if not missing:
        return inputs
    for home in (inputs.world_dir, inputs.export_dir, inputs.seed_dir):
        home.mkdir(parents=True, exist_ok=True)
    command = [
        sys.executable,
        str(HERE / "inputs.py"),
        "--preset", preset,
        "--seed", str(seed),
        "--parts", ",".join(missing),
        "--world-dir", str(inputs.world_dir),
        "--export-dir", str(inputs.export_dir),
        "--seed-dir", str(inputs.seed_dir),
    ]
    result = subprocess.run(
        command, env=child_env(), capture_output=True, text=True, timeout=600
    )
    if result.returncode != 0:
        raise BenchError(f"input generation failed:\n{result.stderr[-4000:]}")
    for part in missing:
        (_home(inputs, part) / f".done-{part}").touch()
    return inputs


def main() -> None:
    parser = argparse.ArgumentParser(description="generate benchmark inputs")
    parser.add_argument("--preset", choices=sorted(PRESETS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--parts", required=True)
    parser.add_argument("--world-dir", required=True)
    parser.add_argument("--export-dir", required=True)
    parser.add_argument("--seed-dir", required=True)
    args = parser.parse_args()
    parts = set(args.parts.split(","))
    unknown = parts - set(WORLD_PARTS) - set(PROGRAM_PARTS) - set(SEED_PARTS)
    if unknown:
        parser.error(f"unknown parts: {sorted(unknown)}")
    from common import require_sources

    require_sources()
    inputs = Inputs(Path(args.world_dir), Path(args.export_dir), Path(args.seed_dir))
    generate(inputs, PRESETS[args.preset], args.seed, parts)


if __name__ == "__main__":
    main()
