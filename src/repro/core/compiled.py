"""The compile-once verification index (see ``docs/performance.md``).

Bulk verification evaluates the same immutable IR hundreds of millions of
times, yet the :class:`~repro.core.query.QueryEngine` resolves as-sets,
route-sets, and AS-path regexes *lazily per process*: every pool worker
re-derives the same memo caches cold, and every run re-derives them from
zero.  This module adds the missing compilation pass:

* :func:`compile_index` turns an :class:`~repro.ir.model.Ir` into an
  immutable, picklable :class:`CompiledIndex` — the frozen
  :class:`~repro.core.prefixtrie.RouteTrie` over every declared
  ⟨prefix, origin⟩ pair, members-by-reference maps, fully flattened
  as-set closures, resolved route-/peering-sets (their member tries
  pre-frozen), and AS-path regexes pre-lowered to matcher programs;
* a :class:`~repro.core.verify.Verifier` (or ``QueryEngine``/
  ``AsPathMatcher``) built with ``index=`` starts with every one of those
  tables warm, so the hot loop is pure lookups;
* :func:`verify_table <repro.core.parallel.verify_table>` ships the
  artifact to workers instead of letting each worker re-derive it
  (``fork``: built pre-fork, the flat planes shared copy-on-write;
  ``spawn``: pickled once per worker);
* :func:`get_or_compile` persists the artifact under
  ``~/.cache/rpslyzer/`` keyed by the IR content digest, so later runs
  over the same IR start warm too (``rpslyzer compile`` /
  ``--no-index-cache`` are the CLI knobs).

The on-disk envelope (format 3) is *flat*: a JSON header describing the
trie's hash planes, the plane bytes 16-aligned, then one pickle blob for the
residual tables.  :func:`load_index` maps the file with ``mmap`` and
casts the planes to zero-copy memoryviews — warm start skips
deserializing the largest tables entirely, and the pages stay shared
between every process mapping the same artifact.  The mapping holds a
file descriptor until :meth:`CompiledIndex.close` releases it (Session
close / index eviction call this for indexes they own).

Everything in the artifact is produced by the *same* resolution code the
lazy path runs on demand, so verification over a compiled index is
bit-identical to the lazy path — ``tests/test_compiled_index.py`` checks
this differentially, including under injected worker death.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import mmap
import os
import pickle
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.aspath_match import AsPathMatcher, CompiledAsPathRegex
from repro.core.prefixtrie import RouteTrie
from repro.core.query import (
    AsSetResolution,
    QueryEngine,
    ResolvedRouteSet,
    _byref_allowed,
)
from repro.ir import serialize
from repro.ir.json_io import ir_to_jsonable  # noqa: F401 - registers IR classes
from repro.ir.model import Ir
from repro.irr.journal import _cached_route_index
from repro.net.prefix import Prefix, PrefixError
from repro.obs import get_registry
from repro.rpsl.aspath import AsPathRegexNode
from repro.rpsl.filter import Filter, FilterAsPathRegex, FilterAsSet, FilterRouteSet
from repro.rpsl.names import NameKind
from repro.rpsl.peering import PeerAsSet, Peering, PeeringSetRef
from repro.rpsl.walk import iter_as_expr_nodes, iter_filter_nodes, iter_policy_factors

__all__ = [
    "INDEX_FORMAT",
    "CompiledIndex",
    "IndexCacheError",
    "compile_index",
    "patch_index",
    "ir_digest",
    "default_cache_dir",
    "index_cache_path",
    "save_index",
    "load_index",
    "get_or_compile",
]

# Bump whenever the artifact layout (or the dataclasses inside it) changes
# incompatibly; mismatched cache files are recompiled, never half-read.
# Format 2: flat mmap-able envelope (magic + JSON header + aligned plane
# region + residual pickle) replacing the format-1 whole-pickle envelope.
# Format 3: the same envelope without the patricia node planes; the hash
# planes are the only prefix structure.  A new magic keeps a format-2
# file from ever being read as format 3.
INDEX_FORMAT = "rpslyzer-compiled-index/3"

_MAGIC = b"RPSLIDX3"
_ALIGN = 16  # plane alignment; mmap bases are page-aligned so this holds
_MAX_HEADER_BYTES = 1 << 24


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class IndexCacheError(RuntimeError):
    """A cache file exists but cannot be used (format/digest mismatch)."""


class _MmapResource:
    """The mmap behind a loaded artifact plus every exported view.

    ``mmap.mmap`` dups the file descriptor internally, so the mapping —
    not the ``open()`` handle, which closes right after mapping — is what
    pins an fd per loaded artifact.  ``close()`` releases the views first
    (an exported memoryview keeps the map alive) and then the map.
    """

    __slots__ = ("_mapped", "_views")

    def __init__(self, mapped: mmap.mmap, views: list):
        self._mapped = mapped
        self._views = views

    def close(self) -> None:
        views, self._views = self._views, []
        for view in views:
            view.release()
        mapped, self._mapped = self._mapped, None
        if mapped is not None:
            try:
                mapped.close()
            except BufferError:  # a caller still holds a sub-view
                pass


@dataclass(slots=True)
class CompiledIndex:
    """Every query-engine table, materialized eagerly from one IR.

    Instances are treated as immutable once built: engines adopting one
    copy the memo-cache dicts (cheap, shallow) and share the read-only
    route trie, so a single artifact can back the parent's serial
    fallback and every worker simultaneously.  An index loaded from the
    disk cache keeps its planes mapped from the file; ``close()``
    releases the mapping (and its file descriptor) and must only be
    called by the owner once no engine uses it anymore.
    """

    digest: str | None
    route_trie: RouteTrie
    as_set_byref: dict[str, set[int]]
    route_set_byref: dict[str, list]
    as_sets: dict[str, AsSetResolution]
    route_sets: dict[str, ResolvedRouteSet]
    peering_sets: dict[str, tuple[Peering, ...] | None]
    aspath_regexes: dict[AsPathRegexNode, CompiledAsPathRegex]
    compile_seconds: float = 0.0
    skipped_regexes: int = 0
    # Incremental-ingestion lineage: ``generation`` counts patch_index
    # applications since the from-scratch compile (0), ``serials`` is the
    # highest journal serial absorbed per source registry.
    generation: int = 0
    serials: dict = field(default_factory=dict)
    format: str = INDEX_FORMAT
    resource: _MmapResource | None = field(default=None, repr=False, compare=False)

    def stats(self) -> dict:
        """Entry counts per table (for logs, manifests, and tests)."""
        trie_stats = self.route_trie.stats()
        return {
            "route_index": trie_stats["prefixes"],
            "origins": trie_stats["origins"],
            "plane_bytes": trie_stats["plane_bytes"],
            "as_sets": len(self.as_sets),
            "route_sets": len(self.route_sets),
            "peering_sets": len(self.peering_sets),
            "aspath_regexes": len(self.aspath_regexes),
            "skipped_regexes": self.skipped_regexes,
            "compile_seconds": self.compile_seconds,
        }

    def close(self) -> None:
        """Release the mmap behind a cache-loaded artifact (idempotent).

        No-op for an index compiled in memory.  After closing, the trie
        planes are gone — every engine adopting this index must be done.
        """
        resource, self.resource = self.resource, None
        if resource is None:
            return
        self.route_trie.detach()
        resource.close()

    def __getstate__(self):
        # The mmap resource never travels: pickling (spawn workers,
        # re-saving) materializes the trie planes into arrays instead.
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name != "resource"
        }

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)
        self.resource = None


@dataclass(slots=True)
class _Referenced:
    """Set names and regex nodes collected from every policy AST."""

    as_sets: set[str] = field(default_factory=set)
    route_sets: set[str] = field(default_factory=set)
    peering_sets: set[str] = field(default_factory=set)
    regexes: list[AsPathRegexNode] = field(default_factory=list)
    _seen_regexes: set[AsPathRegexNode] = field(default_factory=set)

    def add_filter(self, node: Filter) -> None:
        for inner in iter_filter_nodes(node):
            if isinstance(inner, FilterAsSet) and not inner.any_member:
                self.as_sets.add(inner.name)
            elif isinstance(inner, FilterRouteSet) and not inner.any_member:
                self.route_sets.add(inner.name)
            elif isinstance(inner, FilterAsPathRegex):
                if inner.regex not in self._seen_regexes:
                    self._seen_regexes.add(inner.regex)
                    self.regexes.append(inner.regex)

    def add_peering(self, peering: Peering) -> None:
        for inner in iter_as_expr_nodes(peering.as_expr):
            if isinstance(inner, PeerAsSet):
                self.as_sets.add(inner.name)
            elif isinstance(inner, PeeringSetRef):
                self.peering_sets.add(inner.name)


def _collect_references(ir: Ir) -> _Referenced:
    """Every set name and regex any verification check could resolve.

    Referenced-but-unrecorded names matter too: their (negative)
    resolutions are memoized by the lazy engine, so the compiled artifact
    carries them as well.
    """
    refs = _Referenced()
    refs.as_sets.update(ir.as_sets)
    refs.route_sets.update(ir.route_sets)
    refs.peering_sets.update(ir.peering_sets)
    for aut_num in ir.aut_nums.values():
        for rule in (*aut_num.imports, *aut_num.exports):
            for factor in iter_policy_factors(rule.expr):
                refs.add_filter(factor.filter)
                for peering_action in factor.peerings:
                    refs.add_peering(peering_action.peering)
    for filter_set in ir.filter_sets.values():
        if filter_set.filter is not None:
            refs.add_filter(filter_set.filter)
    for peering_set in ir.peering_sets.values():
        for peering in peering_set.peerings:
            refs.add_peering(peering)
    for route_set in ir.route_sets.values():
        for member in route_set.name_members:
            if member.kind is NameKind.AS_SET:
                refs.as_sets.add(member.name)
            elif member.kind is NameKind.ROUTE_SET:
                refs.route_sets.add(member.name)
    return refs


def compile_index(ir: Ir, *, digest: str | None = None) -> CompiledIndex:
    """Compile an IR into a :class:`CompiledIndex` (the whole pass).

    The pass drives the ordinary :class:`QueryEngine`/:class:`AsPathMatcher`
    resolution code eagerly over every referenced name, then captures the
    resulting tables — so compiled lookups are the lazy path's answers,
    computed once.  The route trie is built here and every resolved
    route-set's member index is frozen into its flat-plane form, so the
    artifact carries no lazy state.
    """
    registry = get_registry()
    started = time.perf_counter()
    with registry.span("compile/index"):
        engine = QueryEngine(ir)
        matcher = AsPathMatcher(engine)
        refs = _collect_references(ir)
        for name in sorted(refs.as_sets):
            engine.flatten_as_set(name)
        for name in sorted(refs.route_sets):
            engine.resolve_route_set(name)
        for name in sorted(refs.peering_sets):
            engine.resolve_peering_set(name)
        skipped = 0
        for node in refs.regexes:
            try:
                matcher.compile(node)
            except Exception:  # noqa: BLE001 - mirror the lazy path
                # A regex the matcher cannot lower compiles lazily (and
                # fails identically) if a check ever reaches it.
                skipped += 1
        for resolution in engine._route_set_cache.values():
            resolution.index.freeze()
        elapsed = time.perf_counter() - started
        index = CompiledIndex(
            digest=digest,
            route_trie=engine.routes,
            as_set_byref=engine._as_set_byref,
            route_set_byref=engine._route_set_byref,
            as_sets=engine._as_set_cache,
            route_sets=engine._route_set_cache,
            peering_sets=engine._peering_set_cache,
            aspath_regexes=matcher._compiled,
            compile_seconds=elapsed,
            skipped_regexes=skipped,
        )
    if registry.enabled:
        registry.gauge("index_compile_seconds").set(elapsed)
        for kind, count in index.stats().items():
            if kind in ("compile_seconds",):
                continue
            registry.gauge("index_entries", table=kind).set(count)
    return index


# -- incremental patching ----------------------------------------------------


def _reverse_reachable(seeds: set[str], reverse: dict[str, set[str]]) -> set[str]:
    """Every node that can reach a seed (seeds included): the dirty set."""
    dirty = set(seeds)
    stack = list(seeds)
    while stack:
        node = stack.pop()
        for parent in reverse.get(node, ()):
            if parent not in dirty:
                dirty.add(parent)
                stack.append(parent)
    return dirty


def _as_set_reverse_edges(old_ir: Ir, new_ir: Ir) -> dict[str, set[str]]:
    """member → owners over ``members_set``, across both snapshots.

    Both sides matter: an edge deleted this epoch still made the owner's
    cached closure depend on the member, and an edge added this epoch
    makes the new closure depend on it.
    """
    reverse: dict[str, set[str]] = {}
    for ir in (old_ir, new_ir):
        for owner, as_set in ir.as_sets.items():
            for member in as_set.members_set:
                reverse.setdefault(member, set()).add(owner)
    return reverse


def _route_set_reverse_edges(old_ir: Ir, new_ir: Ir) -> dict[str, set[str]]:
    """member → owners over nested route-set references, both snapshots.

    Only ROUTE_SET name members fold into the cached resolution; ASN and
    AS_SET members stay lazy (checked per query against the live trie and
    as-set caches), so they add no invalidation edges here.
    """
    reverse: dict[str, set[str]] = {}
    for ir in (old_ir, new_ir):
        for owner, route_set in ir.route_sets.items():
            for member in route_set.name_members:
                if member.kind is NameKind.ROUTE_SET:
                    reverse.setdefault(member.name, set()).add(owner)
    return reverse


def _route_entry_key(entry) -> tuple[Prefix, int, str]:
    """A route entry's wire key parsed into canonical in-memory form.

    Journal keys carry the prefix as a string; parsing canonicalizes
    host bits and IPv6 spellings so lookups below match ``route.prefix``
    instead of silently missing a live route spelled differently.  An
    unparseable key cannot name any route — ``apply_journal_to_ir``
    degrades such journals to the full recompile before this fast path
    runs — so raising loudly beats patching by a wrong key.
    """
    key = entry.key
    try:
        return (Prefix.parse(key[0]), key[1], key[2])
    except (PrefixError, TypeError, IndexError, AttributeError) as exc:
        raise ValueError(f"route entry key {key!r} is not patchable: {exc}") from exc


def patch_index(
    index: CompiledIndex,
    old_ir: Ir,
    new_ir: Ir,
    journal,
    *,
    digest: str | None = None,
) -> CompiledIndex:
    """Patch a compiled index with one journal's deltas (the fast path).

    ``journal`` is a :class:`repro.irr.journal.Journal` whose entries
    transform ``old_ir`` (the IR ``index`` was compiled from) into
    ``new_ir``; the caller is responsible for having validated the replay
    (:func:`repro.irr.journal.apply_journal_to_ir` returned a clean
    degradation report) — a degraded journal must recompile instead.

    The reverse-dependency walk touches only what the entries reference:

    * route entries become point inserts/deletes on a thawed
      :class:`~repro.core.prefixtrie.RouteTrie` (tombstones; plane
      rebuilds when load factor or tombstone ratio trips) — no other
      table depends on trie *contents*, so nothing else is invalidated;
    * members-by-reference rows are recomputed for exactly the set names
      the changed objects join (or stop joining);
    * cached as-set closures and route-set resolutions are evicted along
      reverse reachability — every cached name whose sweep could have
      seen a changed object — and re-resolved by the ordinary engine
      code, so patched entries are bit-identical to a fresh compile's;
    * non-route object churn re-runs the cheap policy-AST reference walk
      so newly referenced names/regexes get resolved too.

    The result is a fresh :class:`CompiledIndex` (generation + 1, serials
    advanced, digest chained over the journal content) sharing unchanged
    tables with ``index``; the input index is not mutated and never keeps
    its mmap — planes are materialized so the caller can close the old
    artifact immediately after swapping.
    """
    registry = get_registry()
    started = time.perf_counter()
    with registry.span("compile/patch"):
        entries = list(journal)
        route_entries = [e for e in entries if e.cls == "route"]
        named_entries = [e for e in entries if e.cls != "route"]
        changed: dict[str, set] = {}
        for entry in named_entries:
            changed.setdefault(entry.cls, set()).add(entry.key)

        # -- members-by-reference: which set names need recomputing -------
        as_byref_dirty: set[str] = set(changed.get("as-set", ()))
        for entry in named_entries:
            if entry.cls != "aut-num":
                continue
            old_aut = old_ir.aut_nums.get(entry.key)
            if old_aut is not None:
                as_byref_dirty.update(old_aut.member_of)
            if entry.obj is not None:
                as_byref_dirty.update(entry.obj.member_of)
        rs_byref_dirty: set[str] = set(changed.get("route-set", ()))
        for entry in route_entries:
            if entry.obj is not None:
                rs_byref_dirty.update(entry.obj.member_of)
        route_keys = [_route_entry_key(e) for e in route_entries]
        retired = {
            key
            for key, e in zip(route_keys, route_entries)
            if e.action in ("DEL", "MOD")
        }
        # The replay's per-snapshot route indexes, keyed like route_keys;
        # absent when an IR did not come out of (or go into) a replay.
        old_routes = _cached_route_index(old_ir)
        new_routes = _cached_route_index(new_ir)
        if retired and old_routes is not None:
            # Old-side member_of for retired routes: key probes.
            for key in retired:
                for route in old_routes[0].get(key, ()):
                    rs_byref_dirty.update(route.member_of)
        elif retired:
            # No index: one pass, origin-int prefiltered so the common
            # row costs a set probe, not a key.
            retired_origins = {key[1] for key in retired}
            for route in old_ir.route_objects:
                if route.member_of and route.origin in retired_origins:
                    if (route.prefix, route.origin, route.source) in retired:
                        rs_byref_dirty.update(route.member_of)

        as_set_byref = index.as_set_byref
        if as_byref_dirty:
            as_set_byref = dict(as_set_byref)
            for name in as_byref_dirty:
                as_set_byref.pop(name, None)
            targets = {
                name: set() for name in as_byref_dirty if name in new_ir.as_sets
            }
            if targets:
                for aut_num in new_ir.aut_nums.values():
                    for set_name in aut_num.member_of:
                        bucket = targets.get(set_name)
                        if bucket is None:
                            continue
                        as_set = new_ir.as_sets[set_name]
                        if _byref_allowed(as_set.mbrs_by_ref, aut_num.mnt_by):
                            bucket.add(aut_num.asn)
                for name, asns in targets.items():
                    if asns:
                        as_set_byref[name] = asns

        route_set_byref = index.route_set_byref
        rs_targets: dict[str, list] = {}
        if rs_byref_dirty:
            route_set_byref = dict(route_set_byref)
            for name in rs_byref_dirty:
                route_set_byref.pop(name, None)
            rs_targets = {
                name: [] for name in rs_byref_dirty if name in new_ir.route_sets
            }

        # -- route trie: point mutations on the touched pairs -------------
        # MODs keep their (prefix, origin) pair — the pair IS the key — so
        # presence in new_ir decides each touched pair's final trie state.
        # Pairs hold parsed Prefix values, never wire strings: a journal
        # may spell a prefix non-canonically (host bits set, alternate
        # IPv6 forms) and a string comparison would silently miss the
        # live route — deleting it from the trie while the IR keeps it.
        touched_pairs: set[tuple[Prefix, int]] = {
            (key[0], key[1]) for key in route_keys
        }
        present: set[tuple[Prefix, int]] = set()
        if touched_pairs and not rs_targets and new_routes is not None:
            # A pair is present iff some source still declares it.
            routes, sources = new_routes
            present = {
                pair
                for pair in touched_pairs
                if any((pair[0], pair[1], source) in routes for source in sources)
            }
        elif touched_pairs or rs_targets:
            touched_origins = {origin for _, origin in touched_pairs}
            for route in new_ir.route_objects:
                if rs_targets and route.member_of:
                    for set_name in route.member_of:
                        bucket = rs_targets.get(set_name)
                        if bucket is None:
                            continue
                        route_set = new_ir.route_sets[set_name]
                        if _byref_allowed(route_set.mbrs_by_ref, route.mnt_by):
                            bucket.append(route.prefix)
                if route.origin in touched_origins:
                    pair = (route.prefix, route.origin)
                    if pair in touched_pairs:
                        present.add(pair)
            for name, prefixes in rs_targets.items():
                if prefixes:
                    route_set_byref[name] = prefixes

        trie = index.route_trie
        if touched_pairs or index.resource is not None:
            # Thaw before mutating — and also when the old planes are mmap
            # views, so the patched index never pins the old artifact's fd.
            trie = trie.thaw()
        for pair in sorted(touched_pairs):
            if pair in present:
                trie.insert_route(pair[0], pair[1])
            else:
                trie.remove_route(pair[0], pair[1])

        # -- closure invalidation: reverse reachability ---------------------
        as_seeds = set(changed.get("as-set", ())) | as_byref_dirty
        dirty_as = (
            _reverse_reachable(as_seeds, _as_set_reverse_edges(old_ir, new_ir))
            if as_seeds
            else set()
        )
        rs_seeds = set(changed.get("route-set", ())) | rs_byref_dirty
        dirty_rs = (
            _reverse_reachable(rs_seeds, _route_set_reverse_edges(old_ir, new_ir))
            if rs_seeds
            else set()
        )

        as_sets_cache = dict(index.as_sets)
        resolve_as = sorted(name for name in dirty_as if name in as_sets_cache)
        for name in resolve_as:
            del as_sets_cache[name]
        route_sets_cache = dict(index.route_sets)
        resolve_rs = sorted(name for name in dirty_rs if name in route_sets_cache)
        for name in resolve_rs:
            del route_sets_cache[name]
        peering_sets_cache = dict(index.peering_sets)
        resolve_ps = sorted(
            name
            for name in changed.get("peering-set", ())
            if name in peering_sets_cache
        )
        for name in resolve_ps:
            del peering_sets_cache[name]

        # -- re-resolve through the ordinary engine code -------------------
        base = dataclasses.replace(
            index,
            route_trie=trie,
            as_set_byref=as_set_byref,
            route_set_byref=route_set_byref,
            as_sets=as_sets_cache,
            route_sets=route_sets_cache,
            peering_sets=peering_sets_cache,
            resource=None,
        )
        engine = QueryEngine(new_ir, index=base)
        matcher = AsPathMatcher(engine, compiled=index.aspath_regexes)
        for name in resolve_as:
            engine.flatten_as_set(name)
        for name in resolve_rs:
            engine.resolve_route_set(name)
        for name in resolve_ps:
            engine.resolve_peering_set(name)
        skipped = index.skipped_regexes
        if named_entries:
            # Policy/set objects changed: re-walk the ASTs so names and
            # regexes referenced for the first time get resolved (already
            # cached names no-op).  Route-only journals skip this.
            refs = _collect_references(new_ir)
            for name in sorted(refs.as_sets):
                engine.flatten_as_set(name)
            for name in sorted(refs.route_sets):
                engine.resolve_route_set(name)
            for name in sorted(refs.peering_sets):
                engine.resolve_peering_set(name)
            skipped = 0
            for node in refs.regexes:
                try:
                    matcher.compile(node)
                except Exception:  # noqa: BLE001 - mirror compile_index
                    skipped += 1
        for resolution in engine._route_set_cache.values():
            resolution.index.freeze()

        if digest is None and index.digest is not None:
            digest = hashlib.sha256(
                (index.digest + journal.digest()).encode("utf-8")
            ).hexdigest()
        serials = dict(index.serials)
        serials.update(journal.serials())
        elapsed = time.perf_counter() - started
        patched = CompiledIndex(
            digest=digest,
            route_trie=engine.routes,
            as_set_byref=engine._as_set_byref,
            route_set_byref=engine._route_set_byref,
            as_sets=engine._as_set_cache,
            route_sets=engine._route_set_cache,
            peering_sets=engine._peering_set_cache,
            aspath_regexes=matcher._compiled,
            compile_seconds=elapsed,
            skipped_regexes=skipped,
            generation=index.generation + 1,
            serials=serials,
        )
    if registry.enabled:
        registry.gauge("delta_apply_seconds").set(elapsed)
        registry.gauge("index_generation").set(patched.generation)
    return patched


def ir_digest(ir: Ir) -> str:
    """The IR content digest the on-disk cache is keyed by.

    SHA-256 over the canonical JSON encoding — the same encoding
    ``rpslyzer parse`` exports — so the key survives re-serialization and
    never depends on in-memory identity.
    """
    return serialize.stable_digest(ir)


# -- the on-disk cache ------------------------------------------------------


def default_cache_dir() -> Path:
    """``$RPSLYZER_CACHE_DIR``, else ``$XDG_CACHE_HOME/rpslyzer``, else
    ``~/.cache/rpslyzer``."""
    override = os.environ.get("RPSLYZER_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "rpslyzer"


def index_cache_path(digest: str, cache_dir: str | Path | None = None) -> Path:
    """Where the artifact for an IR digest lives in the cache."""
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return directory / f"index-{digest[:32]}.pkl"


def _library_version() -> str:
    import repro

    return repro.__version__


def save_index(index: CompiledIndex, path: str | Path) -> None:
    """Persist an artifact atomically (write-temp-then-rename).

    Layout: ``RPSLIDX3`` magic, a little-endian header length, the JSON
    header (format / library version / IR digest / trie meta / plane
    directory), then the 16-aligned plane region with the residual
    pickle blob at its tail.  :func:`load_index` refuses anything whose
    magic, format, version, or digest does not match, so a stale cache
    can only ever cost a recompile.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    region = bytearray()
    plane_entries = []
    for name, typecode, plane in index.route_trie.export_planes():
        region += b"\x00" * (-len(region) % _ALIGN)
        data = plane.tobytes() if isinstance(plane, array) else bytes(plane)
        plane_entries.append(
            {"name": name, "fmt": typecode, "offset": len(region), "nbytes": len(data)}
        )
        region += data
    rest = {
        f.name: getattr(index, f.name)
        for f in dataclasses.fields(index)
        if f.name not in ("route_trie", "resource")
    }
    blob = pickle.dumps(rest, protocol=pickle.HIGHEST_PROTOCOL)
    region += b"\x00" * (-len(region) % _ALIGN)
    pickle_entry = {"offset": len(region), "nbytes": len(blob)}
    region += blob
    header = json.dumps(
        {
            "format": INDEX_FORMAT,
            "version": _library_version(),
            "digest": index.digest,
            "trie": index.route_trie.meta(),
            "planes": plane_entries,
            "pickle": pickle_entry,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    lead = len(_MAGIC) + 8 + len(header)
    handle, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(_MAGIC)
            stream.write(len(header).to_bytes(8, "little"))
            stream.write(header)
            stream.write(b"\x00" * (_aligned(lead) - lead))
            stream.write(region)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def load_index(path: str | Path, expect_digest: str | None = None) -> CompiledIndex:
    """Load a persisted artifact, validating format, version, and digest.

    The file is ``mmap``'d and the trie planes become zero-copy
    memoryview casts over the mapping — near-zero deserialization, pages
    shared between processes.  The returned index owns the mapping;
    :meth:`CompiledIndex.close` releases it.
    """
    registry = get_registry()
    started = time.perf_counter()
    lead = len(_MAGIC) + 8
    stream = open(path, "rb")
    try:
        head = stream.read(lead)
        if len(head) < lead or head[: len(_MAGIC)] != _MAGIC:
            # Format-1 (plain pickle) and format-2 envelopes land here
            # too: recompile.
            raise IndexCacheError(f"{path}: not a compiled index (bad magic)")
        header_len = int.from_bytes(head[len(_MAGIC) :], "little")
        if not 0 < header_len <= _MAX_HEADER_BYTES:
            raise IndexCacheError(f"{path}: not a compiled index (bad header length)")
        raw_header = stream.read(header_len)
        try:
            header = json.loads(raw_header)
        except ValueError as exc:
            raise IndexCacheError(f"{path}: not a compiled index (bad header)") from exc
        if not isinstance(header, dict) or header.get("format") != INDEX_FORMAT:
            fmt = header.get("format") if isinstance(header, dict) else None
            raise IndexCacheError(f"{path}: not a compiled index (format={fmt!r})")
        if header.get("version") != _library_version():
            raise IndexCacheError(
                f"{path}: compiled by repro {header.get('version')!r}, "
                f"running {_library_version()!r}"
            )
        if expect_digest is not None and header.get("digest") != expect_digest:
            raise IndexCacheError(
                f"{path}: IR digest mismatch "
                f"(cached {header.get('digest')!r}, expected {expect_digest!r})"
            )
        mapped = mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ)
    finally:
        stream.close()
    root = memoryview(mapped)
    resource = _MmapResource(mapped, views := [root])
    try:
        region = _aligned(lead + header_len)
        planes = {}
        for entry in header["planes"]:
            start = region + entry["offset"]
            view = root[start : start + entry["nbytes"]].cast(entry["fmt"])
            views.append(view)
            planes[entry["name"]] = view
        blob = header["pickle"]
        start = region + blob["offset"]
        rest = pickle.loads(bytes(root[start : start + blob["nbytes"]]))
        trie = RouteTrie.from_planes(header["trie"], planes)
        index = CompiledIndex(route_trie=trie, resource=resource, **rest)
    except (KeyError, TypeError, ValueError, pickle.PickleError, EOFError) as exc:
        resource.close()
        raise IndexCacheError(f"{path}: corrupt compiled index ({exc})") from exc
    if registry.enabled:
        registry.gauge("index_load_seconds").set(time.perf_counter() - started)
        registry.gauge("index_mmap_bytes").set(len(mapped))
    return index


def get_or_compile(
    ir: Ir,
    *,
    digest: str | None = None,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
    refresh: bool = False,
) -> CompiledIndex:
    """The caching entry point: load the artifact for this IR or build it.

    ``digest`` defaults to :func:`ir_digest` of the IR.  With
    ``use_cache=False`` the pass always runs and nothing touches disk
    (the ``--no-index-cache`` escape hatch); ``refresh=True`` recompiles
    and overwrites an existing cache entry.  Cache I/O failures are never
    fatal — a corrupt or unwritable cache degrades to a recompile.
    """
    registry = get_registry()
    if digest is None:
        digest = ir_digest(ir)
    if not use_cache:
        return compile_index(ir, digest=digest)
    path = index_cache_path(digest, cache_dir)
    if not refresh:
        try:
            index = load_index(path, expect_digest=digest)
        except FileNotFoundError:
            pass
        except (IndexCacheError, pickle.PickleError, EOFError, OSError, ValueError):
            # Unusable cache entry: recompile and overwrite below.
            pass
        else:
            if registry.enabled:
                registry.counter("index_cache_total", result="hit").inc()
            return index
    if registry.enabled:
        registry.counter("index_cache_total", result="miss").inc()
    index = compile_index(ir, digest=digest)
    try:
        save_index(index, path)
    except OSError:
        pass  # read-only cache dir: the compile still succeeded
    return index
