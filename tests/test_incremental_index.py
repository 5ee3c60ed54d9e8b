"""Differential tests for incremental index patching.

The contract under test: for any journal, ``patch_index`` must produce an
index that answers every query exactly like a from-scratch
``compile_index`` over the patched IR — structurally (byref tables, trie
contents) and behaviorally (verdict bit-identity under serial, parallel,
and fault-injected execution).  DEL-heavy journals drive the hash-plane
tombstone/rebuild machinery through the same oracle.
"""

from __future__ import annotations

import random

import pytest

from repro import api
from repro.bgp.routegen import collector_routes
from repro.chaos.faults import KillWorkerChunk
from repro.core.compiled import compile_index, ir_digest, patch_index
from repro.core.prefixtrie import RouteTrieBuilder
from repro.ir.model import Ir
from repro.irr.history import ChurnConfig, evolve_with_journal
from repro.irr.journal import Journal, JournalEntry, apply_journal_to_ir
from repro.net.prefix import Prefix


@pytest.fixture(scope="module")
def seed_ir(tiny_world):
    return tiny_world.merged_ir()


def _exact_map(trie) -> dict:
    return {key: origins for key, origins in trie.iter_exact()}


def _assert_equivalent(patched, fresh) -> None:
    """Structural equivalence between a patched and a fresh index."""
    assert _exact_map(patched.route_trie) == _exact_map(fresh.route_trie)
    assert patched.as_set_byref == fresh.as_set_byref
    assert {k: tuple(v) for k, v in patched.route_set_byref.items()} == {
        k: tuple(v) for k, v in fresh.route_set_byref.items()
    }
    # Fresh caches are re-resolved from scratch; every entry must agree
    # with the patched index's cache (the patched cache may hold extra
    # stale-but-correct entries for names nothing references any more).
    for name, resolution in fresh.as_sets.items():
        assert patched.as_sets[name] == resolution, name
    assert set(fresh.peering_sets) <= set(patched.peering_sets)


class TestTriePointOps:
    def _pairs(self, count: int, rng: random.Random) -> list:
        pairs = set()
        while len(pairs) < count:
            network = rng.randrange(0, 1 << 20) << 12
            length = rng.randrange(12, 25)
            origin = rng.randrange(1, 500)
            pairs.add((Prefix(4, network, length), origin))
        return sorted(pairs, key=lambda p: (p[0].network, p[0].length, p[1]))

    def _oracle(self, live: set):
        builder = RouteTrieBuilder()
        for prefix, origin in live:
            builder.add(prefix, origin)
        return builder.build()

    def test_differential_against_rebuilt_oracle(self):
        """Random insert/remove churn must match a from-scratch build."""
        rng = random.Random(1234)
        pairs = self._pairs(300, rng)
        builder = RouteTrieBuilder()
        live = set(pairs[:150])
        for prefix, origin in live:
            builder.add(prefix, origin)
        trie = builder.build().thaw()
        for step in range(400):
            prefix, origin = rng.choice(pairs)
            if (prefix, origin) in live:
                assert trie.remove_route(prefix, origin)
                live.discard((prefix, origin))
            else:
                assert trie.insert_route(prefix, origin)
                live.add((prefix, origin))
            if step % 100 == 99:
                assert _exact_map(trie) == _exact_map(self._oracle(live))
        assert _exact_map(trie) == _exact_map(self._oracle(live))

    def test_delete_heavy_churn_triggers_rebuild(self):
        """Tombstone pile-up forces plane rebuilds; answers stay exact."""
        rng = random.Random(7)
        pairs = self._pairs(400, rng)
        builder = RouteTrieBuilder()
        for prefix, origin in pairs:
            builder.add(prefix, origin)
        trie = builder.build().thaw()
        survivors = set(pairs)
        for prefix, origin in pairs[:360]:  # delete 90%
            assert trie.remove_route(prefix, origin)
            survivors.discard((prefix, origin))
        assert _exact_map(trie) == _exact_map(self._oracle(survivors))
        # Matching still works after the rebuild, not just enumeration.
        prefix, origin = next(iter(survivors))
        from repro.net.prefix import RangeOp, RangeOpKind

        op = RangeOp(kind=RangeOpKind.NONE, low=0, high=0)
        assert trie.match_origin(origin, 4, prefix.network, prefix.length, op)

    def test_point_ops_are_idempotent(self):
        builder = RouteTrieBuilder()
        prefix = Prefix(4, 10 << 24, 16)
        builder.add(prefix, 64500)
        trie = builder.build().thaw()
        assert not trie.insert_route(prefix, 64500)  # already present
        assert trie.insert_route(prefix, 64501)
        assert trie.remove_route(prefix, 64501)
        assert not trie.remove_route(prefix, 64501)  # already gone
        assert not trie.remove_route(Prefix(4, 11 << 24, 16), 64500)

    def test_thaw_leaves_the_original_untouched(self):
        builder = RouteTrieBuilder()
        prefix = Prefix(4, 10 << 24, 16)
        builder.add(prefix, 64500)
        original = builder.build()
        before = _exact_map(original)
        thawed = original.thaw()
        thawed.insert_route(Prefix(4, 12 << 24, 20), 64999)
        assert _exact_map(original) == before
        assert len(_exact_map(thawed)) == len(before) + 1


class TestPatchIndex:
    def test_chained_epochs_match_fresh_compiles(self, seed_ir):
        ir = seed_ir
        index = compile_index(ir, digest=ir_digest(ir))
        serial = 1
        for epoch in range(3):
            evolved, journal = evolve_with_journal(
                ir, ChurnConfig(seed=31), epoch=epoch, start_serial=serial
            )
            new_ir, report = apply_journal_to_ir(ir, journal)
            assert not report
            patched = patch_index(index, ir, new_ir, journal)
            fresh = compile_index(new_ir, digest=ir_digest(new_ir))
            _assert_equivalent(patched, fresh)
            assert patched.generation == epoch + 1
            for source, last in journal.serials().items():
                assert patched.serials[source] == last
            ir, index = new_ir, patched
            serial = max(journal.serials().values(), default=serial) + 1

    def test_digest_chains_deterministically(self, seed_ir):
        index = compile_index(seed_ir, digest=ir_digest(seed_ir))
        _, journal = evolve_with_journal(seed_ir, ChurnConfig(seed=31))
        new_ir, _ = apply_journal_to_ir(seed_ir, journal)
        once = patch_index(index, seed_ir, new_ir, journal)
        twice = patch_index(index, seed_ir, new_ir, journal)
        assert once.digest == twice.digest
        assert once.digest != index.digest

    def test_non_canonical_key_spellings_patch_correctly(self, seed_ir):
        """Regression: journal keys with host bits set are valid
        (Prefix.parse masks them) and replay cleanly, so the fast path
        runs — the trie mutations must match them to the canonical
        route instead of silently deleting / failing to insert it."""
        import ipaddress

        from repro.ir.model import RouteObject

        def _host_bit_spelling(prefix: Prefix) -> str:
            return f"{ipaddress.ip_address(prefix.network + 1)}/{prefix.length}"

        route = next(
            r
            for r in seed_ir.route_objects
            if r.prefix.version == 4 and r.prefix.length < 31
        )
        added = RouteObject(
            prefix=Prefix.parse("198.51.100.0/24"),
            origin=route.origin,
            source=route.source,
        )
        assert not any(
            r.prefix == added.prefix and r.origin == added.origin
            for r in seed_ir.route_objects
        )
        source = route.source or ""
        journal = Journal(
            entries=[
                JournalEntry(
                    serial=1,
                    action="MOD",
                    cls="route",
                    key=(_host_bit_spelling(route.prefix), route.origin, route.source),
                    obj=route,
                    source=source,
                ),
                JournalEntry(
                    serial=2,
                    action="ADD",
                    cls="route",
                    key=(_host_bit_spelling(added.prefix), added.origin, added.source),
                    obj=added,
                    source=source,
                ),
            ]
        )
        new_ir, report = apply_journal_to_ir(seed_ir, journal)
        assert not report  # valid spellings replay cleanly: fast path runs
        index = compile_index(seed_ir, digest=ir_digest(seed_ir))
        patched = patch_index(index, seed_ir, new_ir, journal)
        fresh = compile_index(new_ir, digest=ir_digest(new_ir))
        _assert_equivalent(patched, fresh)

    def test_pair_shared_by_two_sources_survives_one_deletion(self):
        """A (prefix, origin) pair declared under two sources stays in the
        trie until both retire it — whether patch_index reads presence
        from the replay's route index or scans a snapshot without one."""
        from repro.ir.model import RouteObject

        prefix = Prefix.parse("203.0.113.0/24")
        ir = Ir(
            route_objects=[
                RouteObject(prefix=prefix, origin=64500, source=source)
                for source in ("A", "B")
            ]
        )
        index = compile_index(ir)
        for source, expected in (("A", {64500}), ("B", set())):
            journal = Journal(
                entries=[
                    JournalEntry(
                        serial=1,
                        action="DEL",
                        cls="route",
                        key=(str(prefix), 64500, source),
                        source=source,
                    )
                ]
            )
            new_ir, report = apply_journal_to_ir(ir, journal)
            assert not report
            # A copy of the snapshot carries no cached replay index.
            uncached = Ir(route_objects=list(new_ir.route_objects))
            for target in (new_ir, uncached):
                patched = patch_index(index, ir, target, journal)
                assert patched.route_trie.exact_origins(4, prefix.network, 24) == expected
            ir, index = new_ir, patch_index(index, ir, new_ir, journal)

    def test_unpatchable_key_raises_loudly(self, seed_ir):
        """A key patch_index cannot parse must raise, never guess —
        callers reach this path only with a clean replay report."""
        index = compile_index(seed_ir, digest=ir_digest(seed_ir))
        bogus = Journal(
            entries=[
                JournalEntry(
                    serial=1,
                    action="DEL",
                    cls="route",
                    key=("not-a-prefix/xx", 64500, ""),
                    source="",
                )
            ]
        )
        with pytest.raises(ValueError):
            patch_index(index, seed_ir, seed_ir, bogus)

    def test_del_heavy_journal_matches_fresh_compile(self, seed_ir):
        """Deleting most of the table exercises plane rebuilds inside
        patch_index's trie path; equivalence must survive them."""
        rng = random.Random(99)
        doomed = rng.sample(
            seed_ir.route_objects, int(len(seed_ir.route_objects) * 0.8)
        )
        serials: dict[str, int] = {}
        entries = []
        seen = set()
        for route in doomed:
            key = (str(route.prefix), route.origin, route.source)
            if key in seen:
                continue
            seen.add(key)
            source = route.source or ""
            serials[source] = serials.get(source, 0) + 1
            entries.append(
                JournalEntry(
                    serial=serials[source],
                    action="DEL",
                    cls="route",
                    key=key,
                    source=source,
                )
            )
        journal = Journal(entries=entries)
        new_ir, report = apply_journal_to_ir(seed_ir, journal)
        assert not report
        index = compile_index(seed_ir, digest=ir_digest(seed_ir))
        patched = patch_index(index, seed_ir, new_ir, journal)
        fresh = compile_index(new_ir, digest=ir_digest(new_ir))
        _assert_equivalent(patched, fresh)


class TestVerdictIdentity:
    @pytest.fixture(scope="class")
    def evolved_state(self, tiny_world, seed_ir):
        """A patched session and a from-scratch session over the same IR."""
        session = api.open_session(
            seed_ir, as_rel=tiny_world.topology, use_cache=False
        )
        serial = 1
        for epoch in range(2):
            _, journal = evolve_with_journal(
                session.ir, ChurnConfig(seed=67), epoch=epoch, start_serial=serial
            )
            report = session.apply_deltas(journal)
            assert not report
            serial = max(journal.serials().values(), default=serial) + 1
        fresh = api.open_session(
            session.ir, as_rel=tiny_world.topology, use_cache=False
        )
        yield session, fresh
        fresh.close()
        session.close()

    @pytest.fixture(scope="class")
    def table(self, tiny_world):
        return list(
            collector_routes(
                tiny_world.topology, tiny_world.announced, tiny_world.collectors
            )
        )[:300]

    @staticmethod
    def _summary(stats):
        return (
            stats.routes_total,
            dict(stats.hop_totals),
            dict(stats.route_single_status),
            dict(stats.first_hop_statuses),
            stats.unverified_hops,
        )

    def test_serial_table_identity(self, evolved_state, table):
        patched, fresh = evolved_state
        assert self._summary(
            patched.verify_table(table, processes=1)
        ) == self._summary(fresh.verify_table(table, processes=1))

    def test_parallel_table_identity(self, evolved_state, table):
        patched, fresh = evolved_state
        assert self._summary(
            patched.verify_table(table, processes=2, chunk_size=50)
        ) == self._summary(fresh.verify_table(table, processes=1))

    def test_identity_under_worker_kill(self, evolved_state, table):
        """A killed worker chunk re-runs serially; verdicts stay identical."""
        patched, fresh = evolved_state
        stats = patched.verify_table(
            table,
            processes=2,
            chunk_size=50,
            fault_hook=KillWorkerChunk(chunk_index=1),
        )
        assert self._summary(stats) == self._summary(
            fresh.verify_table(table, processes=1)
        )

    def test_per_route_report_identity(self, evolved_state, table):
        patched, fresh = evolved_state
        for entry in table[:60]:
            left = patched.verify_route(
                str(entry.prefix), entry.as_path, collector="diff"
            )
            right = fresh.verify_route(
                str(entry.prefix), entry.as_path, collector="diff"
            )
            assert str(left) == str(right)
