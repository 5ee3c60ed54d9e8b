"""Property suite for the hash-plane prefix engine.

The contract: :class:`RouteTrie` and :class:`OpTrie` answer every query
identically to :class:`NaiveRouteIndex` / the dict-walk oracle — the
pre-trie algorithms preserved verbatim in ``prefix_oracle``.  Hypothesis
drives both engines over arbitrary IPv4+IPv6 prefix sets (including the
degenerate ``/0`` and max-length corners) and compares
insert/lookup/ancestor/enumeration answers, on frozen tries and on
thawed ones after point mutation; the nightly CI profile raises the
example budget.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from prefix_oracle import NaiveRouteIndex, matches_naive

from repro.core.prefixtrie import RouteTrieBuilder
from repro.core.query import PrefixOpIndex
from repro.net.prefix import Prefix, RangeOp, RangeOpKind

# -- strategies -------------------------------------------------------------


@st.composite
def prefixes(draw, version: int | None = None) -> Prefix:
    """An arbitrary canonical prefix, both families, all lengths."""
    v = draw(st.sampled_from([4, 6])) if version is None else version
    maxlen = 32 if v == 4 else 128
    length = draw(st.integers(min_value=0, max_value=maxlen))
    network = draw(st.integers(min_value=0, max_value=(1 << maxlen) - 1))
    shift = maxlen - length
    return Prefix(v, (network >> shift) << shift, length)


@st.composite
def range_ops(draw) -> RangeOp:
    """An arbitrary range operator, bounds beyond any real length included."""
    kind = draw(st.sampled_from(list(RangeOpKind)))
    if kind is RangeOpKind.EXACT:
        n = draw(st.integers(min_value=0, max_value=140))
        return RangeOp(kind, n, n)
    if kind is RangeOpKind.RANGE:
        low = draw(st.integers(min_value=0, max_value=140))
        high = draw(st.integers(min_value=low, max_value=150))
        return RangeOp(kind, low, high)
    return RangeOp(kind)


pairs = st.lists(
    st.tuples(prefixes(), st.integers(min_value=1, max_value=30)),
    min_size=0,
    max_size=60,
)


def _engines(route_pairs):
    builder = RouteTrieBuilder()
    naive = NaiveRouteIndex()
    for prefix, origin in route_pairs:
        builder.add(prefix, origin)
        naive.add(prefix, origin)
    return builder.build(), naive


def _probe_pool(route_pairs, extra):
    """Declared prefixes + arbitrary ones: ancestors/exacts get exercised."""
    return [prefix for prefix, _ in route_pairs] + list(extra)


# -- RouteTrie vs NaiveRouteIndex ------------------------------------------


@given(pairs, st.lists(prefixes(), max_size=10), range_ops(), st.integers(1, 35))
def test_match_queries_agree(route_pairs, extra, op, asn):
    trie, naive = _engines(route_pairs)
    for probe in _probe_pool(route_pairs, extra):
        args = (probe.version, probe.network, probe.length, op)
        assert trie.match_origin(asn, *args) == naive.match_origin(asn, *args)
        assert trie.match_any(*args) == naive.match_any(*args)
        members = frozenset(range(asn, asn + 3))
        assert trie.match_members(members, *args) == naive.match_members(
            members, *args
        )


@given(pairs, st.lists(prefixes(), max_size=10))
def test_exact_and_ancestor_queries_agree(route_pairs, extra):
    trie, naive = _engines(route_pairs)
    for probe in _probe_pool(route_pairs, extra):
        args = (probe.version, probe.network, probe.length)
        assert trie.has_exact(*args) == naive.has_exact(*args)
        assert trie.exact_origins(*args) == naive.exact_origins(*args)
        trie_cover = {(pl, frozenset(o)) for pl, o in trie.covering_origins(*args)}
        naive_cover = {(pl, frozenset(o)) for pl, o in naive.covering_origins(*args)}
        assert trie_cover == naive_cover


@given(pairs)
def test_per_origin_tables_agree(route_pairs):
    trie, naive = _engines(route_pairs)
    assert list(trie.origins()) == list(naive.origins())
    for _, origin in route_pairs:
        assert trie.has_origin(origin) == naive.has_origin(origin)
        assert trie.origin_keys(origin) == naive.origin_keys(origin)
    assert not trie.has_origin(10**9)
    assert trie.origin_keys(10**9) == ()
    assert dict(trie.iter_exact()) == dict(naive.iter_exact())
    assert trie.stats()["prefixes"] == naive.stats()["prefixes"]
    assert trie.stats()["origins"] == naive.stats()["origins"]


@given(pairs, st.lists(prefixes(), max_size=8), range_ops())
@settings(max_examples=30)
def test_pickle_roundtrip_preserves_answers(route_pairs, extra, op):
    trie, _ = _engines(route_pairs)
    clone = pickle.loads(pickle.dumps(trie))
    assert clone.stats() == trie.stats()
    for probe in _probe_pool(route_pairs, extra):
        args = (probe.version, probe.network, probe.length)
        assert clone.exact_origins(*args) == trie.exact_origins(*args)
        assert clone.match_any(*args, op) == trie.match_any(*args, op)


# -- OpTrie (via PrefixOpIndex) vs the dict-walk oracle ---------------------


@given(
    st.lists(st.tuples(prefixes(), range_ops()), max_size=50),
    st.lists(prefixes(), max_size=10),
    st.one_of(st.none(), range_ops()),
)
def test_prefix_op_index_matches_naive_walk(entries, extra, override):
    index = PrefixOpIndex()
    for prefix, op in entries:
        index.add(prefix, op)
    probe_pool = [prefix for prefix, _ in entries] + list(extra)
    for probe in probe_pool:
        assert index.matches(probe, override) == matches_naive(
            index, probe, override
        ), (probe, override)


@given(st.lists(st.tuples(prefixes(), range_ops()), max_size=40))
@settings(max_examples=30)
def test_prefix_op_index_pickle_compat(entries):
    index = PrefixOpIndex()
    for prefix, op in entries:
        index.add(prefix, op)
    clone = pickle.loads(pickle.dumps(index))
    assert len(clone) == len(index)
    for probe, _ in entries:
        assert clone.matches(probe) == index.matches(probe)
    # the dict view reconstructs from the trie (bounds may clamp at 255,
    # unreachable for real prefixes)
    assert clone.entries.keys() == index.entries.keys()


# -- enumeration: one scan of the live hash slots ---------------------------


@given(pairs)
def test_iter_exact_equals_oracle(route_pairs):
    trie, naive = _engines(route_pairs)
    entries = list(trie.iter_exact())
    assert len(entries) == len({key for key, _ in entries})  # each key once
    assert dict(entries) == dict(naive.iter_exact())


@given(st.lists(st.tuples(prefixes(), range_ops()), max_size=50))
def test_op_trie_iter_entries_equals_oracle(entries):
    index = PrefixOpIndex()
    expected: dict = {}
    for prefix, op in entries:
        index.add(prefix, op)
        key = (prefix.version, prefix.network, prefix.length)
        expected.setdefault(key, []).append(op)
    enumerated: dict = {}
    for key, op in index.freeze().iter_entries():
        enumerated.setdefault(key, []).append(op)
    assert enumerated == expected


# -- thawed tries under point mutation vs the oracle -------------------------


def _oracle_of(model: dict) -> NaiveRouteIndex:
    naive = NaiveRouteIndex()
    for (version, net, length), origins in model.items():
        for origin in origins:
            naive.add(Prefix(version, net, length), origin)
    return naive


def _mutate(trie, model: dict, ops) -> dict:
    """Apply ``(insert?, prefix, origin)`` ops to a thawed trie and a
    dict model; count the plane rebuilds each kind of op triggered."""
    rebuilds = {"insert": 0, "remove": 0}
    for insert, prefix, origin in ops:
        fam = trie._fam4 if prefix.version == 4 else trie._fam6
        before = fam.hval
        key = (prefix.version, prefix.network, prefix.length)
        origins = model.get(key, set())
        if insert:
            assert trie.insert_route(prefix, origin) == (origin not in origins)
            model.setdefault(key, set()).add(origin)
        else:
            assert trie.remove_route(prefix, origin) == (origin in origins)
            origins.discard(origin)
            if not origins:
                model.pop(key, None)
        if fam.hval is not before:
            rebuilds["insert" if insert else "remove"] += 1
    return rebuilds


def _assert_matches_model(trie, model: dict, probes) -> None:
    naive = _oracle_of(model)
    assert dict(trie.iter_exact()) == dict(naive.iter_exact())
    assert trie.stats()["prefixes"] == len(model)
    assert list(trie.origins()) == list(naive.origins())
    for probe in probes:
        args = (probe.version, probe.network, probe.length)
        assert trie.exact_origins(*args) == naive.exact_origins(*args)
        cover = {(pl, frozenset(o)) for pl, o in trie.covering_origins(*args)}
        assert cover == {(pl, frozenset(o)) for pl, o in naive.covering_origins(*args)}
        for op in (RangeOp(), RangeOp(RangeOpKind.PLUS), RangeOp(RangeOpKind.MINUS)):
            assert trie.match_any(*args, op) == naive.match_any(*args, op)
            assert trie.match_origin(3, *args, op) == naive.match_origin(3, *args, op)


mutations = st.lists(
    st.tuples(st.booleans(), prefixes(), st.integers(min_value=1, max_value=4)),
    max_size=80,
)


@given(pairs, mutations)
def test_thawed_mutation_sequences_agree(route_pairs, ops):
    trie, _ = _engines(route_pairs)
    model: dict = {}
    for prefix, origin in route_pairs:
        model.setdefault((prefix.version, prefix.network, prefix.length), set()).add(origin)
    # Removals mostly target declared pairs, so they hit real entries.
    declared = [(False, prefix, origin) for prefix, origin in route_pairs]
    thawed = trie.thaw()
    _mutate(thawed, model, [*ops[::2], *declared[::3], *ops[1::2]])
    probes = [prefix for _, prefix, _ in ops] + [prefix for prefix, _ in route_pairs]
    _assert_matches_model(thawed, model, probes)
    # The frozen original is untouched by the thawed copy's mutations.
    assert dict(trie.iter_exact()) == dict(_engines(route_pairs)[1].iter_exact())


@pytest.mark.parametrize("seed", range(4))
def test_mutation_crosses_both_rebuild_thresholds(seed):
    rng = random.Random(seed)
    pool = []
    for _ in range(120):
        version = rng.choice((4, 6))
        maxlen = 32 if version == 4 else 128
        length = rng.randint(8, maxlen if version == 4 else 64)
        network = rng.getrandbits(maxlen) >> (maxlen - length) << (maxlen - length)
        pool.append(Prefix(version, network, length))
    builder = RouteTrieBuilder()
    model: dict = {}
    for prefix in pool[:20]:
        builder.add(prefix, 1)
        model[(prefix.version, prefix.network, prefix.length)] = {1}
    trie = builder.build().thaw()
    # Grow to the whole pool (load-factor rebuilds), then shrink to a
    # handful (tombstone rebuilds), interleaving the other op each time.
    grow = [(rng.random() < 0.85, rng.choice(pool), rng.randint(1, 3)) for _ in range(600)]
    shrink = [(rng.random() < 0.1, rng.choice(pool), rng.randint(1, 3)) for _ in range(600)]
    shrink += [(False, prefix, origin) for prefix in pool[5:] for origin in (1, 2, 3)]
    grown = _mutate(trie, model, grow)
    _assert_matches_model(trie, model, pool)
    shrunk = _mutate(trie, model, shrink)
    _assert_matches_model(trie, model, pool)
    assert grown["insert"] >= 1, "no load-factor rebuild"
    assert shrunk["remove"] >= 1, "no tombstone rebuild"
    # Patched planes survive the pickle round trip (the artifact path).
    clone = pickle.loads(pickle.dumps(trie))
    assert dict(clone.iter_exact()) == dict(trie.iter_exact())


# -- degenerate corners (explicit, not property-driven) ---------------------


def test_default_route_and_host_routes_coexist():
    builder = RouteTrieBuilder()
    builder.add(Prefix(4, 0, 0), 1)  # 0.0.0.0/0
    builder.add(Prefix(4, (1 << 32) - 1, 32), 2)  # 255.255.255.255/32
    builder.add(Prefix(6, 0, 0), 3)  # ::/0
    builder.add(Prefix(6, (1 << 128) - 1, 128), 4)  # ff..ff/128
    trie = builder.build()
    assert trie.exact_origins(4, 0, 0) == {1}
    assert trie.exact_origins(4, (1 << 32) - 1, 32) == {2}
    assert trie.exact_origins(6, 0, 0) == {3}
    assert trie.exact_origins(6, (1 << 128) - 1, 128) == {4}
    plus = RangeOp(RangeOpKind.PLUS)
    # /0^+ covers everything in its family
    assert trie.match_origin(1, 4, 0xC0000200, 24, plus)
    assert trie.match_origin(3, 6, 0x20010DB8 << 96, 32, plus)
    assert not trie.match_origin(1, 6, 0, 0, plus)  # families are disjoint
    # a max-length probe walks to the bottom without shifting past it
    assert trie.match_origin(2, 4, (1 << 32) - 1, 32, plus)
    assert trie.match_origin(4, 6, (1 << 128) - 1, 128, plus)


def test_empty_trie_answers_negative():
    trie = RouteTrieBuilder().build()
    none = RangeOp()
    assert not trie.has_origin(1)
    assert not trie.match_any(4, 0, 0, none)
    assert not trie.match_origin(1, 6, 0, 128, RangeOp(RangeOpKind.PLUS))
    assert trie.exact_origins(4, 0, 0) == frozenset()
    assert trie.covering_origins(6, 0, 128) == []
    assert list(trie.iter_exact()) == []
    assert trie.stats()["prefixes"] == 0


def test_duplicate_adds_are_idempotent():
    builder = RouteTrieBuilder()
    naive = NaiveRouteIndex()
    for _ in range(3):
        builder.add(Prefix(4, 0xC0000200, 24), 65000)
        naive.add(Prefix(4, 0xC0000200, 24), 65000)
    trie = builder.build()
    assert trie.stats()["prefixes"] == 1
    assert trie.exact_origins(4, 0xC0000200, 24) == {65000}
    assert trie.origin_keys(65000) == naive.origin_keys(65000)
