"""The pre-trie prefix algorithms, kept as differential test oracles.

:class:`NaiveRouteIndex` is the dict engine that answered every route
query before the flat hash planes of :mod:`repro.core.prefixtrie`, and
:func:`matches_naive` is the ancestor enumeration that answered
route-set member queries before :class:`~repro.core.prefixtrie.OpTrie`.
Both are the original code, moved here verbatim so the
``BENCH_prefix_engine`` ratios stay comparable with ``baselines.json``.

The verifier's peering, filter and special-case checks all ask one
:class:`~repro.core.query.QueryEngine`, so installing the oracle on a
built verifier (``verifier.query.routes = naive_routes(ir)``) runs a
whole verification on the legacy engine.  ``benchmarks/`` imports this
module too.
"""

from __future__ import annotations

from repro.core.query import PrefixOpIndex
from repro.core.verify import Verifier
from repro.ir.model import Ir
from repro.net.prefix import Prefix, RangeOp, RangeOpKind
from repro.stats.verification import VerificationStats

_MAX_LEN = {4: 32, 6: 128}


class NaiveRouteIndex:
    """The pre-trie dict engine, preserved verbatim as the reference.

    The hypothesis property suite and the engine-identity tests compare
    :class:`~repro.core.prefixtrie.RouteTrie` against it, and the
    ``BENCH_prefix_engine`` microbenchmark measures the trie's speedup
    over it.  It answers the same queries, so it can stand in for the
    trie on any engine (see :func:`install_naive_routes`).
    """

    __slots__ = ("route_index", "origin_prefixes")

    def __init__(self):
        self.route_index: dict[tuple, set] = {}
        self.origin_prefixes: dict[int, set] = {}

    def add(self, prefix: Prefix, origin: int) -> None:
        """Register one declared ⟨prefix, origin⟩ pair."""
        key = (prefix.version, prefix.network, prefix.length)
        self.route_index.setdefault(key, set()).add(origin)
        self.origin_prefixes.setdefault(origin, set()).add(key)

    def has_origin(self, asn: int) -> bool:
        """Whether the AS originates at least one declared route."""
        return asn in self.origin_prefixes

    def has_exact(self, version: int, qnet: int, qlen: int) -> bool:
        """Whether some route object declares exactly this prefix."""
        return bool(self.route_index.get((version, qnet, qlen)))

    def exact_origins(self, version: int, qnet: int, qlen: int) -> frozenset:
        """Origin ASes of route objects exactly matching the prefix."""
        return frozenset(self.route_index.get((version, qnet, qlen), ()))

    def match_origin(self, asn: int, version: int, qnet: int, qlen: int, op: RangeOp) -> bool:
        """Ancestor enumeration over the per-origin declared-prefix set."""
        declared = self.origin_prefixes.get(asn)
        if not declared:
            return False
        maxlen = _MAX_LEN[version]
        for length in range(qlen, -1, -1):
            shift = maxlen - length
            key = (version, (qnet >> shift) << shift, length)
            if key in declared and op.allows(length, qlen):
                return True
        return False

    def match_any(self, version: int, qnet: int, qlen: int, op: RangeOp) -> bool:
        """Whether *any* declared prefix covers the query under ``op``."""
        maxlen = _MAX_LEN[version]
        route_index = self.route_index
        for length in range(qlen, -1, -1):
            shift = maxlen - length
            key = (version, (qnet >> shift) << shift, length)
            if key in route_index and op.allows(length, qlen):
                return True
        return False

    def match_members(
        self, members, version: int, qnet: int, qlen: int, op: RangeOp
    ) -> bool:
        """Whether any covering prefix is originated by a member AS."""
        maxlen = _MAX_LEN[version]
        route_index = self.route_index
        for length in range(qlen, -1, -1):
            shift = maxlen - length
            origins = route_index.get((version, (qnet >> shift) << shift, length))
            if origins and not members.isdisjoint(origins) and op.allows(length, qlen):
                return True
        return False

    def covering_origins(self, version: int, qnet: int, qlen: int) -> list:
        """All stored ancestors of the query as ``(length, origins)``."""
        maxlen = _MAX_LEN[version]
        out = []
        for length in range(qlen, -1, -1):
            shift = maxlen - length
            origins = self.route_index.get((version, (qnet >> shift) << shift, length))
            if origins:
                out.append((length, origins))
        return out

    def iter_exact(self):
        """Yield every ``((version, net, plen), origins-frozenset)``."""
        for key, origins in self.route_index.items():
            yield key, frozenset(origins)

    def origins(self):
        """Every origin AS with at least one declared route, sorted."""
        return iter(sorted(self.origin_prefixes))

    def origin_keys(self, asn: int) -> tuple:
        """Every ``(version, network, length)`` the AS declared."""
        return tuple(sorted(self.origin_prefixes.get(asn, ())))

    def stats(self) -> dict:
        """Size figures mirroring :meth:`RouteTrie.stats` (no planes)."""
        return {
            "prefixes": len(self.route_index),
            "origins": len(self.origin_prefixes),
            "plane_bytes": 0,
        }


def naive_routes(ir: Ir) -> NaiveRouteIndex:
    """The legacy route backend over every declared ⟨prefix, origin⟩."""
    routes = NaiveRouteIndex()
    for route in ir.route_objects:
        routes.add(route.prefix, route.origin)
    return routes


def install_naive_routes(verifier: Verifier) -> Verifier:
    """Swap a built verifier's route backend for the legacy engine."""
    verifier.query.routes = naive_routes(verifier.ir)
    return verifier


def verify_naive(ir: Ir, relationships, entries) -> VerificationStats:
    """A serial verification run on the legacy engine."""
    verifier = install_naive_routes(Verifier(ir, relationships))
    stats = VerificationStats()
    for entry in entries:
        stats.add_report(verifier.verify_entry(entry))
    return stats


def matches_naive(
    index: PrefixOpIndex, prefix: Prefix, override: RangeOp | None = None
) -> bool:
    """The pre-trie ancestor enumeration over a route-set's entries."""
    entries = index.entries
    if not entries:
        return False
    announced = prefix.length
    if override is not None and override.kind is RangeOpKind.NONE:
        override = None
    for key, declared_length in _ancestor_keys(prefix):
        ops = entries.get(key)
        if ops is None:
            continue
        if override is not None:
            if override.allows(declared_length, announced):
                return True
            continue
        for op in ops:
            if op.allows(declared_length, announced):
                return True
    return False


def _ancestor_keys(prefix: Prefix):
    """Yield ``(version, masked-network, length)`` for every covering length."""
    version = prefix.version
    max_length = prefix.max_length
    network = prefix.network
    for length in range(prefix.length, -1, -1):
        shift = max_length - length
        yield (version, (network >> shift) << shift, length), length
