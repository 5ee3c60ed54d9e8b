"""NRTM-style journals: serial-numbered deltas between IR snapshots.

Real IRRs publish near-real-time mirroring (NRTM) streams — per-source
sequences of ``ADD``/``DEL`` operations, each tagged with a monotonically
increasing serial — so mirrors absorb churn without refetching whole
dumps.  This module is the offline counterpart for the synthetic world:

* :class:`JournalEntry`/:class:`Journal` — the delta format, one entry
  per changed object, carrying the serial, the source registry, the
  object class and key, and (for ``ADD``/``MOD``) the full new object
  encoded with the IR codec;
* :func:`journal_between` — derive the journal separating two snapshots,
  reusing :func:`repro.irr.history.diff_irs` semantics (churn already
  produced the diff; now it is kept instead of thrown away);
* :func:`apply_journal_to_ir` — replay a journal onto an IR, returning
  the patched IR plus a :class:`~repro.core.degradation.DegradationReport`.
  Out-of-order or duplicate serials, missing targets, and corrupt
  payloads never produce a wrong IR: the replay stays deterministic and
  the report tells callers to fall back to a full recompile;
* :func:`save_journal`/:func:`load_journal` — a JSONL disk format
  (header line + one entry per line).  Unparseable lines are skipped and
  surfaced as issues, again feeding the degradation contract.

The incremental index path (:func:`repro.core.compiled.patch_index`,
``Session.apply_deltas``) consumes these journals; ``rpslyzer serve``
follows one on disk or accepts it over ``POST /reload``.
"""

from __future__ import annotations

import copy
import json
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable

import repro.ir.json_io  # noqa: F401 — registers the IR dataclasses with the codec
from repro.core.degradation import DegradationReport
from repro.ir import serialize
from repro.ir.model import Ir
from repro.net.prefix import Prefix, PrefixError

__all__ = [
    "JOURNAL_FORMAT",
    "Journal",
    "JournalEntry",
    "JournalError",
    "apply_journal_to_ir",
    "journal_between",
    "load_journal",
    "save_journal",
]

JOURNAL_FORMAT = "rpslyzer-journal/1"

_ACTIONS = ("ADD", "DEL", "MOD")
# Deterministic class order for journal emission (route churn last so a
# reader sees policy-object changes before the table that references them).
_CLASSES = ("aut-num", "as-set", "route-set", "peering-set", "filter-set", "route")


class JournalError(ValueError):
    """A journal document that cannot be trusted at all (bad header)."""


@dataclass(frozen=True, slots=True)
class JournalEntry:
    """One NRTM-style operation.

    ``key`` identifies the object within its class: the ASN for
    ``aut-num``, the set name for the named classes, and the
    ``(prefix, origin, source)`` triple for ``route``.  ``obj`` carries
    the full post-change object for ``ADD``/``MOD`` (None for ``DEL``),
    so replay needs no access to the emitting side's IR.
    """

    serial: int
    action: str
    cls: str
    key: object
    obj: object = None
    source: str = ""

    def to_jsonable(self) -> dict:
        """The wire/disk form: plain JSON, the object via the IR codec."""
        key = list(self.key) if isinstance(self.key, tuple) else self.key
        entry = {
            "serial": self.serial,
            "action": self.action,
            "cls": self.cls,
            "key": key,
            "source": self.source,
        }
        if self.obj is not None:
            entry["obj"] = serialize.encode(self.obj)
        return entry

    @classmethod
    def from_jsonable(cls, data: dict) -> "JournalEntry":
        action = data["action"]
        if action not in _ACTIONS:
            raise ValueError(f"unknown journal action {action!r}")
        if data["cls"] not in _CLASSES:
            raise ValueError(f"unknown journal class {data['cls']!r}")
        key = data["key"]
        if isinstance(key, list):
            key = tuple(key)
        obj = serialize.decode(data["obj"]) if "obj" in data else None
        return cls(
            serial=int(data["serial"]),
            action=action,
            cls=data["cls"],
            key=key,
            obj=obj,
            source=data.get("source", ""),
        )


@dataclass(slots=True)
class Journal:
    """An ordered sequence of entries plus any parse-time issues.

    ``issues`` is non-empty when :func:`load_journal` had to skip
    corrupt lines; :func:`apply_journal_to_ir` folds them into its
    degradation report so a damaged journal degrades to a full recompile
    instead of silently under-applying.
    """

    entries: list[JournalEntry] = field(default_factory=list)
    issues: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def serials(self) -> dict[str, int]:
        """Highest serial seen per source registry."""
        last: dict[str, int] = {}
        for entry in self.entries:
            if entry.serial > last.get(entry.source, -1):
                last[entry.source] = entry.serial
        return last

    def digest(self) -> str:
        """A stable content digest (chains the patched index's digest)."""
        return serialize.stable_digest(
            [entry.to_jsonable() for entry in self.entries]
        )

    def to_jsonable(self) -> dict:
        """The whole journal as one plain-JSON document (format-tagged)."""
        return {
            "format": JOURNAL_FORMAT,
            "entries": [entry.to_jsonable() for entry in self.entries],
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "Journal":
        if data.get("format") != JOURNAL_FORMAT:
            raise JournalError(f"not a journal: format={data.get('format')!r}")
        journal = cls()
        for position, raw in enumerate(data.get("entries", ())):
            try:
                journal.entries.append(JournalEntry.from_jsonable(raw))
            except (KeyError, TypeError, ValueError) as exc:
                journal.issues.append(f"entry {position}: {exc}")
        return journal


def _fast_route_key(route) -> tuple:
    """The in-memory form of a route's journal key.

    Hashing the (frozen) :class:`~repro.net.prefix.Prefix` directly skips
    the string rendering that dominates at production scale — building a
    100k-route index by stringified keys costs hundreds of milliseconds,
    by Prefix keys tens.
    """
    return (route.prefix, route.origin, route.source)


def _entry_fast_key(key: object) -> tuple | None:
    """Convert a wire-format ``(prefix_str, origin, source)`` key to the
    in-memory form; ``None`` if it cannot name any live route."""
    try:
        return (Prefix.parse(key[0]), key[1], key[2])
    except (PrefixError, TypeError, IndexError, AttributeError):
        return None


# Per-snapshot route indexes: id(ir) -> (weakref to the ir, index,
# sources).  The index maps _fast_route_key -> tuple of live RouteObject
# copies (keyed collapse groups duplicates, the tuple preserves
# multiplicity); ``sources`` holds every source its keys name (a superset
# once deletions retire a source's last route), so "does any source still
# declare this (prefix, origin)" is a handful of key probes.  Entries die
# with their IR via weakref.finalize, so a long-running session holds at
# most one index per live snapshot; apply_journal_to_ir derives the next
# snapshot's index from the previous one with an O(delta) update instead
# of an O(table) rescan — the heart of the millisecond delta path, which
# patch_index reads too.
_ROUTE_INDEX_CACHE: dict[int, tuple] = {}


def _cached_route_index(ir: Ir) -> tuple[dict, frozenset] | None:
    """``(index, sources)`` for a snapshot a replay produced or read."""
    entry = _ROUTE_INDEX_CACHE.get(id(ir))
    if entry is not None and entry[0]() is ir:
        return entry[1], entry[2]
    return None


def _remember_route_index(ir: Ir, index: dict, sources: frozenset) -> None:
    try:
        ref = weakref.ref(ir)
    except TypeError:  # no weakref support: skip caching, stay correct
        return
    _ROUTE_INDEX_CACHE[id(ir)] = (ref, index, sources)
    weakref.finalize(ir, _ROUTE_INDEX_CACHE.pop, id(ir), None)


def _build_route_index(ir: Ir) -> dict:
    grouped: dict[tuple, list] = {}
    for route in ir.route_objects:
        grouped.setdefault(_fast_route_key(route), []).append(route)
    return {key: tuple(copies) for key, copies in grouped.items()}


def _object_key(cls: str, key: object):
    """Normalize a diff key into its journal representation."""
    if cls == "route" and isinstance(key, list):
        return tuple(key)
    return key


def journal_between(old: Ir, new: Ir, *, start_serial: int = 1) -> Journal:
    """The journal that transforms ``old`` into ``new``.

    Reuses :func:`~repro.irr.history.diff_irs` semantics (rendering-based
    modification detection) and assigns serials sequentially in a
    deterministic order: per class, deletions then modifications then
    additions, keys sorted.  Entry sources come from the objects
    themselves, matching how a per-registry NRTM stream would tag them.
    """
    from repro.irr.history import _keyed, diff_irs

    diff = diff_irs(old, new)
    old_keyed = _keyed(old)
    new_keyed = _keyed(new)
    journal = Journal()
    serial = start_serial
    for cls in _CLASSES:
        buckets = (
            ("DEL", sorted(diff.removed.get(cls, ()), key=repr)),
            ("MOD", sorted(diff.modified.get(cls, ()), key=repr)),
            ("ADD", sorted(diff.added.get(cls, ()), key=repr)),
        )
        for action, keys in buckets:
            for key in keys:
                if action == "DEL":
                    obj = None
                    source = getattr(old_keyed[cls][key], "source", "")
                else:
                    obj = new_keyed[cls][key]
                    source = getattr(obj, "source", "")
                journal.entries.append(
                    JournalEntry(
                        serial=serial,
                        action=action,
                        cls=cls,
                        key=_object_key(cls, key),
                        obj=obj,
                        source=source or "",
                    )
                )
                serial += 1
    return journal


def _shallow_copy_ir(ir: Ir) -> Ir:
    """A structurally fresh IR sharing the (immutable-by-convention)
    objects: container copies are O(objects), not O(bytes), which is what
    keeps journal application off the delta path's critical cost."""
    return Ir(
        aut_nums=dict(ir.aut_nums),
        as_sets=dict(ir.as_sets),
        route_sets=dict(ir.route_sets),
        peering_sets=dict(ir.peering_sets),
        filter_sets=dict(ir.filter_sets),
        route_objects=list(ir.route_objects),
    )


def apply_journal_to_ir(
    ir: Ir, journal: Journal | Iterable[JournalEntry]
) -> tuple[Ir, DegradationReport]:
    """Replay a journal onto an IR; never mutates the input.

    The replay is deterministic for any input, valid or not: entries
    apply in order, a ``DEL``/``MOD`` whose target is missing records a
    degradation event and (for ``MOD``) falls back to an add, a
    duplicate ``ADD`` replaces.  Serial discipline — strictly increasing
    per source — is checked up front; violations degrade but do not stop
    the replay.  A non-empty report tells the index layer to recompile
    from scratch instead of patching incrementally: degraded journals
    may describe the final state only loosely, and correctness beats
    latency ("never wrong answers").
    """
    report = DegradationReport()
    entries = list(journal.entries if isinstance(journal, Journal) else journal)
    if isinstance(journal, Journal):
        for issue in journal.issues:
            report.record("journal", "corrupt-entry", detail=issue)

    last_serial: dict[str, int] = {}
    for entry in entries:
        previous = last_serial.get(entry.source)
        if previous is not None and entry.serial <= previous:
            kind = (
                "duplicate-serial" if entry.serial == previous else "out-of-order-serial"
            )
            report.record(
                "journal",
                kind,
                detail=f"source {entry.source or '?'}: {entry.serial} after {previous}",
            )
        else:
            last_serial[entry.source] = entry.serial

    patched = _shallow_copy_ir(ir)
    new_index: dict[tuple, tuple] | None = None
    sources: frozenset = frozenset()
    removed_ids: set[int] = set()

    def route_index() -> dict[tuple, tuple]:
        # Keyed like diff_irs: duplicate declarations of the same
        # (prefix, origin, source) collapse to one journal object, so a
        # DEL/MOD must retire every live copy at once.  The base index is
        # recalled from the per-snapshot cache when this IR came out of a
        # previous apply — then the whole replay is O(delta), not O(table).
        nonlocal new_index, sources
        if new_index is None:
            cached = _cached_route_index(ir)
            if cached is None:
                base = _build_route_index(ir)
                sources = frozenset(key[2] for key in base)
                _remember_route_index(ir, base, sources)
            else:
                base, sources = cached
            new_index = dict(base)
        return new_index

    named = {
        "aut-num": patched.aut_nums,
        "as-set": patched.as_sets,
        "route-set": patched.route_sets,
        "peering-set": patched.peering_sets,
        "filter-set": patched.filter_sets,
    }
    appended: list = []
    for entry in entries:
        if entry.action in ("ADD", "MOD") and entry.obj is None:
            report.record(
                "journal", "missing-payload",
                detail=f"{entry.cls} {entry.key!r} serial {entry.serial}",
            )
            continue
        if entry.cls == "route":
            key = _entry_fast_key(entry.key)
            index = route_index()
            live = index.get(key, ()) if key is not None else ()
            if entry.action == "DEL":
                if live:
                    removed_ids.update(id(route) for route in live)
                    del index[key]
                else:
                    report.record(
                        "journal", "missing-target",
                        detail=f"route {entry.key!r} serial {entry.serial}",
                    )
            else:
                if entry.action == "MOD" and not live:
                    report.record(
                        "journal", "missing-target",
                        detail=f"route {entry.key!r} serial {entry.serial}",
                    )
                if entry.action == "ADD" and live:
                    report.record(
                        "journal", "duplicate-add",
                        detail=f"route {entry.key!r} serial {entry.serial}",
                    )
                if live:
                    removed_ids.update(id(route) for route in live)
                    del index[key]
                obj = entry.obj
                if id(obj) in removed_ids:
                    # The payload *is* a retired instance (e.g. a MOD that
                    # re-sends the live object): append a fresh copy so the
                    # identity-based removal cannot swallow it.
                    obj = copy.copy(obj)
                obj_key = _fast_route_key(obj)
                if key is None or key != obj_key:
                    # The entry key cannot name the payload it carries
                    # (unparseable, wrong arity, or a different route
                    # entirely).  The replay below still lands the object
                    # under its own key, but the index layer patches the
                    # trie by *entry* keys — so record a degradation and
                    # let the full-recompile fallback keep answers right.
                    report.record(
                        "journal", "key-mismatch",
                        detail=(
                            f"route entry key {entry.key!r} does not match "
                            f"payload {obj_key!r} serial {entry.serial}"
                        ),
                    )
                # Index the payload under its own key, which a malformed
                # journal may spell differently from the entry key; any
                # pre-existing copies under that spelling stay live.
                index[obj_key] = index.get(obj_key, ()) + (obj,)
                appended.append(obj)
        else:
            table = named[entry.cls]
            key = entry.key
            if entry.action == "DEL":
                if key in table:
                    del table[key]
                else:
                    report.record(
                        "journal", "missing-target",
                        detail=f"{entry.cls} {key!r} serial {entry.serial}",
                    )
            else:
                if entry.action == "MOD" and key not in table:
                    report.record(
                        "journal", "missing-target",
                        detail=f"{entry.cls} {key!r} serial {entry.serial}",
                    )
                if entry.action == "ADD" and key in table:
                    report.record(
                        "journal", "duplicate-add",
                        detail=f"{entry.cls} {key!r} serial {entry.serial}",
                    )
                table[key] = entry.obj
    if removed_ids:
        patched.route_objects = [
            route for route in patched.route_objects if id(route) not in removed_ids
        ] + [route for route in appended if id(route) not in removed_ids]
    else:
        patched.route_objects.extend(appended)  # already a fresh copy
    if new_index is not None:
        sources = sources.union(route.source for route in appended)
        _remember_route_index(patched, new_index, sources)
    return patched, report


def save_journal(journal: Journal, destination: str | Path | IO[str]) -> None:
    """Write the JSONL form: a header line, then one entry per line."""
    def write(stream: IO[str]) -> None:
        stream.write(json.dumps({"format": JOURNAL_FORMAT}) + "\n")
        for entry in journal.entries:
            stream.write(json.dumps(entry.to_jsonable(), sort_keys=True) + "\n")

    if hasattr(destination, "write"):
        write(destination)
    else:
        with open(destination, "w", encoding="utf-8") as stream:
            write(stream)


def load_journal(source: str | Path | IO[str]) -> Journal:
    """Read a JSONL journal back; corrupt entry lines become issues.

    Raises :class:`JournalError` only when the header is missing or
    names an unknown format — with no trustworthy framing, skipping
    lines could silently drop arbitrary updates.  Individual bad lines
    are recorded on ``Journal.issues`` so the apply step degrades to a
    full recompile rather than guessing.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise JournalError("empty journal document")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise JournalError(f"unreadable journal header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != JOURNAL_FORMAT:
        raise JournalError(
            f"not a journal: format={header.get('format')!r}"
            if isinstance(header, dict)
            else "not a journal: header is not an object"
        )
    journal = Journal()
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            journal.entries.append(JournalEntry.from_jsonable(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            journal.issues.append(f"line {number}: {exc}")
    return journal


def route_prefix(entry: JournalEntry) -> Prefix:
    """The prefix a route entry refers to (key-side, works for DELs)."""
    return Prefix.parse(entry.key[0])
