"""Pluggable per-node tuple-store backends.

Every RJoin node stores the value-level tuples it receives in a node-local
store (see :mod:`repro.data.store`).  This module owns the *contract* of that
store — the abstract :class:`StoreBackend` — plus the registry/factory that
lets the engine swap implementations without touching the protocol layer:

* ``memory`` — the original dict + prefix-index store
  (:class:`~repro.data.store.TupleStore`); the default and the fastest for
  in-core simulations,
* ``sqlite`` — a disk-capable structured store
  (:class:`~repro.data.sqlite_store.SqliteTupleStore`) whose prefix matches
  and window expiries are SQL index scans and whose writes are buffered
  until the engine commits.

A backend implements one form of each operation — the form the node calls:
:meth:`StoreBackend.add`, :meth:`StoreBackend.tuples_for_key`,
:meth:`StoreBackend.tuples_for_prefix` and the ranged
:meth:`StoreBackend.remove_expired`.  The other forms
(:meth:`StoreBackend.add_batch`, :meth:`StoreBackend.match_batch`,
:meth:`StoreBackend.tuples_for_prefixes`,
:meth:`StoreBackend.remove_published_before` and
:meth:`StoreBackend.remove_sequenced_before`) are wrappers defined once,
here.

The contract rests on one premise about its input: *sequence order agrees
with publication order*.  A tuple's ``sequence`` is the global publication
number and the engine stamps ``pub_time`` from a clock that never moves
back as it counts it up (``RJoinEngine._build_tuple``), so of two tuples in
any store the one with the smaller sequence number was not published later.
Both window cutoffs are therefore heads of publication order.  Given that,
every backend must honour (the conformance suite in
``tests/data/test_store_backends.py`` enforces it for all registered
backends, and ``abc`` refuses to build one missing an abstract method):

* per-key record lists are ordered by publication ``(pub_time, sequence)``
  regardless of insertion order,
* :meth:`StoreBackend.tuples_for_prefix` deduplicates by tuple identity and
  returns publication order,
* expiry drops *strictly* older records and returns the removal count,
* :meth:`StoreBackend.remove_key` returns the removed records so membership
  re-homing can replay them into another node's backend — of any kind,
* ``len(store)`` counts stored entries (one per ``(key, identity)`` slot),
* the write buffer is bounded: after a committing
  :meth:`~repro.core.engine.RJoinEngine.publish` or ``publish_batch``,
  every store's write buffer is empty (the engine flushes every node's
  store once the drain is over).
"""

from __future__ import annotations

import abc
import heapq
from dataclasses import dataclass
from typing import (
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    TYPE_CHECKING,
    Tuple as TupleT,
)

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.tuples import Tuple

#: Mirrors :mod:`repro.core.keys`: ``relation SEP attribute SEP value``.
SEPARATOR = "\x1f"

MEMORY_BACKEND = "memory"
SQLITE_BACKEND = "sqlite"

#: Every registered backend name, in documentation order.
BACKEND_NAMES: TupleT[str, ...] = (MEMORY_BACKEND, SQLITE_BACKEND)

DEFAULT_BACKEND = MEMORY_BACKEND

#: Probe kinds accepted by :meth:`StoreBackend.match_batch`.
KEY_PROBE = "key"
PREFIX_PROBE = "prefix"


@dataclass
class StoredTuple:
    """A tuple held in a node-local store together with bookkeeping data."""

    tuple: "Tuple"
    key: str
    stored_at: float

    @property
    def identity(self) -> TupleT[str, int]:
        """Identity of the underlying published tuple."""
        return self.tuple.identity


def record_order(record: StoredTuple) -> TupleT[float, int]:
    """Publication order of a stored record."""
    return (record.tuple.pub_time, record.tuple.sequence)


def bucket_of(key: str) -> Optional[str]:
    """The ``relation SEP attribute SEP`` prefix of a value-level key.

    Returns None for keys that do not carry two separator-delimited fields
    (those are only reachable through each backend's slow scan path).
    """
    first = key.find(SEPARATOR)
    if first < 0:
        return None
    second = key.find(SEPARATOR, first + 1)
    if second < 0:
        return None
    return key[: second + 1]


def merge_records(lists: List[List[StoredTuple]]) -> List["Tuple"]:
    """Dedup and order the records of several key lists by publication.

    Each input list must already be in publication order; the merged result
    is publication-ordered and deduplicated by tuple identity.
    """
    if len(lists) == 1:
        merged: Iterable[StoredTuple] = lists[0]
    else:
        # k-way merge of already sorted per-key lists: O(n log k) and no
        # intermediate concatenated copy.
        merged = heapq.merge(*lists, key=record_order)
    seen: Set[TupleT[str, int]] = set()
    result: List["Tuple"] = []
    for record in merged:
        identity = record.tuple.identity
        if identity in seen:
            continue
        seen.add(identity)
        result.append(record.tuple)
    return result


class StoreBackend(abc.ABC):
    """Key-addressed local storage for published tuples.

    A store intentionally keeps one entry per ``(key, tuple identity)``
    pair: the same publication indexed under two different keys at the same
    node occupies two slots (it costs storage twice), which matches how the
    paper counts storage load, while lookups that span several keys
    deduplicate through :meth:`tuples_for_prefix`.
    """

    #: Registry name of the backend (``memory`` / ``sqlite``).
    name: ClassVar[str] = "abstract"

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def add(self, key: str, tup: "Tuple", now: float) -> StoredTuple:
        """Store ``tup`` under ``key`` and return the stored record."""

    @abc.abstractmethod
    def remove_older_than(self, key: str, cutoff: float) -> int:
        """Drop tuples under ``key`` stored strictly before ``cutoff``.

        Nothing under ``src/`` calls it; the end-to-end ledger's tracing
        wraps it by name (ROADMAP item 12(a)).
        """

    @abc.abstractmethod
    def remove_expired(
        self,
        published_before: Optional[float] = None,
        sequenced_before: Optional[int] = None,
    ) -> int:
        """Ranged GC: drop records behind either cutoff in one sweep.

        A record goes when it was published strictly before
        ``published_before`` or its sequence number is strictly below
        ``sequenced_before``; an omitted cutoff removes nothing.  By the
        contract's premise, what either cutoff takes is a head of each
        key's publication-ordered list.  Returns the removal count.
        """

    @abc.abstractmethod
    def remove_key(self, key: str) -> List[StoredTuple]:
        """Remove and return every record stored under ``key`` (re-homing)."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Remove every stored tuple."""

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def tuples_for_key(self, key: str) -> List["Tuple"]:
        """The tuples stored under exactly ``key``, in publication order."""

    @abc.abstractmethod
    def tuples_for_prefix(self, prefix: str) -> List["Tuple"]:
        """Tuples under any key starting with ``prefix`` (deduplicated, ordered)."""

    # ------------------------------------------------------------------
    # the other forms, defined once over the ones above
    # ------------------------------------------------------------------
    def add_batch(
        self, entries: Iterable[TupleT[str, "Tuple", float]]
    ) -> List[StoredTuple]:
        """Store ``(key, tuple, now)`` entries; returns the stored records."""
        return [self.add(key, tup, now) for key, tup, now in entries]

    def match_batch(
        self, probes: Sequence[TupleT[str, str]]
    ) -> List[List["Tuple"]]:
        """Serve a batch of probes, one result list per probe (in order).

        Each probe is ``(kind, text)`` with kind :data:`KEY_PROBE` (exact
        key, publication order, no dedup — same as :meth:`tuples_for_key`)
        or :data:`PREFIX_PROBE` (same as :meth:`tuples_for_prefix`:
        identity-deduplicated, publication order).
        """
        results: List[List["Tuple"]] = []
        for kind, text in probes:
            if kind == KEY_PROBE:
                results.append(self.tuples_for_key(text))
            elif kind == PREFIX_PROBE:
                results.append(self.tuples_for_prefix(text))
            else:
                raise ConfigurationError(
                    f"unknown probe kind {kind!r}; expected "
                    f"{KEY_PROBE!r} or {PREFIX_PROBE!r}"
                )
        return results

    def tuples_for_prefixes(
        self, prefixes: Sequence[str]
    ) -> Dict[str, List["Tuple"]]:
        """Resolve several prefixes at once: ``prefix -> matching tuples``."""
        return {prefix: self.tuples_for_prefix(prefix) for prefix in prefixes}

    def remove_published_before(self, cutoff: float) -> int:
        """Drop every tuple published strictly before ``cutoff``."""
        return self.remove_expired(published_before=cutoff)

    def remove_sequenced_before(self, cutoff: int) -> int:
        """Drop every tuple whose sequence number is strictly below ``cutoff``."""
        return self.remove_expired(sequenced_before=cutoff)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of currently stored entries (across all keys)."""

    @abc.abstractmethod
    def keys(self) -> Iterable[str]:
        """Iterate over the indexing keys that currently hold tuples."""

    @abc.abstractmethod
    def __iter__(self) -> Iterator[StoredTuple]:
        """Iterate over every stored record."""

    # ------------------------------------------------------------------
    # lifecycle (optional)
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Make buffered writes visible (no-op for unbuffered backends)."""

    def close(self) -> None:
        """Release external resources held by the backend (no-op default)."""


def make_store(backend: str = DEFAULT_BACKEND) -> StoreBackend:
    """Build a fresh store of the requested backend kind.

    Implementations are imported lazily so that selecting ``memory`` never
    pays for the alternatives (and so this module stays import-cycle free).
    """
    if backend == MEMORY_BACKEND:
        from repro.data.store import TupleStore

        return TupleStore()
    if backend == SQLITE_BACKEND:
        from repro.data.sqlite_store import SqliteTupleStore

        return SqliteTupleStore()
    known = ", ".join(BACKEND_NAMES)
    raise ConfigurationError(
        f"unknown store backend {backend!r}; known backends: {known}"
    )
