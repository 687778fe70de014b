"""The node-local stored-query index (input and rewritten query tables).

:class:`QueryTable` files the queries a node stores under the text of their
index key and sub-indexes each key's records by the selection value an
arriving tuple must carry to rewrite them, so a tuple arrival fetches only the
records it can trigger.  :class:`StoredQueryRecord` is one stored query with
the bookkeeping the table maintains on it.  :mod:`repro.core.node` holds the
handlers that fill and probe the tables.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple as TupleT,
    Union,
)

from repro.core.dedup import ProjectionTracker
from repro.core.keys import IndexKey
from repro.core.protocol import QueryState
from repro.core.rewriting import TriggerPlan
from repro.sql.ast import Query, SelectionPredicate


@dataclass(slots=True)
class StoredQueryRecord:
    """A (rewritten or input) query stored at a node, with local bookkeeping.

    ``seq``, ``discriminator`` and ``share_key`` are maintained by the
    :class:`QueryTable` the record currently lives in: the insertion sequence
    number (the deterministic trigger order), the selection of the record's
    query the predicate-aware index filed the record under (None for
    wildcard records) and the cheap part of its state's sharing identity
    (None when the state is not shareable); so is ``key``, which the table
    points at its bucket's one :class:`IndexKey`.  ``plan`` points at the
    compiled rewrite of the record's query by its key's relation in the
    state's :class:`~repro.core.rewriting.QueryShape`: looked up by the first
    tuple that triggers the record and reused by every later one, on this
    node or, after a re-homing, on the next.
    """

    state: QueryState
    key: IndexKey
    stored_at: float
    tracker: Optional[ProjectionTracker] = None
    seq: int = 0
    discriminator: Optional[SelectionPredicate] = None
    share_key: Optional[Hashable] = None
    plan: Optional[TriggerPlan] = None


#: A sharing-index entry: the one record with a cheap part, or several by query.
_ShareHosts = Union[StoredQueryRecord, Dict[Query, StoredQueryRecord]]


class _KeyBucket:
    """The records stored under one key text, sub-indexed for probing.

    ``records`` maps the table-wide insertion sequence number to the record
    (dict order = insertion order = deterministic trigger order).  Every
    record additionally lives either in ``wildcard`` (no usable
    discriminating selection) or in ``by_value[attribute][value]`` — the
    predicate-aware index an arriving tuple probes with its own values.
    ``expiry`` holds per-window-mode ``(deadline, seq)`` min-heaps so the
    trigger path drops aged-out records without scanning the bucket.  Entries
    of records removed otherwise are skipped when popped, and each heap holds
    at most 2 × live records + 8 entries (:meth:`bound_expiry`).  ``key`` is
    the :class:`IndexKey` of the bucket's first record, which every later
    record points at.  ``by_share`` is the sharing index: the cheap part of a
    shareable state (:func:`~repro.core.rewriting.canonical_state_key`) maps
    to the one resident record that has it or, from the second such record
    on, to a ``{query: record}`` dict — one entry per resident shareable
    record, freed with it.
    """

    __slots__ = (
        "key",
        "records",
        "wildcard",
        "by_value",
        "by_share",
        "expiry",
        "version",
        "last_probe",
    )

    def __init__(self, key: IndexKey) -> None:
        self.key = key
        self.records: Dict[int, StoredQueryRecord] = {}
        self.wildcard: Dict[int, StoredQueryRecord] = {}
        self.by_value: Dict[str, Dict[object, Dict[int, StoredQueryRecord]]] = {}
        self.by_share: Dict[Hashable, _ShareHosts] = {}
        self.expiry: Dict[str, List[TupleT[float, int]]] = {
            "time": [],
            "tuples": [],
        }
        #: Mutation counter; bumped on every add/remove so probe plans and
        #: memoised candidate lists can be invalidated cheaply.
        self.version = 0
        #: Batch-aware probe memo: ``(version, values signature, candidates)``
        #: of the last probe.  A ``publish_batch`` burst delivers many tuples
        #: to the same key back to back; while the bucket is unchanged and
        #: the tuples carry the same discriminating values, the candidate
        #: list is assembled once and reused.
        self.last_probe: Optional[
            TupleT[int, TupleT[object, ...], List[StoredQueryRecord]]
        ] = None

    def bound_expiry(self, mode: str) -> None:
        """Drop ``mode``'s stale heap entries once they break the bound.

        Popping skips them anyway, so no trigger order or drop count changes.
        """
        heap = self.expiry[mode]
        if len(heap) > 2 * len(self.records) + 8:
            # In place: :meth:`QueryTable.probe` may be popping this very list.
            heap[:] = [entry for entry in heap if entry[1] in self.records]
            heapq.heapify(heap)


class QueryTable:
    """Predicate-aware stored-query index with O(1) size and heap-driven GC.

    Both node-local query tables (input and rewritten) use this structure.
    Under each key text, records are sub-indexed by the discriminating bound
    values their trigger conditions test (see
    :meth:`~repro.core.rewriting.QueryShape.discriminator`), so a tuple
    arrival fetches only the records its values can actually rewrite —
    mirroring the tuple store's prefix index, but over queries.  The table
    also keeps per-bucket and table-wide expiry heaps (window GC without
    scans) and a per-bucket registry of canonical sharing keys for
    multi-query state sharing.
    """

    __slots__ = ("_by_key", "_size", "_expiry", "_tiebreak")

    def __init__(self) -> None:
        self._by_key: Dict[str, _KeyBucket] = {}
        self._size = 0
        # mode -> (deadline, seq, key text, record) min-heap.  Entries are
        # never removed eagerly; stale ones (records dropped through the
        # trigger path or rehomed) are skipped by an identity check.
        self._expiry: Dict[str, List[TupleT[float, int, str, StoredQueryRecord]]] = {
            "time": [],
            "tuples": [],
        }
        self._tiebreak = itertools.count()

    def add(self, key_text: str, record: StoredQueryRecord) -> None:
        """Store ``record`` under ``key_text``, (re)indexing it for probes."""
        bucket = self._by_key.get(key_text)
        if bucket is None:
            bucket = self._by_key[key_text] = _KeyBucket(record.key)
        else:
            record.key = bucket.key
        seq = next(self._tiebreak)
        record.seq = seq
        bucket.records[seq] = record
        bucket.version += 1
        self._size += 1

        sp = record.discriminator = self._discriminator_of(record)
        if sp is None:
            bucket.wildcard[seq] = record
        else:
            bucket.by_value.setdefault(sp.attribute.attribute, {}).setdefault(
                sp.value, {}
            )[seq] = record

        if record.share_key is not None:
            # The first record with a cheap part is filed as it is, without a
            # look at its query; from the second on they are told apart by
            # their queries, in a dict (the first host of a query wins).  A
            # query that cannot be hashed (an unhashable selection constant)
            # leaves the newcomer unshareable: stored and triggered like any
            # other record, only never found as a host.
            hosts = bucket.by_share.setdefault(record.share_key, record)
            if hosts is not record:
                try:
                    if not isinstance(hosts, dict):
                        hosts = {hosts.state.query: hosts}
                    hosts.setdefault(record.state.query, record)
                    bucket.by_share[record.share_key] = hosts
                except TypeError:
                    record.share_key = None

        window = record.state.query.window
        state = record.state.window_state
        if window is not None and state is not None:
            # expired(window, state, clock) <=> clock > deadline.
            deadline = state.min_clock + window.size - 1
            heapq.heappush(bucket.expiry[window.mode], (deadline, seq))
            heapq.heappush(
                self._expiry[window.mode], (deadline, seq, key_text, record)
            )

    @staticmethod
    def _discriminator_of(
        record: StoredQueryRecord,
    ) -> Optional[SelectionPredicate]:
        """The selection whose ``(attribute, value)`` group the record is filed under.

        Only safe discriminators are used: an explicit selection on the
        record's key relation (step 1 of the rewrite kills mismatching
        tuples before any other effect).  Records carrying a projection
        tracker stay wildcard — the DISTINCT tracker mutates on every
        admitted tuple, so those records must see every arrival.  At the
        value level the key's own attribute is trivially satisfied by every
        arriving tuple, so a selection on any *other* attribute is
        preferred.  Which selection that is, the state's shape knows.
        """
        if record.tracker is not None:
            return None
        key = record.key
        state = record.state
        sp = state.shape.discriminator(
            state.query, key.relation, key.attribute if key.is_value_level else None
        )
        if sp is None:
            return None
        try:
            hash(sp.value)
        except TypeError:
            return None
        return sp

    def _remove_record(
        self, key_text: str, bucket: _KeyBucket, record: StoredQueryRecord
    ) -> None:
        """Unlink ``record`` from every bucket structure (heaps stay lazy)."""
        seq = record.seq
        del bucket.records[seq]
        bucket.version += 1
        self._size -= 1
        sp = record.discriminator
        if sp is None:
            bucket.wildcard.pop(seq, None)
        else:
            attribute = sp.attribute.attribute
            groups = bucket.by_value.get(attribute)
            if groups is not None:
                group = groups.get(sp.value)
                if group is not None:
                    group.pop(seq, None)
                    if not group:
                        del groups[sp.value]
                        if not groups:
                            del bucket.by_value[attribute]
        if record.share_key is not None:
            hosts = bucket.by_share.get(record.share_key)
            if hosts is record:
                del bucket.by_share[record.share_key]
            elif isinstance(hosts, dict) and hosts.get(record.state.query) is record:
                del hosts[record.state.query]
                if not hosts:
                    del bucket.by_share[record.share_key]
        if not bucket.records:
            del self._by_key[key_text]
            return
        window = record.state.query.window
        if window is not None:
            bucket.bound_expiry(window.mode)

    # ------------------------------------------------------------------
    # probing (the tuple-arrival fast path)
    # ------------------------------------------------------------------
    def probe(
        self,
        key_text: str,
        clocks: Mapping[str, float],
        value_of: Callable[[str], object],
    ) -> TupleT[List[StoredQueryRecord], int]:
        """Candidate records for a tuple arrival, plus the expiry-drop count.

        First pops the bucket's expiry heaps for every window mode in
        ``clocks`` (records whose deadline passed can never be satisfied
        again — Section 5 — and are dropped exactly like the old linear scan
        dropped them).  Then assembles the candidates: every wildcard record
        plus, per discriminating attribute, the records filed under the
        arriving tuple's value for it (``value_of``).  Candidates come back
        in insertion order, preserving the deterministic trigger order of
        the full-scan implementation.
        """
        bucket = self._by_key.get(key_text)
        if bucket is None:
            return [], 0
        dropped = 0
        for mode, clock in clocks.items():
            heap = bucket.expiry[mode]
            while heap and heap[0][0] < clock:
                _, seq = heapq.heappop(heap)
                record = bucket.records.get(seq)
                if record is None:
                    continue
                self._remove_record(key_text, bucket, record)
                dropped += 1
        if not bucket.records:
            return [], dropped
        signature: TupleT[object, ...] = (
            tuple(value_of(attribute) for attribute in bucket.by_value)
            if bucket.by_value
            else ()
        )
        memo = bucket.last_probe
        if (
            memo is not None
            and memo[0] == bucket.version
            and memo[1] == signature
        ):
            return memo[2], dropped
        if not bucket.by_value:
            candidates = list(bucket.records.values())
            bucket.last_probe = (bucket.version, signature, candidates)
            return candidates, dropped
        groups: List[Dict[int, StoredQueryRecord]] = []
        if bucket.wildcard:
            groups.append(bucket.wildcard)
        for by_value, value in zip(bucket.by_value.values(), signature):
            group = by_value.get(value)
            if group:
                groups.append(group)
        if not groups:
            candidates = []
        elif len(groups) == 1:
            candidates = list(groups[0].values())
        else:
            merged: List[TupleT[int, StoredQueryRecord]] = []
            for group in groups:
                merged.extend(group.items())
            merged.sort(key=lambda entry: entry[0])
            candidates = [record for _, record in merged]
        bucket.last_probe = (bucket.version, signature, candidates)
        return candidates, dropped

    def find_share_host(
        self, key_text: str, share_key: Optional[Hashable], query: Query
    ) -> Optional[StoredQueryRecord]:
        """The resident record hosting the state ``(share_key, query)``, if any.

        A cheap part no resident record has — nearly every rewritten query
        under a window — misses without touching ``query``; one resident
        record with it costs one ``==``, more of them one hash and one
        ``==``, however many there are.
        """
        if share_key is None:
            return None
        bucket = self._by_key.get(key_text)
        if bucket is None:
            return None
        hosts = bucket.by_share.get(share_key)
        if hosts is None:
            return None
        if isinstance(hosts, dict):
            try:
                return hosts.get(query)
            except TypeError:  # unhashable constant: never filed in a dict
                return None
        return hosts if hosts.state.query == query else None

    # ------------------------------------------------------------------
    # plain table access
    # ------------------------------------------------------------------
    def get(self, key_text: str) -> Optional[List[StoredQueryRecord]]:
        """The records stored under ``key_text`` (None when there are none)."""
        bucket = self._by_key.get(key_text)
        if bucket is None:
            return None
        return list(bucket.records.values())

    def replace(self, key_text: str, records: List[StoredQueryRecord]) -> None:
        """Swap the record list of ``key_text`` (dropping the key when empty)."""
        self.pop_key(key_text)
        for record in records:
            self.add(key_text, record)

    def pop_key(self, key_text: str) -> List[StoredQueryRecord]:
        """Remove and return every record stored under ``key_text``."""
        bucket = self._by_key.pop(key_text, None)
        if bucket is None:
            return []
        records = list(bucket.records.values())
        self._size -= len(records)
        return records

    def keys(self) -> Iterable[str]:
        """The key texts currently holding records."""
        return self._by_key.keys()

    def items(self) -> Iterable[TupleT[str, List[StoredQueryRecord]]]:
        """Iterate over ``(key text, records)`` pairs."""
        for key_text, bucket in self._by_key.items():
            yield key_text, list(bucket.records.values())

    def __iter__(self) -> Iterable[str]:
        return iter(self._by_key)

    def __len__(self) -> int:
        """Number of stored records across all keys; O(1)."""
        return self._size

    def remove_query(
        self, query_id: str
    ) -> TupleT[List[StoredQueryRecord], int]:
        """Remove or detach every record serving ``query_id``.

        The retraction path of the query lifecycle subsystem.  A record
        whose state serves only ``query_id`` is physically removed; a shared
        record detaches the subscriber (promoting a new primary when
        needed) and stays.  Returns ``(removed records, detach count)``.
        Stale expiry-heap entries for removed records pop harmlessly later —
        the identity check of :meth:`gc_expired` skips records that are no
        longer stored.
        """
        removed: List[StoredQueryRecord] = []
        detached = 0
        for key_text in list(self._by_key):
            bucket = self._by_key[key_text]
            for seq in list(bucket.records):
                record = bucket.records[seq]
                if not record.state.serves(query_id):
                    continue
                if record.state.detach_subscriber(query_id):
                    self._remove_record(key_text, bucket, record)
                    removed.append(record)
                else:
                    detached += 1
        return removed, detached

    def gc_expired(self, clocks: Mapping[str, float]) -> int:
        """Drop records whose window deadline passed; returns the drop count.

        ``clocks`` maps a window mode to its current clock value.  Deadlines
        are fixed at insertion time (window states are immutable), so a
        record is expired exactly when its deadline is below the clock.
        """
        dropped = 0
        for mode, clock in clocks.items():
            heap = self._expiry[mode]
            while heap and heap[0][0] < clock:
                _, seq, key_text, record = heapq.heappop(heap)
                bucket = self._by_key.get(key_text)
                if bucket is None or bucket.records.get(seq) is not record:
                    continue
                self._remove_record(key_text, bucket, record)
                dropped += 1
        return dropped
