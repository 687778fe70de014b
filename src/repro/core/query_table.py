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
    ``text`` is the key text the bucket is filed under and ``key`` the
    :class:`IndexKey` of its first record, which every later record points
    at.  ``by_share`` is the sharing index: the cheap part of a
    record's state (its ``share_key``,
    :func:`~repro.core.rewriting.canonical_state_key`) maps to the one
    resident record that has it or, from the second such record on, to a
    ``{query: record}`` dict — one entry per resident record with a share
    key, freed with it; a state that can have no twin has no key and no
    entry.  ``wildcard`` and ``by_share`` are None until their first entry:
    a bucket of discriminated, unshared records holds neither.
    """

    __slots__ = (
        "text",
        "key",
        "records",
        "wildcard",
        "by_value",
        "by_share",
        "version",
        "last_probe",
    )

    def __init__(self, text: str, key: IndexKey) -> None:
        self.text = text
        self.key = key
        self.records: Dict[int, StoredQueryRecord] = {}
        self.wildcard: Optional[Dict[int, StoredQueryRecord]] = None
        self.by_value: Dict[str, Dict[object, Dict[int, StoredQueryRecord]]] = {}
        self.by_share: Optional[Dict[Hashable, _ShareHosts]] = None
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


#: One window mode's expiry calendar: a min-heap of its distinct deadlines,
#: and per deadline the ``bucket, group, seq, ...`` of the records added with
#: it, ``group`` being the probe group the record was filed in (flat, so an
#: entry costs three list slots and no tuple).
_Calendar = TupleT[List[float], Dict[float, List[object]]]


class QueryTable:
    """Predicate-aware stored-query index with O(1) size and calendar GC.

    Both node-local query tables (input and rewritten) use this structure.
    Under each key text, records are sub-indexed by the discriminating bound
    values their trigger conditions test (see
    :meth:`~repro.core.rewriting.QueryShape.discriminator`), so a tuple
    arrival fetches only the records its values can actually rewrite —
    mirroring the tuple store's prefix index, but over queries.  Each bucket
    also keeps a registry of canonical sharing keys for multi-query state
    sharing.  Window GC runs off one expiry calendar per window mode
    (:meth:`sweep`): every record added with a window deadline has one
    calendar entry, which leaves when the clock passes that deadline, so
    the calendar holds at most the records added within one window of the
    clock.  Records a retraction or a re-homing took out earlier leave
    their entries behind until then; popping skips them.
    """

    __slots__ = ("_by_key", "_size", "_tiebreak", "_calendars")

    def __init__(self) -> None:
        self._by_key: Dict[str, _KeyBucket] = {}
        self._size = 0
        self._tiebreak = itertools.count()
        #: Window mode -> the expiry calendar of the records added with it.
        self._calendars: Dict[str, _Calendar] = {}

    def add(self, key_text: str, record: StoredQueryRecord) -> None:
        """Store ``record`` under ``key_text``, (re)indexing it for probes."""
        bucket = self._by_key.get(key_text)
        if bucket is None:
            bucket = self._by_key[key_text] = _KeyBucket(key_text, record.key)
        else:
            record.key = bucket.key
        seq = next(self._tiebreak)
        record.seq = seq
        bucket.records[seq] = record
        bucket.version += 1
        self._size += 1

        sp = record.discriminator = self._discriminator_of(record)
        if sp is None:
            wildcard = bucket.wildcard
            if wildcard is None:
                wildcard = bucket.wildcard = {}
            wildcard[seq] = record
            group = wildcard
        else:
            groups = bucket.by_value.get(sp.attribute.attribute)
            if groups is None:
                groups = bucket.by_value[sp.attribute.attribute] = {}
            group = groups.get(sp.value)
            if group is None:
                group = groups[sp.value] = {}
            group[seq] = record

        if record.share_key is not None:
            # The first record with a cheap part is filed as it is, without a
            # look at its query; from the second on they are told apart by
            # their queries, in a dict (the first host of a query wins).  A
            # query that cannot be hashed (an unhashable selection constant)
            # leaves the newcomer unshareable: stored and triggered like any
            # other record, only never found as a host.
            by_share = bucket.by_share
            if by_share is None:
                by_share = bucket.by_share = {}
            hosts = by_share.setdefault(record.share_key, record)
            if hosts is not record:
                try:
                    if not isinstance(hosts, dict):
                        hosts = {hosts.state.query: hosts}
                    hosts.setdefault(record.state.query, record)
                    by_share[record.share_key] = hosts
                except TypeError:
                    record.share_key = None

        window = record.state.query.window
        state = record.state.window_state
        if window is not None and state is not None:
            # expired(window, state, clock) <=> clock > deadline.
            deadline = state.min_clock + window.size - 1
            calendar = self._calendars.get(window.mode)
            if calendar is None:
                calendar = self._calendars[window.mode] = ([], {})
            entries = calendar[1].get(deadline)
            if entries is None:
                calendar[1][deadline] = [bucket, group, seq]
                heapq.heappush(calendar[0], deadline)
            else:
                entries += (bucket, group, seq)

    def sweep(self, clocks: Mapping[str, float]) -> None:
        """Drop every record whose window deadline the clock has passed.

        ``clocks`` maps a window mode to its current clock value (a mode it
        does not name is left alone).  Deadlines are fixed at insertion
        time (window states are immutable), so a record is expired exactly
        when its deadline is below the clock; it can never be satisfied
        again (Section 5).  Pops each due deadline off its mode's calendar
        and removes those of its records still stored under the bucket and
        sequence number they were added with; a mode with nothing due costs
        one comparison.
        """
        for mode, (deadlines, due) in self._calendars.items():
            clock = clocks.get(mode)
            if clock is None:
                continue
            while deadlines and deadlines[0] < clock:
                entries = iter(due.pop(heapq.heappop(deadlines)))
                for bucket, group, seq in zip(entries, entries, entries):
                    record = bucket.records.pop(seq, None)
                    if record is not None:
                        self._unlink(bucket, record, group)

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

    @staticmethod
    def _group_of(
        bucket: _KeyBucket, record: StoredQueryRecord
    ) -> Dict[int, StoredQueryRecord]:
        """The probe group ``record`` is filed in (``wildcard`` or a value's)."""
        sp = record.discriminator
        if sp is None:
            return bucket.wildcard
        return bucket.by_value[sp.attribute.attribute][sp.value]

    def _unlink(
        self,
        bucket: _KeyBucket,
        record: StoredQueryRecord,
        group: Dict[int, StoredQueryRecord],
    ) -> None:
        """Unlink ``record``, already out of ``bucket.records``, from the bucket.

        ``group`` is the probe group it is filed in; the calendar stays lazy.
        The probe memo goes too: it may list ``record``, and would keep it
        alive until the bucket's next probe.
        """
        del group[record.seq]
        bucket.version += 1
        bucket.last_probe = None
        self._size -= 1
        sp = record.discriminator
        if sp is not None and not group:
            groups = bucket.by_value[sp.attribute.attribute]
            del groups[sp.value]
            if not groups:
                del bucket.by_value[sp.attribute.attribute]
        share_key = record.share_key
        if share_key is not None:
            by_share = bucket.by_share
            hosts = by_share.get(share_key)
            if hosts is record:
                del by_share[share_key]
            elif isinstance(hosts, dict) and hosts.get(record.state.query) is record:
                del hosts[record.state.query]
                if not hosts:
                    del by_share[share_key]
        if not bucket.records:
            del self._by_key[bucket.text]

    # ------------------------------------------------------------------
    # probing (the tuple-arrival fast path)
    # ------------------------------------------------------------------
    def probe(
        self, key_text: str, value_of: Callable[[str], object]
    ) -> List[StoredQueryRecord]:
        """Candidate records for a tuple arrival.

        Every wildcard record plus, per discriminating attribute, the records
        filed under the arriving tuple's value for it (``value_of``).
        Candidates come back in insertion order, preserving the deterministic
        trigger order of the full-scan implementation.  Records whose window
        closed left at the last :meth:`sweep`; one that closed since is
        turned away by the trigger path's own window check.
        """
        bucket = self._by_key.get(key_text)
        if bucket is None:
            return []
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
            return memo[2]
        if not bucket.by_value:
            candidates = list(bucket.records.values())
            bucket.last_probe = (bucket.version, signature, candidates)
            return candidates
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
        return candidates

    def find_share_host(
        self, key_text: str, share_key: Hashable, query: Query
    ) -> Optional[StoredQueryRecord]:
        """The resident record hosting the state ``(share_key, query)``, if any.

        Only a state with a share key has a host to look for: the node
        calls this for those alone, so a state that can have no twin costs
        no lookup.  A cheap part no resident record has misses without
        touching ``query``; one resident record with it costs one ``==``,
        more of them one hash and one ``==``, however many there are.
        """
        bucket = self._by_key.get(key_text)
        if bucket is None or bucket.by_share is None:
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

    def pop_key(self, key_text: str) -> List[StoredQueryRecord]:
        """Remove and return every record stored under ``key_text``.

        The bucket is emptied as it leaves, so its calendar entries find
        none of its records when popped.
        """
        bucket = self._by_key.pop(key_text, None)
        if bucket is None:
            return []
        records = list(bucket.records.values())
        bucket.records.clear()
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
        The calendar entries of removed records pop harmlessly at their
        deadline (no record is stored under their sequence number).
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
                    del bucket.records[seq]
                    self._unlink(bucket, record, self._group_of(bucket, record))
                    removed.append(record)
                else:
                    detached += 1
        return removed, detached
