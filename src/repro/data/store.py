"""Per-node local tuple storage (the default ``memory`` backend).

Every RJoin node stores tuples it receives *at the value level* so that
rewritten queries arriving later can still be matched against them
(Procedure 2 and 3 of the paper).  The attribute-level tuple table (ALTT) of
Section 4 is a class of its own, keyed by reception time with an expiry
(see :mod:`repro.core.altt`).

The store is a mapping ``indexing key -> list of stored tuples``.  It also
maintains aggregate counters that feed the storage-load metric of the
experimental section: the *storage load* of a node is the number of rewritten
queries plus the number of tuples that the node has to store locally.

:class:`TupleStore` is one of several implementations of the
:class:`~repro.data.backends.StoreBackend` contract (see
:func:`repro.data.backends.make_store` for the registry).  Three auxiliary
structures keep the hot paths off O(total-keys) scans:

* a *prefix index* (``relation + attribute -> set of value keys``) so that
  attribute-level lookups (:meth:`TupleStore.tuples_for_prefix`) only touch
  the keys of the requested relation-attribute pair,
* per-key record lists kept ordered by ``(pub_time, sequence)`` so callers
  consume tuples in publication order without re-sorting,
* min-heaps over publication time and sequence number so window garbage
  collection (:meth:`TupleStore.remove_expired`) costs O(expired · log n)
  instead of a full re-scan of every stored record.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import insort
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple as TupleT

from repro.data.backends import (
    SEPARATOR as _SEPARATOR,  # noqa: F401  (re-exported for compatibility)
    StoreBackend,
    StoredTuple,
    bucket_of as _bucket_of,
    merge_records,
    record_order as _record_order,
)
from repro.data.tuples import Tuple

__all__ = ["StoredTuple", "TupleStore"]


class TupleStore(StoreBackend):
    """Key-addressed in-memory storage for published tuples.

    The store intentionally keeps one entry per ``(key, tuple identity)``
    pair: the same publication indexed under two different keys at the same
    node occupies two slots (it costs storage twice), which matches how the
    paper counts storage load, while lookups that span several keys can
    deduplicate through :meth:`tuples_for_prefix`.
    """

    name = "memory"

    def __init__(self) -> None:
        self._by_key: Dict[str, List[StoredTuple]] = {}
        self._keys_by_prefix: Dict[str, Set[str]] = {}
        self._unprefixed_keys: Set[str] = set()
        # Memoised tuples_for_prefix results per canonical bucket, dropped
        # whenever any key of the bucket is touched.
        self._prefix_cache: Dict[str, List[Tuple]] = {}
        self._stored_total = 0  # cumulative number of store operations
        self._size = 0
        self._identity_counts: Dict[TupleT[str, int], int] = {}
        # Lazy expiry queues: (clock value, tiebreak, key).  Each heap is
        # first materialised when the matching removal method is called, and
        # maintained incrementally from then on.  Entries are not removed
        # when records leave through other paths; stale entries pop
        # harmlessly because removal re-checks the affected key.
        self._time_heap: List[TupleT[float, int, str]] = []
        self._seq_heap: List[TupleT[int, int, str]] = []
        self._track_time = False
        self._track_seq = False
        self._tiebreak = itertools.count()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, key: str, tup: Tuple, now: float) -> StoredTuple:
        """Store ``tup`` under ``key`` and return the stored record."""
        record = StoredTuple(tuple=tup, key=key, stored_at=now)
        bucket = _bucket_of(key)
        if bucket is not None and self._prefix_cache:
            self._prefix_cache.pop(bucket, None)
        records = self._by_key.get(key)
        if records is None:
            self._by_key[key] = [record]
            if bucket is None:
                self._unprefixed_keys.add(key)
            else:
                self._keys_by_prefix.setdefault(bucket, set()).add(key)
        elif _record_order(record) >= _record_order(records[-1]):
            records.append(record)
        else:
            insort(records, record, key=_record_order)
        self._stored_total += 1
        self._size += 1
        identity = tup.identity
        self._identity_counts[identity] = self._identity_counts.get(identity, 0) + 1
        if self._track_time:
            heapq.heappush(
                self._time_heap, (tup.pub_time, next(self._tiebreak), key)
            )
        if self._track_seq:
            heapq.heappush(
                self._seq_heap, (tup.sequence, next(self._tiebreak), key)
            )
        return record

    def _forget(self, record: StoredTuple) -> None:
        """Release the aggregate counters held by ``record``."""
        self._size -= 1
        identity = record.tuple.identity
        count = self._identity_counts[identity] - 1
        if count:
            self._identity_counts[identity] = count
        else:
            del self._identity_counts[identity]

    def _invalidate_prefix(self, key: str) -> None:
        """Drop the memoised prefix lookup covering ``key``."""
        if not self._prefix_cache:
            return
        bucket = _bucket_of(key)
        if bucket is not None:
            self._prefix_cache.pop(bucket, None)

    def _drop_key(self, key: str) -> None:
        """Remove an emptied key from the dictionary and the prefix index."""
        del self._by_key[key]
        bucket = _bucket_of(key)
        if bucket is None:
            self._unprefixed_keys.discard(key)
        else:
            keys = self._keys_by_prefix.get(bucket)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._keys_by_prefix[bucket]

    def remove_older_than(self, key: str, cutoff: float) -> int:
        """Drop tuples under ``key`` stored strictly before ``cutoff``.

        Returns the number of removed entries.  Used by window-based state
        reduction and by tests; expiry sweeps over the whole store should use
        :meth:`remove_expired`.
        """
        records = self._by_key.get(key)
        if not records:
            return 0
        kept = [r for r in records if r.stored_at >= cutoff]
        removed = len(records) - len(kept)
        if not removed:
            return 0
        for record in records:
            if record.stored_at < cutoff:
                self._forget(record)
        self._invalidate_prefix(key)
        if kept:
            self._by_key[key] = kept
        else:
            self._drop_key(key)
        return removed

    def _expired_keys(self, heap: List, cutoff: float) -> Set[str]:
        """Pop heap entries below ``cutoff``; return the touched keys."""
        affected: Set[str] = set()
        while heap and heap[0][0] < cutoff:
            affected.add(heapq.heappop(heap)[2])
        return affected

    def _ensure_time_heap(self) -> None:
        """Materialise the publication-time expiry heap on first use."""
        if self._track_time:
            return
        self._track_time = True
        tiebreak = self._tiebreak
        self._time_heap = [
            (record.tuple.pub_time, next(tiebreak), record.key) for record in self
        ]
        heapq.heapify(self._time_heap)

    def _ensure_seq_heap(self) -> None:
        """Materialise the sequence-number expiry heap on first use."""
        if self._track_seq:
            return
        self._track_seq = True
        tiebreak = self._tiebreak
        self._seq_heap = [
            (record.tuple.sequence, next(tiebreak), record.key) for record in self
        ]
        heapq.heapify(self._seq_heap)

    def remove_expired(
        self,
        published_before: Optional[float] = None,
        sequenced_before: Optional[int] = None,
    ) -> int:
        """Ranged GC: drop records behind either cutoff, one heap per order."""
        removed = 0
        if published_before is not None:
            removed += self._remove_published_before(published_before)
        if sequenced_before is not None:
            removed += self._remove_sequenced_before(sequenced_before)
        return removed

    def _remove_published_before(self, cutoff: float) -> int:
        """Drop every tuple whose publication time is strictly before ``cutoff``.

        Runs in O(expired · log n): the expiry heap names the keys holding
        expired records, and publication order within each key list makes the
        expired records a prefix, so the scan only ever touches records that
        are actually removed.
        """
        self._ensure_time_heap()
        removed = 0
        for key in self._expired_keys(self._time_heap, cutoff):
            records = self._by_key.get(key)
            if not records:
                continue
            index = 0
            length = len(records)
            while index < length and records[index].tuple.pub_time < cutoff:
                self._forget(records[index])
                index += 1
            if index == 0:
                continue
            removed += index
            self._invalidate_prefix(key)
            if index == length:
                self._drop_key(key)
            else:
                del records[:index]
        return removed

    def _remove_sequenced_before(self, cutoff: int) -> int:
        """Drop every tuple whose sequence number is strictly below ``cutoff``.

        The tuple-based window analogue of :meth:`_remove_published_before`.
        Sequence numbers need not follow publication order within a key, so
        affected keys are re-filtered rather than prefix-cut.
        """
        self._ensure_seq_heap()
        removed = 0
        for key in self._expired_keys(self._seq_heap, cutoff):
            records = self._by_key.get(key)
            if not records:
                continue
            kept = [r for r in records if r.tuple.sequence >= cutoff]
            dropped = len(records) - len(kept)
            if not dropped:
                continue
            for record in records:
                if record.tuple.sequence < cutoff:
                    self._forget(record)
            removed += dropped
            self._invalidate_prefix(key)
            if kept:
                self._by_key[key] = kept
            else:
                self._drop_key(key)
        return removed

    def remove_key(self, key: str) -> List[StoredTuple]:
        """Remove and return every record stored under ``key`` (id movement)."""
        records = self._by_key.get(key)
        if not records:
            return []
        for record in records:
            self._forget(record)
        self._invalidate_prefix(key)
        self._drop_key(key)
        return records

    def clear(self) -> None:
        """Remove every stored tuple (does not reset cumulative counters)."""
        self._by_key.clear()
        self._keys_by_prefix.clear()
        self._unprefixed_keys.clear()
        self._prefix_cache.clear()
        self._identity_counts.clear()
        self._time_heap.clear()
        self._seq_heap.clear()
        self._size = 0

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def tuples_for_key(self, key: str) -> List[Tuple]:
        """The tuples stored under exactly ``key``, in publication order."""
        return [r.tuple for r in self._by_key.get(key, [])]

    def records_for_key(self, key: str) -> List[StoredTuple]:
        """The stored records under exactly ``key``, in publication order."""
        return list(self._by_key.get(key, []))

    def tuples_for_prefix(self, prefix: str) -> List[Tuple]:
        """Return tuples stored under any key starting with ``prefix``.

        Used when a rewritten query indexed at the *attribute level* needs to
        scan every locally stored tuple of a relation-attribute pair
        regardless of the value component of the key.  Results are
        deduplicated by tuple identity and sorted by ``(pub_time, sequence)``.
        Canonical attribute-level prefixes hit the prefix index (and a result
        memo invalidated on writes) instead of scanning every stored key.
        """
        bucket = _bucket_of(prefix)
        if bucket is not None and len(bucket) == len(prefix):
            # Canonical two-field prefix (``relation SEP attribute SEP``):
            # every matching key lives exactly in this bucket.
            cached = self._prefix_cache.get(prefix)
            if cached is not None:
                return list(cached)
            keys = self._keys_by_prefix.get(prefix)
            if not keys:
                return []
            result = merge_records([self._by_key[key] for key in keys])
            self._prefix_cache[prefix] = result
            return list(result)
        # Arbitrary prefix: fall back to scanning every key.
        lists = [
            records
            for key, records in self._by_key.items()
            if key.startswith(prefix)
        ]
        if not lists:
            return []
        return merge_records(lists)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of currently stored entries (across all keys); O(1)."""
        return self._size

    @property
    def cumulative_stored(self) -> int:
        """Total number of store operations performed over the node's lifetime."""
        return self._stored_total

    def keys(self) -> Iterable[str]:
        """Iterate over the indexing keys that currently hold tuples."""
        return self._by_key.keys()

    def __iter__(self) -> Iterator[StoredTuple]:
        for records in self._by_key.values():
            yield from records

    def distinct_tuples(self) -> int:
        """Number of distinct publications currently stored at this node; O(1)."""
        return len(self._identity_counts)
