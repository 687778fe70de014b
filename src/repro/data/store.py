"""Per-node local tuple storage (the default ``memory`` backend).

Every RJoin node stores tuples it receives *at the value level* so that
rewritten queries arriving later can still be matched against them
(Procedure 2 and 3 of the paper).  The attribute-level tuple table (ALTT) of
Section 4 is this store too, with a record's ``stored_at`` as its reception
time and a Δ lookup and expiry on top (see :mod:`repro.core.altt`).

The store is a mapping ``indexing key -> list of stored tuples``.  Its size
(``len(store)``) is the tuple half of a node's current storage load in the
experimental section: the *storage load* of a node is the number of rewritten
queries plus the number of tuples that the node has to store locally.

:class:`TupleStore` is one of several implementations of the
:class:`~repro.data.backends.StoreBackend` contract (see
:func:`repro.data.backends.make_store` for the registry).  Three auxiliary
structures keep the hot paths off O(total-keys) scans:

* a *prefix index* (``relation + attribute -> set of value keys``) so that
  attribute-level lookups (:meth:`TupleStore.tuples_for_prefix`) only touch
  the keys of the requested relation-attribute pair, with each bucket's
  result memoised until a key of the bucket changes,
* per-key record lists kept in publication order ``(pub_time, sequence)``
  so callers consume tuples in that order without re-sorting,
* one min-heap over publication order, so window garbage collection
  (:meth:`TupleStore.remove_expired`) costs O(expired · log n) instead of a
  full re-scan of every stored record.  Sequence order agrees with
  publication order (the contract's premise), so both cutoffs take a head
  off each key's list.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple as TupleT

from repro.data.backends import (
    StoreBackend,
    StoredTuple,
    bucket_of as _bucket_of,
    merge_records,
    record_order as _record_order,
)
from repro.data.tuples import Tuple

__all__ = ["TupleStore"]


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
        # whenever any key of the bucket is touched: at most one per
        # indexed bucket.
        self._prefix_cache: Dict[str, List[Tuple]] = {}
        self._size = 0
        # Lazy expiry queue of (pub_time, sequence, key), first materialised
        # when remove_expired is called and fed by every add from then on.
        # Entries stay when records leave through other paths; a stale
        # entry pops harmlessly, as the cut re-checks its key's head.
        self._expiry_heap: List[TupleT[float, int, str]] = []
        self._tracking = False

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
        self._size += 1
        if self._tracking:
            heapq.heappush(self._expiry_heap, (tup.pub_time, tup.sequence, key))
        return record

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

        Returns the number of removed entries.  Nothing under ``src/`` calls
        it: it is kept because the end-to-end ledger's tracing wraps it by
        name (ROADMAP item 12(a)).
        """
        records = self._by_key.get(key)
        if not records:
            return 0
        kept = [r for r in records if r.stored_at >= cutoff]
        removed = len(records) - len(kept)
        if not removed:
            return 0
        self._size -= removed
        self._invalidate_prefix(key)
        if kept:
            self._by_key[key] = kept
        else:
            self._drop_key(key)
        return removed

    def _ensure_expiry_heap(self) -> None:
        """Materialise the expiry heap on first use."""
        if self._tracking:
            return
        self._tracking = True
        self._expiry_heap = [
            (record.tuple.pub_time, record.tuple.sequence, record.key)
            for record in self
        ]
        heapq.heapify(self._expiry_heap)

    def remove_expired(
        self,
        published_before: Optional[float] = None,
        sequenced_before: Optional[int] = None,
    ) -> int:
        """Ranged GC: drop records behind either cutoff, a head of each key.

        Runs in O(expired · log n): the heap names the keys holding expired
        records, and since both cutoffs are heads of publication order, the
        cut only ever touches records that are actually removed.
        """
        if published_before is None and sequenced_before is None:
            return 0
        self._ensure_expiry_heap()
        before = float("-inf") if published_before is None else published_before
        below = float("-inf") if sequenced_before is None else sequenced_before
        heap = self._expiry_heap
        removed = 0
        while heap and (heap[0][0] < before or heap[0][1] < below):
            key = heapq.heappop(heap)[2]
            records = self._by_key.get(key)
            if not records:
                continue
            index = 0
            length = len(records)
            while index < length:
                tup = records[index].tuple
                if tup.pub_time >= before and tup.sequence >= below:
                    break
                index += 1
            if index == 0:
                continue
            self._size -= index
            removed += index
            self._invalidate_prefix(key)
            if index == length:
                self._drop_key(key)
            else:
                del records[:index]
        return removed

    def remove_key(self, key: str) -> List[StoredTuple]:
        """Remove and return every record stored under ``key`` (id movement)."""
        records = self._by_key.get(key)
        if not records:
            return []
        self._size -= len(records)
        self._invalidate_prefix(key)
        self._drop_key(key)
        return records

    def clear(self) -> None:
        """Remove every stored tuple."""
        self._by_key.clear()
        self._keys_by_prefix.clear()
        self._unprefixed_keys.clear()
        self._prefix_cache.clear()
        self._expiry_heap.clear()
        self._size = 0

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def tuples_for_key(self, key: str) -> List[Tuple]:
        """The tuples stored under exactly ``key``, in publication order."""
        return [r.tuple for r in self._by_key.get(key, [])]

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
        return self._scan_prefix(prefix)

    def _scan_prefix(self, prefix: str) -> List[Tuple]:
        """:meth:`tuples_for_prefix` by scanning every key (arbitrary prefixes)."""
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

    def keys(self) -> Iterable[str]:
        """Iterate over the indexing keys that currently hold tuples."""
        return self._by_key.keys()

    def __iter__(self) -> Iterator[StoredTuple]:
        for records in self._by_key.values():
            yield from records
