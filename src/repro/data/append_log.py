"""Append-only log tuple store (the ``append-log`` backend).

A cheap middle point between the fully indexed in-memory ``memory`` backend
and the table-backed ``sqlite`` backend: records are only ever *appended* to
a log (the write path is an O(1) append plus an index insert), deletions are
tombstones, and the log is compacted when garbage collection has killed
enough of it.  This mirrors how log-structured stores behave under the
window-GC pressure the ``store-backends`` scenario applies: steady writes,
bursty deletions, periodic compaction.

Structures:

* ``_log`` — the append-only list of slots (record + alive flag),
* ``_by_key`` — key -> alive log positions, kept in publication order,
* ``_keys_by_prefix`` — the same prefix index the memory backend uses, so
  attribute-level matches touch only the keys of one relation-attribute
  pair,
* ``_prefix_cache`` — memoised canonical-bucket match results (the
  deduplicated merge across the bucket's per-key position lists), folded
  forward on writes and dropped per bucket on deletes, so steady-state
  probing costs a dict hit instead of a heap merge,
* two lazy min-heaps over ``(pub_time, position)`` / ``(sequence,
  position)`` driving the window expiries in O(expired · log n),
* tombstone writes are *batched*: one expiry sweep collects every doomed
  position first and then rebuilds each touched key's position list once
  (:meth:`AppendLogTupleStore._kill_batch`), instead of an O(k) list
  ``remove`` per record,
* compaction: when at least ``compact_min_dead`` slots are dead *and* the
  dead fraction reaches ``compact_dead_fraction`` of the log, the log is
  rewritten in place (positions are remapped, heaps rebuilt) —
  :attr:`AppendLogTupleStore.compactions` counts the rewrites for the
  benchmark report.  Both thresholds are constructor arguments so the
  benchmark can sweep them; an engine's stores use the defaults.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Set, Tuple as TupleT

from repro.data.backends import (
    StoreBackend,
    StoredTuple,
    bucket_of,
    merge_records,
    record_order,
)
from repro.data.tuples import Tuple
from repro.errors import ConfigurationError

_tuple_order = (lambda t: (t.pub_time, t.sequence))


@dataclass
class _Slot:
    """One log entry: the stored record plus its tombstone flag."""

    record: StoredTuple
    alive: bool = True


class AppendLogTupleStore(StoreBackend):
    """Key-addressed tuple storage over an append-only record log."""

    name = "append-log"

    #: Default floor below which compaction never fires (small stores churn
    #: too fast for a rewrite to pay off).
    COMPACT_MIN_DEAD = 64

    #: Default dead fraction of the log that triggers a rewrite.
    COMPACT_DEAD_FRACTION = 0.5

    def __init__(
        self,
        compact_min_dead: int = COMPACT_MIN_DEAD,
        compact_dead_fraction: float = COMPACT_DEAD_FRACTION,
    ) -> None:
        if compact_min_dead < 1:
            raise ConfigurationError("compact_min_dead must be at least one")
        if not 0.0 < compact_dead_fraction <= 1.0:
            raise ConfigurationError("compact_dead_fraction must lie in (0, 1]")
        self.compact_min_dead = compact_min_dead
        self.compact_dead_fraction = compact_dead_fraction
        self._log: List[_Slot] = []
        self._by_key: Dict[str, List[int]] = {}
        self._keys_by_prefix: Dict[str, Set[str]] = {}
        self._unprefixed_keys: Set[str] = set()
        self._identity_counts: Dict[TupleT[str, int], int] = {}
        self._size = 0
        self._stored_total = 0
        self._dead = 0
        #: Number of log rewrites performed so far (benchmark visibility).
        self.compactions = 0
        # Memoised canonical-bucket results plus the identity set backing
        # each list.  Logical content is untouched by compaction, so the
        # cache survives it; deletes drop the affected buckets.
        self._prefix_cache: Dict[str, List[Tuple]] = {}
        self._prefix_seen: Dict[str, Set[TupleT[str, int]]] = {}
        # Lazy expiry heaps over (clock value, log position); positions are
        # unique so no tiebreak is needed.  Rebuilt on compaction.
        self._time_heap: List[TupleT[float, int]] = []
        self._seq_heap: List[TupleT[int, int]] = []
        self._track_time = False
        self._track_seq = False

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, key: str, tup: Tuple, now: float) -> StoredTuple:
        """Append ``tup`` to the log and index it under ``key``."""
        record = StoredTuple(tuple=tup, key=key, stored_at=now)
        position = len(self._log)
        self._log.append(_Slot(record=record))
        bucket = bucket_of(key)
        positions = self._by_key.get(key)
        if positions is None:
            self._by_key[key] = [position]
            if bucket is None:
                self._unprefixed_keys.add(key)
            else:
                self._keys_by_prefix.setdefault(bucket, set()).add(key)
        elif record_order(record) >= record_order(self._log[positions[-1]].record):
            positions.append(position)
        else:
            insort(
                positions,
                position,
                key=lambda p: record_order(self._log[p].record),
            )
        self._size += 1
        self._stored_total += 1
        identity = tup.identity
        self._identity_counts[identity] = self._identity_counts.get(identity, 0) + 1
        if bucket is not None:
            cached = self._prefix_cache.get(bucket)
            if cached is not None:
                self._cache_admit(bucket, cached, tup)
        if self._track_time:
            heapq.heappush(self._time_heap, (tup.pub_time, position))
        if self._track_seq:
            heapq.heappush(self._seq_heap, (tup.sequence, position))
        return record

    def _cache_admit(self, bucket: str, cached: List[Tuple], tup: Tuple) -> None:
        """Fold a fresh write into an already-memoised bucket result."""
        seen = self._prefix_seen[bucket]
        identity = tup.identity
        if identity in seen:
            return
        seen.add(identity)
        if not cached or _tuple_order(cached[-1]) <= _tuple_order(tup):
            cached.append(tup)
        else:
            insort(cached, tup, key=_tuple_order)

    def _drop_bucket_of(self, key: str) -> None:
        """Invalidate the memoised bucket result covering ``key``."""
        if not self._prefix_cache:
            return
        bucket = bucket_of(key)
        if bucket is not None:
            self._prefix_cache.pop(bucket, None)
            self._prefix_seen.pop(bucket, None)

    def _drop_key(self, key: str) -> None:
        """Remove an emptied key from the dictionary and the prefix index."""
        del self._by_key[key]
        bucket = bucket_of(key)
        if bucket is None:
            self._unprefixed_keys.discard(key)
        else:
            keys = self._keys_by_prefix.get(bucket)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._keys_by_prefix[bucket]

    def _kill_batch(self, positions: Iterable[int], unindex: bool = True) -> int:
        """Tombstone a whole batch of alive slots, one index pass per key.

        The doomed positions are grouped per key first, so each touched
        key's (publication-ordered) position list is fixed up once for the
        whole batch instead of per tombstone.
        """
        doomed_by_key: Dict[str, List[int]] = {}
        killed = 0
        for position in positions:
            slot = self._log[position]
            slot.alive = False
            killed += 1
            identity = slot.record.tuple.identity
            count = self._identity_counts[identity] - 1
            if count:
                self._identity_counts[identity] = count
            else:
                del self._identity_counts[identity]
            doomed_by_key.setdefault(slot.record.key, []).append(position)
        if not killed:
            return 0
        self._dead += killed
        self._size -= killed
        for key, dead_positions in doomed_by_key.items():
            self._drop_bucket_of(key)
            if not unindex:
                continue
            alive_positions = self._by_key[key]
            if len(dead_positions) == len(alive_positions):
                self._drop_key(key)
            elif len(dead_positions) == 1:
                alive_positions.remove(dead_positions[0])
            else:
                dead = set(dead_positions)
                self._by_key[key] = [
                    p for p in alive_positions if p not in dead
                ]
        if unindex:
            # With unindex=False the caller still has dead positions in
            # _by_key (remove_key drops the whole key afterwards), and
            # compaction must not remap them — the caller compacts.
            self._maybe_compact()
        return killed

    def _expire(self, heap: List[TupleT], cutoff: float) -> int:
        """Tombstone every alive position the heap reports below ``cutoff``."""
        doomed: List[int] = []
        while heap and heap[0][0] < cutoff:
            _, position = heapq.heappop(heap)
            if self._log[position].alive:
                doomed.append(position)
        return self._kill_batch(doomed)

    def remove_older_than(self, key: str, cutoff: float) -> int:
        """Drop tuples under ``key`` stored strictly before ``cutoff``."""
        positions = self._by_key.get(key)
        if not positions:
            return 0
        expired = [
            p for p in positions if self._log[p].record.stored_at < cutoff
        ]
        return self._kill_batch(expired)

    def remove_published_before(self, cutoff: float) -> int:
        """Drop every tuple published strictly before ``cutoff``."""
        self._ensure_time_heap()
        return self._expire(self._time_heap, cutoff)

    def remove_sequenced_before(self, cutoff: float) -> int:
        """Drop every tuple whose sequence number is strictly below ``cutoff``."""
        self._ensure_seq_heap()
        return self._expire(self._seq_heap, cutoff)

    def remove_key(self, key: str) -> List[StoredTuple]:
        """Remove and return every record stored under ``key`` (re-homing)."""
        positions = self._by_key.get(key)
        if not positions:
            return []
        records = [self._log[p].record for p in positions]
        self._kill_batch(list(positions), unindex=False)
        self._drop_key(key)
        self._maybe_compact()
        return records

    def clear(self) -> None:
        """Remove every stored tuple (does not reset cumulative counters)."""
        self._log.clear()
        self._by_key.clear()
        self._keys_by_prefix.clear()
        self._unprefixed_keys.clear()
        self._identity_counts.clear()
        self._prefix_cache.clear()
        self._prefix_seen.clear()
        self._time_heap.clear()
        self._seq_heap.clear()
        self._size = 0
        self._dead = 0

    def _ensure_time_heap(self) -> None:
        if self._track_time:
            return
        self._track_time = True
        self._time_heap = [
            (slot.record.tuple.pub_time, position)
            for position, slot in enumerate(self._log)
            if slot.alive
        ]
        heapq.heapify(self._time_heap)

    def _ensure_seq_heap(self) -> None:
        if self._track_seq:
            return
        self._track_seq = True
        self._seq_heap = [
            (slot.record.tuple.sequence, position)
            for position, slot in enumerate(self._log)
            if slot.alive
        ]
        heapq.heapify(self._seq_heap)

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def _maybe_compact(self) -> None:
        if (
            self._dead >= self.compact_min_dead
            and self._dead >= self.compact_dead_fraction * len(self._log)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rewrite the log without tombstones, remapping every position."""
        mapping: Dict[int, int] = {}
        compacted: List[_Slot] = []
        for position, slot in enumerate(self._log):
            if slot.alive:
                mapping[position] = len(compacted)
                compacted.append(slot)
        self._log = compacted
        self._by_key = {
            key: [mapping[p] for p in positions]
            for key, positions in self._by_key.items()
        }
        if self._track_time:
            self._time_heap = [
                (slot.record.tuple.pub_time, position)
                for position, slot in enumerate(self._log)
            ]
            heapq.heapify(self._time_heap)
        if self._track_seq:
            self._seq_heap = [
                (slot.record.tuple.sequence, position)
                for position, slot in enumerate(self._log)
            ]
            heapq.heapify(self._seq_heap)
        self._dead = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def tuples_for_key(self, key: str) -> List[Tuple]:
        """The tuples stored under exactly ``key``, in publication order."""
        return [
            self._log[p].record.tuple for p in self._by_key.get(key, [])
        ]

    def records_for_key(self, key: str) -> List[StoredTuple]:
        """The stored records under exactly ``key``, in publication order."""
        return [self._log[p].record for p in self._by_key.get(key, [])]

    def tuples_for_prefix(self, prefix: str) -> List[Tuple]:
        """Tuples under any key starting with ``prefix`` (deduplicated, ordered).

        Canonical attribute-level prefixes hit the bucket memo, or one
        sorted heap merge across the bucket's per-key position lists.
        """
        bucket = bucket_of(prefix)
        if bucket is not None and len(bucket) == len(prefix):
            cached = self._prefix_cache.get(prefix)
            if cached is not None:
                return list(cached)
            keys: Iterable[str] = self._keys_by_prefix.get(prefix) or ()
            lists = [self.records_for_key(key) for key in keys]
            result = merge_records(lists) if lists else []
            self._prefix_cache[prefix] = result
            self._prefix_seen[prefix] = {tup.identity for tup in result}
            return list(result)
        keys = [key for key in self._by_key if key.startswith(prefix)]
        lists = [self.records_for_key(key) for key in keys]
        if not lists:
            return []
        return merge_records(lists)

    def has_key(self, key: str) -> bool:
        """Return whether any tuple is stored under ``key``."""
        return key in self._by_key

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
        for positions in self._by_key.values():
            for position in positions:
                yield self._log[position].record

    def distinct_tuples(self) -> int:
        """Number of distinct publications currently stored at this node; O(1)."""
        return len(self._identity_counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AppendLogTupleStore(size={self._size}, log={len(self._log)}, "
            f"dead={self._dead}, compactions={self.compactions})"
        )
