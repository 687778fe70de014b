"""Attribute-level tuple table (ALTT) — Section 4.

Without further care RJoin can lose answers when messages are delayed: a
tuple may reach the attribute-level node *before* the input query that it
should trigger.  The paper's fix is local: every node keeps tuples received
at the attribute level in a dedicated table (the ALTT) for ``Δ`` time units,
and whenever an input query arrives the node first searches the ALTT for
matching tuples published at or after the query's insertion time.

``Δ`` may be infinite (tuples are never discarded — also useful to support
one-time queries), or an overestimate of the maximum message transit time,
which is what the eventual-completeness theorem requires.  The engine derives
a default Δ from the messaging service's bounded per-hop delay.

Because :meth:`AttributeLevelTupleTable.expire` runs on *every*
attribute-level tuple arrival, it is a hot path: expiry is driven by a
min-heap over reception times, so a sweep costs O(expired · log n) instead of
re-scanning every retained entry.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple as TupleT

from repro.data.tuples import Tuple


@dataclass
class _AlttEntry:
    tuple: Tuple
    received_at: float


class AttributeLevelTupleTable:
    """Per-node table of recently received attribute-level tuples."""

    def __init__(self, delta: Optional[float] = None) -> None:
        """``delta`` is the retention time Δ; ``None`` means keep forever."""
        self.delta = delta
        self._by_key: Dict[str, List[_AlttEntry]] = {}
        self._size = 0
        # (received_at, tiebreak, key) min-heap; only maintained when entries
        # can actually expire (finite Δ).
        self._expiry_heap: List[TupleT[float, int, str]] = []
        self._tiebreak = itertools.count()
        # Keys whose entries were added with non-monotone reception times.
        # Arrival order is monotone under the engine clock, letting expiry
        # cut a prefix; the rare unsorted key falls back to a full filter.
        self._unsorted_keys: Set[str] = set()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, key_text: str, tup: Tuple, now: float) -> None:
        """Remember that ``tup`` arrived at attribute-level key ``key_text``."""
        entries = self._by_key.setdefault(key_text, [])
        if entries and entries[-1].received_at > now:
            self._unsorted_keys.add(key_text)
        entries.append(_AlttEntry(tuple=tup, received_at=now))
        self._size += 1
        if self.delta is not None:
            heapq.heappush(
                self._expiry_heap, (now, next(self._tiebreak), key_text)
            )

    def expire(self, now: float) -> int:
        """Drop entries older than Δ; returns the number of removed entries."""
        if self.delta is None:
            return 0
        cutoff = now - self.delta
        heap = self._expiry_heap
        affected: Set[str] = set()
        while heap and heap[0][0] < cutoff:
            affected.add(heapq.heappop(heap)[2])
        removed = 0
        # Sorted so key-deletion order (and therefore later key-enumeration
        # order of _by_key) is identical across interpreter runs regardless
        # of string hash randomisation.
        for key in sorted(affected):
            entries = self._by_key.get(key)
            if not entries:
                continue
            if key in self._unsorted_keys:
                kept: List[_AlttEntry] = []
                for entry in entries:
                    if entry.received_at >= cutoff:
                        kept.append(entry)
                    else:
                        removed += 1
                if kept:
                    self._by_key[key] = kept
                else:
                    del self._by_key[key]
                    self._unsorted_keys.discard(key)
                continue
            # Entries arrived in reception order: the expired ones are a
            # prefix, so only removed entries are ever touched.
            index = 0
            length = len(entries)
            while index < length and entries[index].received_at < cutoff:
                index += 1
            if not index:
                continue
            removed += index
            if index == length:
                del self._by_key[key]
            else:
                del entries[:index]
        self._size -= removed
        return removed

    def remove_published_before(self, cutoff: float) -> int:
        """Drop entries whose tuple was *published* strictly before ``cutoff``.

        The query-lifecycle vacuum: once no active query remains, any future
        query's insertion time is at or after the current clock, so retained
        tuples published before it can never satisfy the trigger condition
        ``pubT(t) >= insT(q)`` again.  Filters on publication time (unlike
        :meth:`expire`, which works on reception time); stale expiry-heap
        entries for removed tuples pop harmlessly later.  Returns the number
        of removed entries.
        """
        removed = 0
        for key in list(self._by_key):
            entries = self._by_key[key]
            kept = [
                entry for entry in entries if entry.tuple.pub_time >= cutoff
            ]
            if len(kept) == len(entries):
                continue
            removed += len(entries) - len(kept)
            if kept:
                self._by_key[key] = kept
            else:
                del self._by_key[key]
                self._unsorted_keys.discard(key)
        self._size -= removed
        return removed

    def pop_key(self, key_text: str) -> List[TupleT[Tuple, float]]:
        """Remove every entry under ``key_text``; returns ``(tuple, received_at)`` pairs.

        Used by membership re-homing: the pairs can be replayed through
        :meth:`add` on the new owner, preserving each entry's reception time
        (and therefore its remaining Δ budget).  Stale expiry-heap entries
        for the removed key pop harmlessly later — expiry re-checks the key.
        """
        entries = self._by_key.pop(key_text, [])
        self._unsorted_keys.discard(key_text)
        self._size -= len(entries)
        return [(entry.tuple, entry.received_at) for entry in entries]

    def keys(self) -> List[str]:
        """The attribute-level keys currently holding entries."""
        return list(self._by_key.keys())

    def clear(self) -> None:
        """Remove every entry."""
        self._by_key.clear()
        self._expiry_heap.clear()
        self._unsorted_keys.clear()
        self._size = 0

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def find(
        self,
        key_text: str,
        now: float,
        published_at_or_after: Optional[float] = None,
    ) -> List[Tuple]:
        """Tuples under ``key_text`` that are still retained and recent enough.

        ``published_at_or_after`` filters on the publication time, matching
        the trigger condition ``pubT(t) ≥ insT(q)``.
        """
        entries = self._by_key.get(key_text, [])
        cutoff = None if self.delta is None else now - self.delta
        result: List[Tuple] = []
        for entry in entries:
            if cutoff is not None and entry.received_at < cutoff:
                continue
            if (
                published_at_or_after is not None
                and entry.tuple.pub_time < published_at_or_after
            ):
                continue
            result.append(entry.tuple)
        return result

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size
