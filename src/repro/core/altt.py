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

The table is a memory :class:`~repro.data.store.TupleStore` whose records'
``stored_at`` is their reception time: :meth:`find` judges Δ by it, and
expiry reuses the store's expiry heap.  Lookups are by exact key only, so
the table keeps none of the store's prefix index.  A tuple reaches
its attribute-level node at most ``max_transit`` after it was published, so
one published before ``now - Δ - max_transit`` was received before
``now - Δ`` and no :meth:`find` can return it again.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import List, Optional

from repro.data.backends import StoredTuple, record_order
from repro.data.store import TupleStore
from repro.data.tuples import Tuple


class AttributeLevelTupleTable(TupleStore):
    """Per-node table of recently received attribute-level tuples."""

    def __init__(self, delta: Optional[float] = None, max_transit: float = 0.0) -> None:
        """``delta`` is the retention time Δ (``None``: keep forever);
        ``max_transit`` bounds how long a tuple takes to arrive."""
        super().__init__()
        self.delta = delta
        self.max_transit = max_transit
        if delta is not None:
            self._ensure_expiry_heap()  # fed by every add, as expire runs on each

    def add(self, key: str, tup: Tuple, now: float) -> StoredTuple:
        """Store ``tup`` under ``key``, received at ``now``: the store's
        ``add`` without its prefix index."""
        record = StoredTuple(tuple=tup, key=key, stored_at=now)
        records = self._by_key.get(key)
        if records is None:
            self._by_key[key] = [record]
        elif record_order(record) >= record_order(records[-1]):
            records.append(record)
        else:
            insort(records, record, key=record_order)
        self._size += 1
        if self._tracking:
            heapq.heappush(self._expiry_heap, (tup.pub_time, tup.sequence, key))
        return record

    def _drop_key(self, key: str) -> None:
        del self._by_key[key]

    #: With no prefix index, a prefix lookup scans every key.
    tuples_for_prefix = TupleStore._scan_prefix

    def expire(self, now: float) -> int:
        """Drop entries no :meth:`find` at ``now`` or later can return."""
        if self.delta is None:
            return 0
        return self.remove_expired(published_before=now - self.delta - self.max_transit)

    def find(
        self,
        key_text: str,
        now: float,
        published_at_or_after: Optional[float] = None,
    ) -> List[Tuple]:
        """Tuples under ``key_text`` received within Δ of ``now``, in
        publication order; ``published_at_or_after`` is the trigger condition
        ``pubT(t) ≥ insT(q)``."""
        received_since = float("-inf") if self.delta is None else now - self.delta
        published_since = (
            float("-inf") if published_at_or_after is None else published_at_or_after
        )
        return [
            record.tuple
            for record in self._by_key.get(key_text, ())
            if record.stored_at >= received_since
            and record.tuple.pub_time >= published_since
        ]
