"""Rate-of-incoming-tuples (RIC) bookkeeping — Sections 6 and 7.

Before indexing a query, RJoin asks the candidate nodes for information about
the rate of incoming tuples for the candidate keys (RIC information), then
indexes the query where the predicted rate is lowest.  The node-local RIC
state:

* :class:`RateTracker` — every node records, per indexing key it is
  responsible for, the arrival times of incoming tuples; the reported rate is
  the number of arrivals observed during the last time window (or the total
  count when no window is configured — "we observe what has happened ... and
  assume a similar behavior for the future"),
* :class:`RicEntry` — one observation: key, rate, the address of the node
  that reported it and when it was reported,
* :class:`CandidateTable` (CT) — the per-node cache of RIC entries
  (Section 7): entries learned by asking candidates, or received piggy-backed
  on rewritten queries (``QueryState.ric_info``), are kept so that future
  indexing decisions for the same key need no extra messages; stale entries
  are asked again,
* and, in :class:`~repro.core.node.RJoinNode`, what is on its way: the
  indexing decisions waiting for a reply (``_pending_ric``) and the waiter
  index (``_ric_waiters``: key text -> the decisions waiting for that key),
  which holds a key exactly while one chain of the node is asking it — so the
  table's promise also covers answers that have not arrived yet, and a key is
  asked by at most one chain per node at a time.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional


@dataclass(frozen=True)
class RicEntry:
    """One piece of RIC information about an indexing key."""

    key_text: str
    rate: float
    address: str
    observed_at: float

    def is_fresh(self, now: float, freshness: Optional[float]) -> bool:
        """Whether the entry is still considered valid at time ``now``."""
        if freshness is None:
            return True
        return (now - self.observed_at) <= freshness


class RateTracker:
    """Per-node arrival counting for the keys the node is responsible for.

    ``max_keys`` bounds the number of distinct keys the tracker holds state
    for: recording an arrival for a fresh key beyond the bound evicts the
    least recently *recorded* key first (deterministic LRU).  RIC entries
    are advisory — an evicted key simply reports a rate (and total) of zero
    until tuples arrive for it again — so the bound trades a little rate
    fidelity under million-distinct-key floods for a hard memory ceiling.
    ``None`` keeps state for every key ever seen.
    """

    def __init__(
        self, window: Optional[float] = None, max_keys: Optional[int] = None
    ) -> None:
        """``window`` bounds the observation horizon; ``None`` counts forever."""
        self.window = window
        self.max_keys = max_keys
        self.evicted_keys = 0
        self._arrivals: Dict[str, Deque[float]] = {}
        # Insertion-ordered: the first key is always the least recently
        # recorded one (record() re-appends the key it touches).
        self._totals: OrderedDict[str, int] = OrderedDict()

    def record(self, key_text: str, now: float) -> None:
        """Record the arrival of a tuple for ``key_text`` at time ``now``."""
        totals = self._totals
        if key_text in totals:
            totals[key_text] += 1
            totals.move_to_end(key_text)
        else:
            if self.max_keys is not None and len(totals) >= self.max_keys:
                evicted, _ = totals.popitem(last=False)
                self._arrivals.pop(evicted, None)
                self.evicted_keys += 1
            totals[key_text] = 1
        if self.window is None:
            return
        arrivals = self._arrivals.setdefault(key_text, deque())
        arrivals.append(now)
        self._prune(arrivals, now)

    def rate(self, key_text: str, now: float) -> float:
        """Observed arrival count for ``key_text`` over the configured horizon."""
        if self.window is None:
            return float(self._totals.get(key_text, 0))
        arrivals = self._arrivals.get(key_text)
        if not arrivals:
            return 0.0
        self._prune(arrivals, now)
        return float(len(arrivals))

    def total(self, key_text: str) -> int:
        """Lifetime arrival count for ``key_text`` (zero once evicted)."""
        return self._totals.get(key_text, 0)

    def _prune(self, arrivals: Deque[float], now: float) -> None:
        assert self.window is not None
        cutoff = now - self.window
        while arrivals and arrivals[0] < cutoff:
            arrivals.popleft()

    def tracked_keys(self) -> List[str]:
        """Keys for which arrival state is currently held."""
        return list(self._totals.keys())

    def __len__(self) -> int:
        """Number of keys currently tracked; never exceeds ``max_keys``."""
        return len(self._totals)


class CandidateTable:
    """Cache of RIC entries (and candidate node addresses) — Section 7."""

    def __init__(self, freshness: Optional[float] = None) -> None:
        """``freshness`` is the maximum age of a usable entry (``None`` = no limit)."""
        self.freshness = freshness
        self._entries: Dict[str, RicEntry] = {}
        self._hits = 0
        self._misses = 0

    def update(self, entry: RicEntry) -> None:
        """Insert ``entry``, keeping the most recently observed one per key."""
        current = self._entries.get(entry.key_text)
        if current is None or entry.observed_at >= current.observed_at:
            self._entries[entry.key_text] = entry

    def update_many(self, entries: Iterable[RicEntry]) -> None:
        """Insert several entries at once."""
        for entry in entries:
            self.update(entry)

    def lookup(self, key_text: str, now: float) -> Optional[RicEntry]:
        """Return a fresh cached entry for ``key_text`` or None."""
        entry = self._entries.get(key_text)
        if entry is not None and entry.is_fresh(now, self.freshness):
            self._hits += 1
            return entry
        self._misses += 1
        return None

    def invalidate_address(self, address: str) -> int:
        """Drop every cached entry reported by ``address``; returns the count.

        Called eagerly when a node leaves the ring (graceful departure or
        crash): entries pointing at the departed node can never satisfy the
        one-hop shortcut again, so keeping them only produces stale one-hop
        attempts that the lazy ownership check must then reject.
        """
        stale = [
            key_text
            for key_text, entry in self._entries.items()
            if entry.address == address
        ]
        for key_text in stale:
            del self._entries[key_text]
        return len(stale)

    def clear(self) -> None:
        """Drop every cached entry (the hit/miss counters are preserved).

        The query-lifecycle vacuum: cached RIC observations only inform the
        indexing decisions of continuous queries, so once the last active
        query is removed the cache is dead weight.
        """
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hits(self) -> int:
        """Number of lookups answered from the cache."""
        return self._hits

    @property
    def misses(self) -> int:
        """Number of lookups that found nothing fresh: the key is asked, or
        waited for with the chain of this node that is asking it already."""
        return self._misses
