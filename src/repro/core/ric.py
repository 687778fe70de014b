"""Rate-of-incoming-tuples (RIC) bookkeeping — Sections 6 and 7.

Before indexing a query, RJoin asks the candidate nodes for information about
the rate of incoming tuples for the candidate keys (RIC information), then
indexes the query where the predicted rate is lowest — asking, of the keys it
knows no rate for, those whose answer could still change that choice
(:meth:`~repro.core.strategy.IndexingStrategy.worth_asking`).  The node-local
RIC state:

* :class:`RateTracker` — every node records, per indexing key it is
  responsible for, the arrival times of incoming tuples; the reported rate is
  the number of arrivals observed during the last time window (or the total
  count when no window is configured — "we observe what has happened ... and
  assume a similar behavior for the future"),
* :class:`RicEntry` — one observation: key, rate, the address of the node
  that reported it, when it was reported, and the arc of the identifier
  circle that node was responsible for then,
* :class:`CandidateTable` (CT) — the per-node cache of RIC entries
  (Section 7), and the one place an indexing decision reads them from:
  entries learned by asking candidates, or received piggy-backed on an
  arriving query (``QueryState.ric_info``: what the decision that sent it
  compared, moved into the table on arrival and kept nowhere else), are kept
  so that future indexing decisions for the same key need no extra messages;
  stale entries are asked again, and so is one that keeps deciding — at
  its 8th, 16th, 32nd ... use, together with the keys it is compared with
  (:data:`REASK_FROM`).  It also keeps the reporters' arcs, and those are the
  node's routing cache: every message it sends to a key — a published
  tuple, an input or rewritten query, a RIC question — goes to the key's
  owner in one hop once that owner has reported anything at all, to this
  node or to one that told it (:meth:`CandidateTable.owner_of`),
* and, in :class:`~repro.core.node.RJoinNode`, what is on its way: the
  indexing decisions waiting for a reply (``_pending_ric``) and the waiter
  index (``_ric_waiters``: key text -> the decisions waiting for that key),
  which holds a key exactly while one chain of the node is asking it — so the
  table's promise also covers answers that have not arrived yet, and a key is
  asked by at most one chain per node at a time.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Tuple

#: ``(predecessor id, own id)``: the identifiers ``(predecessor, own]`` a node
#: is responsible for, clockwise; equal ends are the whole circle.
Arc = Tuple[int, int]

#: The use of a cached entry from which it is asked again — at this one and
#: at every doubling of it (:meth:`CandidateTable.lookup`).
REASK_FROM = 8


def arc_holds(arc: Arc, identifier: int) -> bool:
    """Whether ``identifier`` lies on ``arc`` (Chord's ownership rule).

    :meth:`IdentifierSpace.in_interval <repro.dht.hashing.IdentifierSpace.in_interval>`
    for an arc and an identifier that are already on the circle: two
    comparisons, on the path of every keyed message sent in one hop.
    """
    start, end = arc
    if start < end:
        return start < identifier <= end
    return identifier > start or identifier <= end


@dataclass(frozen=True, slots=True)
class RicEntry:
    """One piece of RIC information about an indexing key."""

    key_text: str
    rate: float
    address: str
    observed_at: float
    #: The arc ``address`` owned when it reported (the ring's one tuple per
    #: node and membership change, shared by every entry that node stamps);
    #: ``None`` on a hand-built entry, which teaches no arc.
    arc: Optional[Arc] = None

    def is_fresh(self, now: float, freshness: Optional[float]) -> bool:
        """Whether the entry is still considered valid at time ``now``."""
        if freshness is None:
            return True
        return (now - self.observed_at) <= freshness


class RateTracker:
    """Per-node arrival counting for the keys the node is responsible for.

    ``max_keys`` (65536 by default, the bound every engine node uses) bounds
    the number of distinct keys the tracker holds state for: recording an
    arrival for a fresh key beyond the bound evicts the least recently
    *recorded* key first (deterministic LRU).  RIC entries
    are advisory — an evicted key simply reports a rate (and total) of zero
    until tuples arrive for it again — so the bound trades a little rate
    fidelity under million-distinct-key floods for a hard memory ceiling.
    ``None`` keeps state for every key ever seen.
    """

    def __init__(
        self, window: Optional[float] = None, max_keys: Optional[int] = 65536
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
    """Cache of RIC entries and of their reporters' arcs — Section 7.

    An entry answers "what is the rate of this key"; the arc it carries
    answers "which node do I ask about *any* key hashing here".  The table
    keeps one arc per reporter, the newest observed, and no two that
    overlap: the ring's own arcs never do, so of two overlapping ones the
    older was observed before a membership change and is dropped.  Hence
    there are never more arcs than the ring has members.  An arc is a hint
    and no more: the node it names checks for itself whether it owns the
    identifier a message is for, and one that went stale (a join split the
    arc, an id movement shrank it) misdirects one message of its node at
    most — the receiver passes that on through the ring and sends back the
    arc it owns now (:meth:`learn_arc`), which evicts the hint.  A missing
    one costs its node one routed message: the owner that reaches sends back
    its arc and every arc it has cached itself (:meth:`arcs`), each with the
    time it was observed, so that a table fills from its node's first few
    misses rather than one reporter at a time.  The arcs outlive the
    entries (:meth:`clear_entries`): they describe the ring, not any query.

    A rate is a count its reporter read once, and with no ``freshness`` an
    entry would hold it for ever: the first few tuples of a run would decide
    where a key's queries go for the rest of it, and which way they decide
    is chance.  So an entry that keeps being used is asked again
    (:meth:`lookup` misses) at its :data:`REASK_FROM`-th use and at every
    doubling of that: the candidates of a decision that recurs are used
    together, miss together and are read again by one chain at one time, and
    a key used ``n`` times costs ``log2 n`` questions.
    """

    def __init__(self, freshness: Optional[float] = None) -> None:
        """``freshness`` is the maximum age of a usable entry (``None`` = no limit)."""
        self.freshness = freshness
        self._entries: Dict[str, RicEntry] = {}
        #: Key text -> the lookups its entries have answered (no key without one).
        self._uses: Dict[str, int] = {}
        #: Reporter address -> its arc, and -> when that arc was first observed.
        self._arc_of: Dict[str, Arc] = {}
        self._arc_seen: Dict[str, float] = {}
        #: The cached arcs' ends in increasing order, their owners alongside.
        self._arc_ends: List[int] = []
        self._arc_owners: List[str] = []
        self._hits = 0
        self._misses = 0

    def update(self, entry: RicEntry) -> None:
        """Insert ``entry``, keeping the most recently observed one per key."""
        self.update_many((entry,))

    def update_many(self, entries: Iterable[RicEntry]) -> None:
        """Insert several entries at once, and learn their reporters' arcs.

        The loop an arriving query runs over what it carries piggy-backed (at
        most one entry per candidate of the decision that sent it): nearly
        always the arc is the very tuple the reporter is known by.
        """
        cached, arc_of = self._entries, self._arc_of
        for entry in entries:
            current = cached.get(entry.key_text)
            if current is None or entry.observed_at >= current.observed_at:
                cached[entry.key_text] = entry
            arc = entry.arc
            if arc is not None and arc_of.get(entry.address) is not arc:
                self.learn_arc(entry.address, arc, entry.observed_at)

    def owner_of(self, identifier: int, hint: Optional[str] = None) -> Optional[str]:
        """The reporter whose cached arc holds ``identifier``, or None.

        ``hint`` is the address an entry about the identifier's key names.
        The arcs know better where they know anything: it is returned only
        when none holds the identifier and none is cached for ``hint``
        itself — once its arc is, that arc has the say.
        """
        ends = self._arc_ends
        if ends:
            # The one arc that can hold it ends at or after it, wrapping around.
            index = bisect_left(ends, identifier)
            owner = self._arc_owners[index if index < len(ends) else 0]
            if arc_holds(self._arc_of[owner], identifier):
                return owner
        if hint is not None and hint in self._arc_of:
            return None
        return hint

    def learn_arc(self, address: str, arc: Arc, observed_at: float) -> None:
        """Cache that ``address`` owned ``arc`` at ``observed_at``; newest wins.

        It is no news, and dropped, when ``address`` is known to own something
        else since, or when it overlaps an arc observed later.  Otherwise it
        replaces the previous arc of ``address`` and every cached arc it
        overlaps: those whose end lies on it, and the one its own end lies on.
        """
        seen = self._arc_seen
        known = self._arc_of.get(address)
        if known == arc:
            self._arc_of[address] = arc  # an equal tuple of a later ring
            return
        if known is not None:
            if seen[address] > observed_at:
                return
            self._drop_arc(address)  # superseded, whatever becomes of ``arc``
        start, end = arc
        ends, owners = self._arc_ends, self._arc_owners
        low, high = bisect_right(ends, start), bisect_right(ends, end)
        overlapped = owners[low:high] if start < end else owners[low:] + owners[:high]
        holder = self.owner_of(end)
        if holder is not None and holder not in overlapped:
            overlapped.append(holder)
        if any(seen[owner] > observed_at for owner in overlapped):
            return
        for owner in overlapped:
            self._drop_arc(owner)
        index = bisect_left(ends, end)
        ends.insert(index, end)
        owners.insert(index, address)
        self._arc_of[address] = arc
        seen[address] = observed_at

    def arcs(self) -> List[Tuple[str, Arc, float]]:
        """Every cached arc as ``(address, arc, observed at)``: what an arc
        notice carries to another table's :meth:`learn_arc`."""
        seen = self._arc_seen
        return [(address, arc, seen[address]) for address, arc in self._arc_of.items()]

    def _drop_arc(self, address: str) -> None:
        _, end = self._arc_of.pop(address)
        del self._arc_seen[address]
        index = bisect_left(self._arc_ends, end)
        del self._arc_ends[index]
        del self._arc_owners[index]

    def lookup(self, key_text: str, now: float) -> Optional[RicEntry]:
        """Return a fresh cached entry for ``key_text`` or None: also at its
        :data:`REASK_FROM`-th use and every doubling of it, to be asked again."""
        entry = self._entries.get(key_text)
        if entry is not None and entry.is_fresh(now, self.freshness):
            uses = self._uses[key_text] = self._uses.get(key_text, 0) + 1
            if uses < REASK_FROM or uses & (uses - 1):
                self._hits += 1
                return entry
        self._misses += 1
        return None

    def invalidate_address(self, address: str) -> int:
        """Drop the entries ``address`` reported and its arc; returns the entry count.

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
            self._uses.pop(key_text, None)
        if address in self._arc_of:
            self._drop_arc(address)
        return len(stale)

    def clear_entries(self) -> int:
        """Drop every cached entry, keep the arcs; returns the entry count.

        The query-lifecycle vacuum: cached RIC observations only inform the
        indexing decisions of continuous queries, so once the last active
        query is removed they are dead weight.  Who owns which arc of the
        ring is as true for the next query's messages as for the last one's.
        """
        dropped = len(self._entries)
        self._entries.clear()
        self._uses.clear()
        return dropped

    def clear(self) -> None:
        """Drop every cached entry and arc (the hit/miss counters are preserved)."""
        self._entries.clear()
        self._uses.clear()
        self._arc_of.clear()
        self._arc_seen.clear()
        self._arc_ends.clear()
        self._arc_owners.clear()

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
