"""SQLite-backed tuple store (the ``sqlite`` backend).

A disk-capable implementation of the
:class:`~repro.data.backends.StoreBackend` contract: stored records live in
one SQLite table with two secondary indexes, so every hot operation is an
index scan —

* ``(key, pub_time, sequence)`` serves exact-key lookups in publication
  order without re-sorting, and the canonical-bucket prefix match
  (:meth:`SqliteTupleStore.tuples_for_prefix`) as a range of keys,
* ``(sequence, pub_time)`` serves both window-expiry cutoffs
  (:meth:`SqliteTupleStore.remove_expired`): by the contract's premise
  sequence order is publication order, so a publication-time cutoff is the
  sequence cutoff of the first row it keeps.

The store implements the one form of each operation the node calls; the
set-at-a-time forms (``add_batch``, ``match_batch``,
``tuples_for_prefixes``, ``remove_published_before``,
``remove_sequenced_before``) are the base class's wrappers.  A canonical
bucket probe deduplicates identities SQL-side (``GROUP BY rel, sequence``).

The store keeps a *key map*: each key that may hold a row, mapped to the
``(pub_time, sequence)`` of its newest row, oldest first.  A key absent
from it holds no row, so its probe answers ``[]`` with no flush, no SELECT
and no memo entry — most probes of an ingest-heavy node are of such keys.
Every expiry cutoff prunes the map from its front, up to the first key
with a row the cutoff keeps; a key behind that one, or one a keyed delete
emptied, stays listed until a probe finds it empty.

Both probe kinds are answered from one *probe memo* keyed by probe text:
an exact key (duplicate identities kept, as the rows are) or a canonical
``relation SEP attribute SEP`` bucket (deduplicated by identity).  A miss
fills the entry from one SELECT; after that a repeated probe is a dict hit
that neither flushes nor decodes a row.  An exact key's empty result is
not memoised: the key map answers it.  The memo is write-through:
:meth:`SqliteTupleStore.add` folds each written tuple into the entries that
cover its key, in publication order, so a hit also sees the buffered
writes.  A ranged delete (:meth:`SqliteTupleStore.remove_expired`) keeps
the memo exact without reading back what it deleted: entries are in
publication order, which is sequence order too (the contract's premise),
so either cutoff takes a head off each entry, and an entry it empties
leaves the memo (an exact key's leaves the key map too).  A keyed delete
(``remove_key``, ``remove_older_than``) drops the entries covering its key
and ``clear`` empties the memo.  The memo holds at most
:data:`PROBE_MEMO_BOUND` cached tuples per store, counting one per entry
plus one per tuple; past it the oldest entries go first, and a result
larger than the bound is never memoised.

Tuple values are serialized with the packed row codec
(:mod:`repro.data.rowcodec`): plain scalar rows take the ``struct`` fast
path and anything exotic falls back to a whole-row pickle, so arbitrary
Python values still round-trip exactly (the cross-backend answer-equality
tests rely on this).  Writes are *batched*:
:meth:`SqliteTupleStore.add` only appends to a pending buffer, and the
buffer is flushed inside a single ``executemany`` transaction the first
time a memo miss or a removal needs to see it, or when the engine commits a
``publish`` / ``publish_batch``: every tuple fan-out of one commit lands in
one transaction per node, and no write stays buffered past the commit.
Window and sequence GC are one ranged ``DELETE`` on the order index
(:meth:`SqliteTupleStore.remove_expired` combines both cutoffs).

By default the database lives in memory (``:memory:``); pass a path to put
it on disk and study out-of-core behaviour.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple as TupleT

import sqlite3

from repro.data.backends import (
    SEPARATOR,
    StoreBackend,
    StoredTuple,
    bucket_of,
    merge_records,
)
from repro.data.rowcodec import pack_values, unpack_values
from repro.data.tuples import Tuple

_SCHEMA = """
CREATE TABLE records (
    id INTEGER PRIMARY KEY,
    key TEXT NOT NULL,
    rel TEXT NOT NULL,
    sequence INTEGER NOT NULL,
    pub_time REAL NOT NULL,
    stored_at REAL NOT NULL,
    publisher TEXT,
    payload BLOB NOT NULL
);
CREATE INDEX idx_records_key_order ON records (key, pub_time, sequence);
CREATE INDEX idx_records_order ON records (sequence, pub_time);
"""

#: Column list of every record-returning SELECT, in `_record_from_row` order.
_RECORD_COLUMNS = "key, rel, sequence, pub_time, stored_at, publisher, payload"

#: Tuple-only column list of the probe SELECTs, in `_tuple_from_row` order.
_TUPLE_COLUMNS = "rel, sequence, pub_time, publisher, payload"

#: The exact-key probe, after its SELECT list.
_KEY_PROBE = "WHERE key = ? ORDER BY pub_time, sequence"

#: A canonical bucket's probe, after its SELECT list: the range of keys that
#: start with the bucket's name, one identity per publication.
_BUCKET_PROBE = (
    "WHERE key >= ? AND key < ? GROUP BY rel, sequence ORDER BY pub_time, sequence"
)

#: The first character past SEPARATOR: ``name[:-1] + _PAST_SEPARATOR`` is the
#: least text above every key that starts with the bucket ``name``.
_PAST_SEPARATOR = chr(ord(SEPARATOR) + 1)

#: Most cached tuples the probe memo holds per store: each entry counts one
#: plus one per tuple it lists (held by ``TestProbeMemoBound``).  Room for
#: every bucket of ``bench_store_backends``' 50,000-tuple store (50,032),
#: and under 7 % of a store holding 10**6 tuples.  That CI-gated benchmark
#: must fit under the bound: it probes its buckets cyclically, and with
#: oldest-first eviction a cycle larger than the memo misses on every probe
#: (``prefix_match`` fell about 100x at a bound of 4,096).
#: ``test_the_gated_store_benchmark_fits_under_the_bound`` fails if it
#: outgrows it.
PROBE_MEMO_BOUND = 65536

_tuple_order = (lambda t: (t.pub_time, t.sequence))
_published = attrgetter("pub_time")
_sequenced = attrgetter("sequence")


def _names_covering(key: str) -> TupleT[str, ...]:
    """The memo names whose entries can list a tuple stored under ``key``."""
    bucket = bucket_of(key)
    return (key,) if bucket is None else (key, bucket)


def _fold_into_key(entry: List[Tuple], tup: Tuple) -> None:
    """Insert ``tup`` into an exact-key entry, duplicates kept as rows are."""
    if not entry or _tuple_order(entry[-1]) <= _tuple_order(tup):
        entry.append(tup)
    else:
        insort(entry, tup, key=_tuple_order)


def _fold_into_bucket(entry: List[Tuple], tup: Tuple) -> bool:
    """Insert ``tup`` into a bucket entry unless its identity is listed.

    One identity is one publication, so a listed copy sorts level with
    ``tup``; only that run of the list is searched.  Returns whether
    ``tup`` went in.
    """
    order = _tuple_order(tup)
    at = len(entry)
    if entry and _tuple_order(entry[-1]) >= order:
        low = bisect_left(entry, order, key=_tuple_order)
        at = bisect_right(entry, order, lo=low, key=_tuple_order)
        identity = tup.identity
        if any(listed.identity == identity for listed in entry[low:at]):
            return False
    entry.insert(at, tup)
    return True


class SqliteTupleStore(StoreBackend):
    """Key-addressed tuple storage backed by a SQLite table."""

    name = "sqlite"

    def __init__(self, path: str = ":memory:") -> None:
        """``path`` is the database location; the default keeps it in memory."""
        self._conn = sqlite3.connect(path, isolation_level=None)
        # The store is node-local simulation state: durability across a host
        # crash buys nothing here, so trade it for write speed.
        self._conn.execute("PRAGMA synchronous = OFF")
        self._conn.execute("PRAGMA journal_mode = MEMORY")
        self._conn.executescript(_SCHEMA)
        #: INSERT parameter rows buffered until the next memo miss, removal
        #: or commit.
        self._pending: List[TupleT] = []
        self._size = 0
        #: The key map: every key that may hold a row -> the ``(pub_time,
        #: sequence)`` of its newest row, the most recently written key last.
        self._newest: Dict[str, TupleT[float, int]] = {}
        # The probe memo: probe text (an exact key, or a canonical bucket)
        # -> its result in publication order, oldest entry first.  A key
        # ending in SEPARATOR is never an exact entry, so the two kinds
        # cannot share a name.  ``_memo_size`` counts what the bound counts.
        self._memo: Dict[str, List[Tuple]] = {}
        self._memo_size = 0

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, key: str, tup: Tuple, now: float) -> StoredTuple:
        """Store ``tup`` under ``key`` and return the stored record."""
        pub_time = tup.pub_time
        sequence = tup.sequence
        self._pending.append(
            (
                key,
                tup.relation,
                sequence,
                pub_time,
                now,
                tup.publisher,
                pack_values(tup.values),
            )
        )
        self._size += 1
        newest = self._newest
        order = (pub_time, sequence)
        prior = newest.pop(key, None)
        newest[key] = order if prior is None or prior < order else prior
        memo = self._memo
        if memo:
            grown = 0
            bucket = bucket_of(key)
            entry = memo.get(key)  # the bucket's entry if key == bucket
            if entry is not None and key != bucket:
                _fold_into_key(entry, tup)
                grown = 1
            entry = memo.get(bucket) if bucket is not None else None
            if entry is not None and _fold_into_bucket(entry, tup):
                grown += 1
            if grown:
                self._memo_size += grown
                self._trim_memo()
        return StoredTuple(tuple=tup, key=key, stored_at=now)

    def _memoise(self, name: str, result: List[Tuple]) -> None:
        """Admit a freshly selected probe result, if it fits the bound."""
        cost = 1 + len(result)
        if cost <= PROBE_MEMO_BOUND:
            self._memo[name] = result
            self._memo_size += cost
            self._trim_memo()

    def _trim_memo(self) -> None:
        """Evict the oldest entries until the memo is within its bound."""
        memo = self._memo
        while self._memo_size > PROBE_MEMO_BOUND:
            self._memo_size -= 1 + len(memo.pop(next(iter(memo))))

    def _drop_entries(self, key: str) -> None:
        """Forget the memo entries covering ``key`` (keyed deletes)."""
        for name in _names_covering(key):
            entry = self._memo.pop(name, None)
            if entry is not None:
                self._memo_size -= 1 + len(entry)

    def _cut_heads(self, before: float, below: float) -> None:
        """Take the tuples published before ``before`` or sequenced below
        ``below`` out of the memo.

        Entries are in publication order, which is sequence order too, so
        each loses a head: the longer of the two cutoffs' heads.  An entry
        left empty goes; an exact key's empty entry says the key holds no
        row, so the key leaves the key map too.
        """
        memo = self._memo
        emptied: List[str] = []
        for name, entry in memo.items():
            head = 0
            if entry and entry[0].pub_time < before:
                head = bisect_left(entry, before, key=_published)
            if head < len(entry) and entry[head].sequence < below:
                head = bisect_left(entry, below, head, key=_sequenced)
            if head:
                del entry[:head]
                self._memo_size -= head
                if not entry:
                    emptied.append(name)
        for name in emptied:
            del memo[name]
            self._memo_size -= 1
            if not name.endswith(SEPARATOR):
                self._newest.pop(name, None)

    def flush(self) -> None:
        """Write the pending buffer in one ``executemany`` transaction."""
        if not self._pending:
            return
        self._conn.execute("BEGIN")
        self._conn.executemany(
            "INSERT INTO records (key, rel, sequence, pub_time, stored_at, "
            "publisher, payload) VALUES (?, ?, ?, ?, ?, ?, ?)",
            self._pending,
        )
        self._conn.execute("COMMIT")
        self._pending.clear()

    def _delete(self, sql: str, parameters: TupleT) -> int:
        """Run a DELETE, keep the size counter in step, return the row count."""
        self.flush()
        removed = self._conn.execute(sql, parameters).rowcount
        self._size -= removed
        return removed

    def remove_older_than(self, key: str, cutoff: float) -> int:
        """Drop tuples under ``key`` stored strictly before ``cutoff``."""
        if key not in self._newest:
            return 0
        removed = self._delete(
            "DELETE FROM records WHERE key = ? AND stored_at < ?", (key, cutoff)
        )
        if removed:
            self._drop_entries(key)
        return removed

    def remove_expired(
        self,
        published_before: Optional[float] = None,
        sequenced_before: Optional[int] = None,
    ) -> int:
        """Both window-expiry cutoffs as one ranged ``DELETE``.

        An index range-scan on ``(sequence, pub_time)``: no Python-side
        expiry bookkeeping is needed because the index *is* the expiry
        order.  By the contract's premise the rows published before
        ``published_before`` are those sequenced below the first row it
        keeps, which one covering-index read finds.  Either cutoff takes a
        head off each memo entry and off the key map (oldest key first).
        """
        if published_before is None and sequenced_before is None:
            return 0
        below = float("-inf") if sequenced_before is None else sequenced_before
        before = float("-inf") if published_before is None else published_before
        cut: float = below
        if published_before is not None:
            self.flush()
            first_kept = self._conn.execute(
                "SELECT sequence FROM records WHERE pub_time >= ? "
                "ORDER BY sequence LIMIT 1",
                (published_before,),
            ).fetchone()
            cut = max(cut, float("inf") if first_kept is None else first_kept[0])
        removed = self._delete("DELETE FROM records WHERE sequence < ?", (cut,))
        if removed:
            self._cut_heads(before, below)
        # By the premise, a key whose newest row is behind a cutoff has no
        # row left; the walk stops at the first key with a row kept.
        newest = self._newest
        gone: List[str] = []
        for key, (pub_time, sequence) in newest.items():
            if pub_time >= before and sequence >= below:
                break
            gone.append(key)
        for key in gone:
            del newest[key]
        return removed

    def remove_key(self, key: str) -> List[StoredTuple]:
        """Remove and return every record stored under ``key`` (re-homing)."""
        if self._newest.pop(key, None) is None:
            return []
        records = self._records_for_key(key)
        if records:
            self._delete("DELETE FROM records WHERE key = ?", (key,))
            self._drop_entries(key)
        return records

    def clear(self) -> None:
        """Remove every stored tuple."""
        self._pending.clear()
        self._conn.execute("DELETE FROM records")
        self._newest.clear()
        self._memo.clear()
        self._memo_size = 0
        self._size = 0

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @staticmethod
    def _record_from_row(row: TupleT) -> StoredTuple:
        key, rel, sequence, pub_time, stored_at, publisher, payload = row
        tup = Tuple(
            relation=rel,
            values=unpack_values(payload),
            pub_time=pub_time,
            sequence=sequence,
            publisher=publisher,
        )
        return StoredTuple(tuple=tup, key=key, stored_at=stored_at)

    @staticmethod
    def _tuple_from_row(row: TupleT) -> Tuple:
        rel, sequence, pub_time, publisher, payload = row
        return Tuple(
            relation=rel,
            values=unpack_values(payload),
            pub_time=pub_time,
            sequence=sequence,
            publisher=publisher,
        )

    def _select_records(self, where: str, parameters: TupleT) -> List[StoredTuple]:
        self.flush()
        rows = self._conn.execute(
            f"SELECT {_RECORD_COLUMNS} FROM records WHERE {where} "
            "ORDER BY pub_time, sequence",
            parameters,
        )
        return [self._record_from_row(row) for row in rows]

    def _select_tuples(self, sql: str, parameters: TupleT) -> List[Tuple]:
        self.flush()
        rows = self._conn.execute(
            f"SELECT {_TUPLE_COLUMNS} FROM records {sql}", parameters
        )
        return [self._tuple_from_row(row) for row in rows]

    def tuples_for_key(self, key: str) -> List[Tuple]:
        """The tuples stored under exactly ``key``, in publication order.

        Served from the probe memo, or as ``[]`` for a key the key map does
        not list, or else by one scan of the ``(key, pub_time, sequence)``
        index whose result is memoised unless it is empty.
        """
        if key not in self._newest:
            return []
        if key.endswith(SEPARATOR):
            # Shaped like a bucket's name, so never an exact entry.
            return self._select_tuples(_KEY_PROBE, (key,))
        cached = self._memo.get(key)
        if cached is None:
            cached = self._select_tuples(_KEY_PROBE, (key,))
            if not cached:
                del self._newest[key]
                return cached
            self._memoise(key, cached)
        return list(cached)

    def _records_for_key(self, key: str) -> List[StoredTuple]:
        """The stored records under exactly ``key``, in publication order."""
        return self._select_records("key = ?", (key,))

    def tuples_for_prefix(self, prefix: str) -> List[Tuple]:
        """Tuples under any key starting with ``prefix`` (deduplicated, ordered).

        A canonical attribute-level prefix (``relation SEP attribute SEP``)
        is served from the probe memo, or else by one range scan of the
        ``(key, pub_time, sequence)`` index whose result is memoised.  Its
        ``GROUP BY rel, sequence`` deduplicates identities SQL-side; the
        bare columns are safe because every row of one identity group
        describes the same publication.  Arbitrary prefixes fall back to a
        table scan.
        """
        bucket = bucket_of(prefix)
        if bucket is None or len(bucket) != len(prefix):
            records = self._select_records(
                "substr(key, 1, ?) = ?", (len(prefix), prefix)
            )
            # The SELECT already returns publication order; merge_records only
            # contributes the identity deduplication here.
            return merge_records([records])
        cached = self._memo.get(prefix)
        if cached is None:
            cached = self._select_tuples(
                _BUCKET_PROBE, (prefix, prefix[:-1] + _PAST_SEPARATOR)
            )
            self._memoise(prefix, cached)
        return list(cached)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of currently stored entries (across all keys); O(1)."""
        return self._size

    def keys(self) -> Iterable[str]:
        """The indexing keys that currently hold tuples."""
        self.flush()
        return [
            row[0]
            for row in self._conn.execute("SELECT DISTINCT key FROM records")
        ]

    def __iter__(self) -> Iterator[StoredTuple]:
        self.flush()
        rows = self._conn.execute(
            f"SELECT {_RECORD_COLUMNS} FROM records ORDER BY key, pub_time, sequence"
        )
        for row in rows:
            yield self._record_from_row(row)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the underlying database connection."""
        self._conn.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SqliteTupleStore(size={self._size}, pending={len(self._pending)})"
