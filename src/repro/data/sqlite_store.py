"""SQLite-backed tuple store (the ``sqlite`` backend).

A disk-capable implementation of the
:class:`~repro.data.backends.StoreBackend` contract: stored records live in
one SQLite table with two indexes.  ``(key, pub_time, sequence)`` serves
exact-key probes in publication order and, as a range of keys, canonical
bucket probes (:meth:`SqliteTupleStore.tuples_for_prefix`, deduplicated
SQL-side by ``GROUP BY rel, sequence``).  ``(sequence, pub_time)`` serves
both expiry cutoffs as one ranged ``DELETE``: by the contract's premise
sequence order is publication order, so a publication-time cutoff is the
sequence cutoff of the first row it keeps.

The store keeps one exact *key map*: a key has an entry if and only if it
holds a row, buffered writes included.  An entry holds the sequence
number of the key's newest row and either the key's rows, in publication
order, or "not cached".  So a probe of a key without an entry answers
``[]`` with no SQL, and a cached entry answers with no flush and no
decode.  The first write to a key creates its entry with that one row;
later writes fold into the cached rows.  A cutoff drops every entry whose
newest row it deletes and takes a head off each cached list (publication
order is sequence order).  Canonical bucket results are cached in a
separate map, so a bucket's name never meets a key's.  Both maps share one
bound, :data:`PROBE_MEMO_BOUND` cached tuples per store, counting one per
cached entry plus one per row: past it the oldest cached rows go, the
entry stays, and a result larger than the bound is read but not kept.

Tuple values use the packed row codec (:mod:`repro.data.rowcodec`).
Writes are buffered and flushed in one ``executemany`` transaction when a
miss or a removal needs them, or when the engine commits a ``publish`` /
``publish_batch``.  The set-at-a-time forms are the base class's wrappers.
By default the database lives in memory (``:memory:``); pass a path to put
it on disk.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import OrderedDict
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
_RECORD_COLUMNS = "key, stored_at, rel, sequence, pub_time, publisher, payload"

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

#: Most cached tuples the store holds: each cached entry counts one plus one
#: per row it lists (held by ``TestProbeMemoBound``).  Room for every bucket
#: of ``bench_store_backends``' 50,000-tuple store (50,032), and under 7 % of
#: a store holding 10**6 tuples.  That CI-gated benchmark must fit under the
#: bound: it probes its buckets cyclically, and with oldest-first eviction a
#: cycle larger than the cache misses on every probe (``prefix_match`` fell
#: about 100x at a bound of 4,096).
#: ``test_the_gated_store_benchmark_fits_under_the_bound`` fails if it
#: outgrows it.
PROBE_MEMO_BOUND = 65536

_tuple_order = (lambda t: (t.pub_time, t.sequence))


class _Entry:
    """A key's entry: its newest row's sequence number and its cached rows.

    ``rows`` is None while not cached.  A bucket's entry has no newest row
    of its own (``newest`` is -1).
    """

    __slots__ = ("newest", "rows")

    def __init__(self, newest: int) -> None:
        self.newest = newest
        self.rows: Optional[List[Tuple]] = None


def _cut_head(rows: List[Tuple], cut: float) -> int:
    """Delete the rows sequenced below ``cut`` off the front of ``rows``.

    A cut takes what the SQL ``DELETE`` took, so the scan is as long as
    the rows it removes.  Returns how many went.
    """
    head = 0
    while head < len(rows) and rows[head].sequence < cut:
        head += 1
    del rows[:head]
    return head


def _fold_into_bucket(entry: List[Tuple], tup: Tuple) -> bool:
    """Insert ``tup`` into a bucket's rows unless its identity is listed.

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
        #: INSERT parameter rows buffered until the next miss, removal or
        #: commit.
        self._pending: List[TupleT] = []
        self._size = 0
        #: The key map: each key holding a row -> its entry.
        self._keys: Dict[str, _Entry] = {}
        #: Canonical bucket name -> its entry (``newest`` unused).
        self._buckets: Dict[str, _Entry] = {}
        #: The entries of both maps whose rows are cached, oldest first;
        #: ``_cached`` counts what the bound counts.
        self._admitted: OrderedDict[_Entry, None] = OrderedDict()
        self._cached = 0

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, key: str, tup: Tuple, now: float) -> StoredTuple:
        """Store ``tup`` under ``key`` and return the stored record."""
        sequence = tup.sequence
        self._pending.append(
            (
                key,
                tup.relation,
                sequence,
                tup.pub_time,
                now,
                tup.publisher,
                pack_values(tup.values),
            )
        )
        self._size += 1
        entry = self._keys.get(key)
        if entry is None:
            # No entry means no row, so ``tup`` is the key's whole list.
            self._keys[key] = entry = _Entry(sequence)
            self._admit(entry, [tup])
        else:
            if entry.newest < sequence:
                entry.newest = sequence
            rows = entry.rows
            if rows is not None:
                # Sequence order is publication order; duplicate identities
                # are kept, as the rows are.
                if rows and rows[-1].sequence > sequence:
                    insort(rows, tup, key=_tuple_order)
                else:
                    rows.append(tup)
                self._cached += 1
        buckets = self._buckets
        if buckets:
            bucket = bucket_of(key)
            entry = buckets.get(bucket) if bucket is not None else None
            if (
                entry is not None
                and entry.rows is not None
                and _fold_into_bucket(entry.rows, tup)
            ):
                self._cached += 1
        if self._cached > PROBE_MEMO_BOUND:
            self._trim()
        return StoredTuple(tuple=tup, key=key, stored_at=now)

    def _admit(self, entry: _Entry, rows: List[Tuple]) -> None:
        """Cache ``rows`` as ``entry``'s, unless they alone exceed the bound."""
        cost = 1 + len(rows)
        if cost <= PROBE_MEMO_BOUND:
            entry.rows = rows
            self._admitted[entry] = None
            self._cached += cost
            self._trim()

    def _uncache(self, entry: _Entry) -> None:
        """Drop ``entry``'s cached rows, if it has any."""
        rows = entry.rows
        if rows is not None:
            entry.rows = None
            self._cached -= 1 + len(rows)
            del self._admitted[entry]

    def _trim(self) -> None:
        """Uncache the oldest entries until the cache is within its bound."""
        admitted = self._admitted
        while self._cached > PROBE_MEMO_BOUND:
            self._uncache(next(iter(admitted)))

    def _uncache_bucket_of(self, key: str) -> None:
        """Forget the cached bucket result that may list ``key``'s rows."""
        bucket = bucket_of(key)
        entry = self._buckets.pop(bucket, None) if bucket is not None else None
        if entry is not None:
            self._uncache(entry)

    def _cut(self, cut: float) -> None:
        """Take the rows sequenced below ``cut`` out of both maps.

        A key whose newest row is below ``cut`` holds no row any more.  A
        cached list is in publication order, which is sequence order too,
        so it loses a head; a bucket left empty goes.
        """
        keys, buckets = self._keys, self._buckets
        gone: List[str] = []
        for key, entry in keys.items():
            rows = entry.rows
            if entry.newest < cut:
                gone.append(key)
            elif rows and rows[0].sequence < cut:
                self._cached -= _cut_head(rows, cut)
        for key in gone:
            self._uncache(keys.pop(key))
        emptied: List[str] = []
        for bucket, entry in buckets.items():
            rows = entry.rows
            if rows and rows[0].sequence < cut:
                self._cached -= _cut_head(rows, cut)
                if not rows:
                    emptied.append(bucket)
        for bucket in emptied:
            self._uncache(buckets.pop(bucket))

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
        entry = self._keys.get(key)
        if entry is None:
            return 0
        removed = self._delete(
            "DELETE FROM records WHERE key = ? AND stored_at < ?", (key, cutoff)
        )
        if removed:
            self._uncache(entry)
            self._uncache_bucket_of(key)
            rows = self._select_tuples(_KEY_PROBE, (key,))
            if rows:
                entry.newest = rows[-1].sequence
                self._admit(entry, rows)
            else:
                del self._keys[key]
        return removed

    def remove_expired(
        self,
        published_before: Optional[float] = None,
        sequenced_before: Optional[int] = None,
    ) -> int:
        """Both window-expiry cutoffs as one ranged ``DELETE``.

        An index range-scan on ``(sequence, pub_time)``: the index *is* the
        expiry order.  By the contract's premise the rows published before
        ``published_before`` are those sequenced below the first row it
        keeps, which one covering-index read finds; the key map then loses
        what the ``DELETE`` took.
        """
        if published_before is None and sequenced_before is None:
            return 0
        cut: float = float("-inf") if sequenced_before is None else sequenced_before
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
            self._cut(cut)
        return removed

    def remove_key(self, key: str) -> List[StoredTuple]:
        """Remove and return every record stored under ``key`` (re-homing)."""
        entry = self._keys.pop(key, None)
        if entry is None:
            return []
        self._uncache(entry)
        self._uncache_bucket_of(key)
        records = self._select_records("key = ?", (key,))
        self._delete("DELETE FROM records WHERE key = ?", (key,))
        return records

    def clear(self) -> None:
        """Remove every stored tuple."""
        self._pending.clear()
        self._conn.execute("DELETE FROM records")
        self._keys.clear()
        self._buckets.clear()
        self._admitted.clear()
        self._cached = 0
        self._size = 0

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
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

    @classmethod
    def _record_from_row(cls, row: TupleT) -> StoredTuple:
        tup = cls._tuple_from_row(row[2:])
        return StoredTuple(tuple=tup, key=row[0], stored_at=row[1])

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

    def _fill(self, entry: _Entry, sql: str, parameters: TupleT) -> List[Tuple]:
        """Read an uncached entry's rows with one SELECT and cache them."""
        rows = self._select_tuples(sql, parameters)
        self._admit(entry, rows)
        return rows

    def tuples_for_key(self, key: str) -> List[Tuple]:
        """The tuples stored under exactly ``key``, in publication order.

        ``[]`` for a key without an entry, the cached rows of a cached
        entry, or else one scan of the ``(key, pub_time, sequence)`` index.
        """
        entry = self._keys.get(key)
        if entry is None:
            return []
        rows = entry.rows
        if rows is None:
            rows = self._fill(entry, _KEY_PROBE, (key,))
        return list(rows)

    def tuples_for_prefix(self, prefix: str) -> List[Tuple]:
        """Tuples under any key starting with ``prefix`` (deduplicated, ordered).

        A canonical attribute-level prefix (``relation SEP attribute SEP``)
        is served from its cached entry, or else by one range scan of the
        ``(key, pub_time, sequence)`` index.  Its ``GROUP BY rel, sequence``
        deduplicates identities SQL-side; the bare columns are safe because
        every row of one identity group describes the same publication.
        Arbitrary prefixes fall back to a table scan.
        """
        bucket = bucket_of(prefix)
        if bucket is None or len(bucket) != len(prefix):
            records = self._select_records(
                "substr(key, 1, ?) = ?", (len(prefix), prefix)
            )
            # The SELECT already returns publication order; merge_records only
            # contributes the identity deduplication here.
            return merge_records([records])
        entry = self._buckets.get(prefix)
        if entry is None:
            entry = self._buckets[prefix] = _Entry(-1)
        rows = entry.rows
        if rows is None:
            rows = self._fill(
                entry, _BUCKET_PROBE, (prefix, prefix[:-1] + _PAST_SEPARATOR)
            )
        return list(rows)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of currently stored entries (across all keys); O(1)."""
        return self._size

    def keys(self) -> Iterable[str]:
        """The indexing keys that currently hold tuples (the key map's)."""
        return list(self._keys)

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
