"""SQLite-backed tuple store (the ``sqlite`` backend).

A disk-capable implementation of the
:class:`~repro.data.backends.StoreBackend` contract: stored records live in
one SQLite table whose indexes make every hot operation an index scan —

* ``(relation, attribute, value)`` serves the attribute-level prefix match
  (:meth:`SqliteTupleStore.tuples_for_prefix`): canonical two-field prefixes
  resolve to an equality scan on the first two columns,
* ``(pub_time, sequence)`` and ``(sequence)`` serve the two window-expiry
  orders (:meth:`SqliteTupleStore.remove_expired`),
* ``(key, pub_time, sequence)`` serves exact-key lookups in publication
  order without re-sorting.

The store implements the one form of each operation the node calls; the
set-at-a-time forms (``add_batch``, ``match_batch``,
``tuples_for_prefixes``, ``remove_published_before``,
``remove_sequenced_before``) are the base class's wrappers.  A canonical
bucket probe deduplicates identities SQL-side (``GROUP BY rel, sequence``),
and its result is memoised per ``relation SEP attribute SEP`` bucket,
maintained incrementally on writes and dropped on deletes (the same scheme
the ``memory`` backend's prefix cache uses), so steady-state probing costs
a dict hit rather than a decode of every matching row.

Tuple values are serialized with the packed row codec
(:mod:`repro.data.rowcodec`): plain scalar rows take the ``struct`` fast
path and anything exotic falls back to a whole-row pickle, so arbitrary
Python values still round-trip exactly (the cross-backend answer-equality
tests rely on this).  Writes are *batched*:
:meth:`SqliteTupleStore.add` only appends to a pending buffer, and the
buffer is flushed inside a single ``executemany`` transaction the first
time a read or removal needs to see it, or when the engine commits a
``publish`` / ``publish_batch``: every tuple fan-out of one commit lands in
one transaction per node, and no write stays buffered past the commit.
Window and sequence GC are one ranged ``DELETE``
(:meth:`SqliteTupleStore.remove_expired` combines both cutoffs).

By default the database lives in memory (``:memory:``); pass a path to put
it on disk and study out-of-core behaviour.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple as TupleT

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
    relation TEXT,
    attribute TEXT,
    value TEXT,
    rel TEXT NOT NULL,
    sequence INTEGER NOT NULL,
    pub_time REAL NOT NULL,
    stored_at REAL NOT NULL,
    publisher TEXT,
    payload BLOB NOT NULL
);
CREATE INDEX idx_records_key_order ON records (key, pub_time, sequence);
CREATE INDEX idx_records_attr ON records (relation, attribute, value);
CREATE INDEX idx_records_pub ON records (pub_time, sequence);
CREATE INDEX idx_records_seq ON records (sequence);
"""

#: Column list of every record-returning SELECT, in `_record_from_row` order.
_RECORD_COLUMNS = "key, rel, sequence, pub_time, stored_at, publisher, payload"

#: Tuple-only column list of the deduplicating bucket SELECT.
_TUPLE_COLUMNS = "rel, sequence, pub_time, publisher, payload"

_tuple_order = (lambda t: (t.pub_time, t.sequence))


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
        #: INSERT parameter rows buffered until the next read/removal.
        self._pending: List[TupleT] = []
        self._size = 0
        self._stored_total = 0
        # Memoised canonical-bucket results (deduplicated, publication
        # order) plus the identity set backing each list.  Maintained
        # incrementally on add(), popped per bucket on keyed deletes and
        # cleared wholesale on ranged deletes.
        self._bucket_cache: Dict[str, List[Tuple]] = {}
        self._bucket_seen: Dict[str, Set[TupleT[str, int]]] = {}

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, key: str, tup: Tuple, now: float) -> StoredTuple:
        """Store ``tup`` under ``key`` and return the stored record."""
        relation = attribute = value = None
        bucket = bucket_of(key)
        if bucket is not None:
            relation, attribute, value = key.split(SEPARATOR, 2)
        self._pending.append(
            (
                key,
                relation,
                attribute,
                value,
                tup.relation,
                tup.sequence,
                tup.pub_time,
                now,
                tup.publisher,
                pack_values(tup.values),
            )
        )
        self._size += 1
        self._stored_total += 1
        if bucket is not None:
            cached = self._bucket_cache.get(bucket)
            if cached is not None:
                self._cache_admit(bucket, cached, tup)
        return StoredTuple(tuple=tup, key=key, stored_at=now)

    def _cache_admit(self, bucket: str, cached: List[Tuple], tup: Tuple) -> None:
        """Fold a fresh write into an already-memoised bucket result."""
        seen = self._bucket_seen[bucket]
        identity = tup.identity
        if identity in seen:
            return
        seen.add(identity)
        if not cached or _tuple_order(cached[-1]) <= _tuple_order(tup):
            cached.append(tup)
        else:
            insort(cached, tup, key=_tuple_order)

    def _drop_bucket(self, key: str) -> None:
        """Invalidate the memoised bucket covering ``key`` (keyed deletes)."""
        if not self._bucket_cache:
            return
        bucket = bucket_of(key)
        if bucket is not None:
            self._bucket_cache.pop(bucket, None)
            self._bucket_seen.pop(bucket, None)

    def _drop_all_buckets(self) -> None:
        self._bucket_cache.clear()
        self._bucket_seen.clear()

    def flush(self) -> None:
        """Write the pending buffer in one ``executemany`` transaction."""
        if not self._pending:
            return
        self._conn.execute("BEGIN")
        self._conn.executemany(
            "INSERT INTO records (key, relation, attribute, value, rel, "
            "sequence, pub_time, stored_at, publisher, payload) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
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
        removed = self._delete(
            "DELETE FROM records WHERE key = ? AND stored_at < ?", (key, cutoff)
        )
        if removed:
            self._drop_bucket(key)
        return removed

    def remove_expired(
        self,
        published_before: Optional[float] = None,
        sequenced_before: Optional[int] = None,
    ) -> int:
        """Both window-expiry orders as one ranged ``DELETE``.

        An index range-scan on ``(pub_time, sequence)`` or ``(sequence)``:
        no Python-side bookkeeping is needed because the index *is* the
        expiry order.
        """
        conditions: List[str] = []
        parameters: List[object] = []
        if published_before is not None:
            conditions.append("pub_time < ?")
            parameters.append(published_before)
        if sequenced_before is not None:
            conditions.append("sequence < ?")
            parameters.append(sequenced_before)
        if not conditions:
            return 0
        removed = self._delete(
            "DELETE FROM records WHERE " + " OR ".join(conditions),
            tuple(parameters),
        )
        if removed:
            # A ranged delete can touch any bucket; recomputing the affected
            # set would cost a scan, so drop the whole memo.
            self._drop_all_buckets()
        return removed

    def remove_key(self, key: str) -> List[StoredTuple]:
        """Remove and return every record stored under ``key`` (re-homing)."""
        records = self.records_for_key(key)
        if records:
            self._delete("DELETE FROM records WHERE key = ?", (key,))
            self._drop_bucket(key)
        return records

    def clear(self) -> None:
        """Remove every stored tuple (does not reset cumulative counters)."""
        self._pending.clear()
        self._conn.execute("DELETE FROM records")
        self._drop_all_buckets()
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

    def tuples_for_key(self, key: str) -> List[Tuple]:
        """The tuples stored under exactly ``key``, in publication order."""
        return [record.tuple for record in self.records_for_key(key)]

    def records_for_key(self, key: str) -> List[StoredTuple]:
        """The stored records under exactly ``key``, in publication order."""
        return self._select_records("key = ?", (key,))

    def tuples_for_prefix(self, prefix: str) -> List[Tuple]:
        """Tuples under any key starting with ``prefix`` (deduplicated, ordered).

        A canonical attribute-level prefix (``relation SEP attribute SEP``)
        is served from the bucket memo, or else by one equality scan on the
        ``(relation, attribute, value)`` index whose result is memoised.
        Its ``GROUP BY rel, sequence`` deduplicates identities SQL-side; the
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
        cached = self._bucket_cache.get(prefix)
        if cached is None:
            relation, attribute = prefix.split(SEPARATOR)[:2]
            self.flush()
            rows = self._conn.execute(
                f"SELECT {_TUPLE_COLUMNS} FROM records "
                "WHERE relation = ? AND attribute = ? "
                "GROUP BY rel, sequence ORDER BY pub_time, sequence",
                (relation, attribute),
            )
            cached = [self._tuple_from_row(row) for row in rows]
            self._bucket_cache[prefix] = cached
            self._bucket_seen[prefix] = {tup.identity for tup in cached}
        return list(cached)

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

    def distinct_tuples(self) -> int:
        """Number of distinct publications currently stored at this node."""
        self.flush()
        (count,) = self._conn.execute(
            "SELECT COUNT(*) FROM (SELECT DISTINCT rel, sequence FROM records)"
        ).fetchone()
        return count

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the underlying database connection."""
        self._conn.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SqliteTupleStore(size={self._size}, pending={len(self._pending)})"
