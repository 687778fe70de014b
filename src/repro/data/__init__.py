"""Relational data model used by the RJoin engine.

The paper assumes the relational data model: data is inserted into the
network as tuples of append-only relations (Section 2).  This subpackage
provides:

* :class:`~repro.data.schema.RelationSchema` and
  :class:`~repro.data.schema.Catalog` — relation schemas and the schema
  catalog shared by publishers and queriers,
* :class:`~repro.data.tuples.Tuple` — an immutable published tuple carrying
  its publication time and per-relation sequence number,
* :class:`~repro.data.backends.StoreBackend` — the contract of the per-node
  local tuple storage, with two implementations behind
  :func:`~repro.data.backends.make_store`:
  :class:`~repro.data.store.TupleStore` (``memory``, the default) and
  :class:`~repro.data.sqlite_store.SqliteTupleStore` (``sqlite``).
"""

from repro.data.backends import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    StoreBackend,
    StoredTuple,
    make_store,
)
from repro.data.schema import AttributeRef, Catalog, RelationSchema
from repro.data.store import TupleStore
from repro.data.tuples import Tuple

__all__ = [
    "AttributeRef",
    "BACKEND_NAMES",
    "Catalog",
    "DEFAULT_BACKEND",
    "RelationSchema",
    "StoreBackend",
    "StoredTuple",
    "Tuple",
    "TupleStore",
    "make_store",
]
