"""Centralised continuous-join oracle, written as SQL.

The reference engine evaluates continuous multi-way equi-joins exactly as
Definition 1 (bag semantics) and Definition 2 (new answers / set semantics)
of the paper prescribe, in one in-memory ``sqlite3`` database with global
knowledge.  Each relation is a table (``e0, v0, …, e_k, v_k, seq, pub``).
A submitted query becomes one ``SELECT`` per relation: its select list, join
and selection predicates, ``pub >= insertion time`` on every relation,
``max(c…) - min(c…) + 1 <= W`` over a window's clock column (``seq`` for
``TUPLES``, ``pub`` for ``TIME``) and ``rowid = <the new row>`` on that
relation.  A published tuple's row is inserted and that statement of every
query run: its rows are the *new* answers.  ``DISTINCT`` dedupes in Python.

Values enter sqlite as integer ids, so that SQL equality stays Python's.  An
``e`` column holds the value's id in one intern dict (``None`` joins
``None``; ``1`` joins ``1.0`` and ``True``, not ``"1"``), a ``v`` column the
position of the value itself, so answers carry the values published.

It exists purely for validation: integration and property-based tests check
that the distributed RJoin engine delivers exactly the same bag (or set) of
answers on delay-free runs, which is the paper's soundness + eventual
completeness + no-accidental-duplicates claim (Theorems 1 and 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple as TupleT

from repro.data.schema import AttributeRef, Catalog
from repro.data.tuples import Tuple
from repro.errors import EngineError, SchemaError
from repro.sql.ast import Constant, Query


@dataclass
class _RegisteredQuery:
    query: Query
    #: One ``SELECT`` per relation: the answers that involve its row ``:row``.
    statements: Dict[str, str]
    #: The statements' other named parameters.
    params: Dict[str, Any]
    answers: List[TupleT[Any, ...]] = field(default_factory=list)
    seen: Set[TupleT[Any, ...]] = field(default_factory=set)


class ReferenceEngine:
    """A single-node oracle for continuous multi-way equi-join semantics."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self._queries: Dict[str, _RegisteredQuery] = {}
        #: Removed queries, kept so their answer history stays inspectable
        #: (mirrors the engine: a retracted query's handle retains the
        #: answers delivered before the retraction).
        self._removed: Dict[str, _RegisteredQuery] = {}
        # Imported here, so that ``import repro`` does not load sqlite.
        import sqlite3

        self._db = sqlite3.connect(":memory:")
        #: Relation name -> its table's name.
        self._tables: Dict[str, str] = {}
        #: Value -> the id its ``e`` columns hold; equal values share one.
        self._ids: Dict[Any, int] = {}
        #: Published values and select-list constants, by ``v`` column id.
        self._cells: List[Any] = []
        self._sequence = 0
        #: Queries ever submitted: the number of a default id.
        self._submitted = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def submit(
        self, query: Query, query_id: Optional[str] = None, insertion_time: float = 0.0
    ) -> str:
        """Register a continuous query; returns its id."""
        query.validate(self.catalog)
        self._submitted += 1
        if query_id is None:
            query_id = f"ref#{self._submitted}"
        if query_id in self._queries:
            raise EngineError(f"duplicate query id {query_id!r}")
        size = None if query.window is None else query.window.size
        params = {"since": insertion_time, "size": size}
        self._queries[query_id] = _RegisteredQuery(query, self._compile(query), params)
        return query_id

    def remove_query(self, query_id: str) -> None:
        """Retract a continuous query: later publications produce no answers.

        Mirrors :meth:`repro.core.engine.RJoinEngine.remove_query` so that
        oracle-equality tests hold across removals; the answers produced
        before the retraction remain available through :meth:`answers`.
        """
        if query_id not in self._queries:
            raise EngineError(f"unknown (or already removed) query id {query_id!r}")
        self._removed[query_id] = self._queries.pop(query_id)

    def _table(self, relation: str) -> str:
        """The table of ``relation``, created on first use."""
        table = self._tables.get(relation)
        if table is None:
            table = self._tables[relation] = f"t{len(self._tables)}"
            arity = self.catalog.get(relation).arity
            columns = [f"e{i}, v{i}" for i in range(arity)] + ["seq", "pub"]
            self._db.execute(f"CREATE TABLE {table} ({', '.join(columns)})")
        return table

    def _compile(self, query: Query) -> Dict[str, str]:
        """One ``SELECT`` per relation of ``query`` (see the module docstring)."""
        alias = {relation: f"r{i}" for i, relation in enumerate(query.relations)}

        def column(ref: AttributeRef, kind: str) -> str:
            position = self.catalog.get(ref.relation).position_of(ref.attribute)
            return f"{alias[ref.relation]}.{kind}{position}"

        select = []
        for item in query.select_items:
            if isinstance(item, Constant):
                select.append(str(len(self._cells)))
                self._cells.append(item.value)
            else:
                select.append(column(item, "v"))
        where = [
            f"{column(jp.left, 'e')} = {column(jp.right, 'e')}"
            for jp in query.join_predicates
        ]
        for sp in query.selection_predicates:
            value_id = self._ids.setdefault(sp.value, len(self._ids))
            where.append(f"{column(sp.attribute, 'e')} = {value_id}")
        where += [f"{name}.pub >= :since" for name in alias.values()]
        if query.window is not None:
            clock = "seq" if query.window.mode == "tuples" else "pub"
            # Listed twice: one relation still calls the scalar max/min.
            clocks = ", ".join([f"{name}.{clock}" for name in alias.values()] * 2)
            where.append(f"max({clocks}) - min({clocks}) + 1 <= :size")
        sources = ", ".join(
            f"{self._table(relation)} AS {name}" for relation, name in alias.items()
        )
        # Publication order per relation, as a cross product would list them.
        order = ", ".join(f"{name}.rowid" for name in alias.values())
        head = f"SELECT {', '.join(select)} FROM {sources} WHERE {' AND '.join(where)}"
        return {
            relation: f"{head} AND {name}.rowid = :row ORDER BY {order}"
            for relation, name in alias.items()
        }

    # ------------------------------------------------------------------
    # publication
    # ------------------------------------------------------------------
    def publish(
        self,
        relation: str,
        values: Sequence[Any],
        pub_time: Optional[float] = None,
        sequence: Optional[int] = None,
    ) -> Dict[str, List[TupleT[Any, ...]]]:
        """Publish a tuple and return the new answers it produces per query id."""
        schema = self.catalog.get(relation)
        self._sequence += 1
        tup = Tuple.from_schema(
            schema,
            values,
            pub_time=self._sequence if pub_time is None else pub_time,
            sequence=self._sequence if sequence is None else sequence,
        )
        return self.publish_tuple(tup)

    def publish_tuple(self, tup: Tuple) -> Dict[str, List[TupleT[Any, ...]]]:
        """Publish an already constructed tuple (pub_time/sequence preserved)."""
        schema = self.catalog.get(tup.relation)
        if tup.arity != schema.arity:
            raise SchemaError(f"{tup} does not have its schema's arity {schema.arity}")
        row: List[Any] = []
        for value in tup.values:
            row += (self._ids.setdefault(value, len(self._ids)), len(self._cells))
            self._cells.append(value)
        marks = ", ".join("?" * (len(row) + 2))
        rowid = self._db.execute(
            f"INSERT INTO {self._table(tup.relation)} VALUES ({marks})",
            (*row, tup.sequence, tup.pub_time),
        ).lastrowid
        cells = self._cells
        produced: Dict[str, List[TupleT[Any, ...]]] = {}
        for query_id, registered in self._queries.items():
            statement = registered.statements.get(tup.relation)
            if statement is None:
                continue
            rows = self._db.execute(statement, {**registered.params, "row": rowid})
            new_answers = [tuple(map(cells.__getitem__, ids)) for ids in rows]
            if registered.query.distinct:
                seen = registered.seen
                new_answers = [v for v in dict.fromkeys(new_answers) if v not in seen]
                seen.update(new_answers)
            if new_answers:
                produced[query_id] = new_answers
                registered.answers.extend(new_answers)
        return produced

    # ------------------------------------------------------------------
    # answers
    # ------------------------------------------------------------------
    def answers(self, query_id: str) -> List[TupleT[Any, ...]]:
        """All answers produced for ``query_id`` so far, removed or not."""
        registered = self._queries.get(query_id) or self._removed.get(query_id)
        if registered is None:
            raise EngineError(f"unknown query id {query_id!r}")
        return list(registered.answers)

    def answer_count(self, query_id: str) -> int:
        """Number of answers produced for ``query_id``."""
        return len(self.answers(query_id))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def published_tuples(self) -> int:
        """Number of tuples published so far: every row inserted is one."""
        return self._db.total_changes

    @property
    def registered_queries(self) -> int:
        """Number of registered continuous queries."""
        return len(self._queries)
