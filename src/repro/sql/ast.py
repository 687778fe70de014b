"""Abstract syntax tree for the supported continuous SQL subset.

The supported query shape is the one used throughout the paper::

    SELECT [DISTINCT] R.A, S.B, ...
    FROM R, S, ...
    WHERE R.A = S.B AND S.C = J.F AND J.D = 7 ...
    [WINDOW <n> TUPLES | WINDOW <n> TIME]

* the ``WHERE`` clause is a conjunction of *equi-join predicates*
  (``R.A = S.B``) and *selection predicates* (``R.A = constant``),
* the optional ``WINDOW`` clause expresses the sliding-window joins of
  Section 5 (time-based or tuple-based),
* ``DISTINCT`` requests set semantics with the duplicate-elimination rule of
  Section 4.

Queries are immutable.  The rewriting step of RJoin (Section 3) produces a
*new* :class:`Query` with one fewer relation; see
:mod:`repro.core.rewriting`.  It builds its children with the *trusted*
constructors beside the classes (:func:`trusted_query`,
:func:`trusted_selection`, :func:`trusted_constant`): they set the slots of
a fresh object directly and validate nothing, since every part comes from
an already-valid parent.  The objects are the classes' own, frozen and
equal to what the public constructors build from the same fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, List, Optional, Tuple, Union

from repro.data.schema import AttributeRef, Catalog
from repro.errors import PredicateBindingError, UnsupportedQueryError


@dataclass(frozen=True, order=True, slots=True)
class Constant:
    """A literal value appearing in a select list or predicate."""

    value: Any

    def __str__(self) -> str:  # pragma: no cover - trivial
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


_set_constant_value = Constant.__dict__["value"].__set__


def trusted_constant(value: Any) -> Constant:
    """``Constant(value)``, built without the frozen ``__init__``."""
    constant = object.__new__(Constant)
    _set_constant_value(constant, value)
    return constant


SelectItem = Union[AttributeRef, Constant]
Operand = Union[AttributeRef, Constant]


@dataclass(frozen=True, slots=True)
class JoinPredicate:
    """An equi-join predicate ``left = right`` between two attribute refs."""

    left: AttributeRef
    right: AttributeRef

    def relations(self) -> FrozenSet[str]:
        """The relation names referenced by the predicate."""
        return frozenset((self.left.relation, self.right.relation))

    def references(self, relation: str) -> bool:
        """Whether the predicate mentions ``relation`` on either side."""
        return relation in (self.left.relation, self.right.relation)

    def side_for(self, relation: str) -> AttributeRef:
        """Return the side of the predicate that belongs to ``relation``."""
        if self.left.relation == relation:
            return self.left
        if self.right.relation == relation:
            return self.right
        raise PredicateBindingError(
            f"predicate {self} does not reference {relation!r}"
        )

    def other_side(self, relation: str) -> AttributeRef:
        """Return the side of the predicate that does *not* belong to ``relation``.

        For self-join predicates (both sides on the same relation) the right
        side is returned; the rewriting logic handles that case explicitly.
        """
        if self.left.relation == relation and self.right.relation != relation:
            return self.right
        if self.right.relation == relation and self.left.relation != relation:
            return self.left
        if self.left.relation == relation and self.right.relation == relation:
            return self.right
        raise PredicateBindingError(
            f"predicate {self} does not reference {relation!r}"
        )

    def normalized(self) -> "JoinPredicate":
        """Return an equivalent predicate with deterministically ordered sides."""
        if (self.right, self.left) < (self.left, self.right):
            return JoinPredicate(self.right, self.left)
        return self

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.left} = {self.right}"


@dataclass(frozen=True, slots=True)
class SelectionPredicate:
    """An equality selection ``attr = constant``."""

    attribute: AttributeRef
    value: Any

    def references(self, relation: str) -> bool:
        """Whether the selection applies to ``relation``."""
        return self.attribute.relation == relation

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.attribute} = {Constant(self.value)}"


_set_selection_attribute = SelectionPredicate.__dict__["attribute"].__set__
_set_selection_value = SelectionPredicate.__dict__["value"].__set__


def trusted_selection(attribute: AttributeRef, value: Any) -> SelectionPredicate:
    """``SelectionPredicate(attribute, value)``, built without the frozen
    ``__init__``."""
    selection = object.__new__(SelectionPredicate)
    _set_selection_attribute(selection, attribute)
    _set_selection_value(selection, value)
    return selection


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window specification of Section 5.

    ``mode`` is either ``"time"`` (window duration measured in simulation
    time units) or ``"tuples"`` (duration measured in published tuples, using
    the global publication sequence number as a logical clock: the engine
    numbers every publication, a count a deployed DHT would have to
    approximate and the simulation keeps exactly).
    """

    size: float
    mode: str = "time"

    VALID_MODES = ("time", "tuples")

    def __post_init__(self) -> None:
        if self.mode not in self.VALID_MODES:
            raise UnsupportedQueryError(
                f"unsupported window mode {self.mode!r}; expected one of "
                f"{self.VALID_MODES}"
            )
        if self.size <= 0:
            raise UnsupportedQueryError("window size must be positive")

    def clock_of(self, tup) -> float:
        """Return the window clock value of a tuple under this window mode."""
        if self.mode == "time":
            return tup.pub_time
        return float(tup.sequence)

    def __str__(self) -> str:  # pragma: no cover - trivial
        unit = "TIME" if self.mode == "time" else "TUPLES"
        size = int(self.size) if float(self.size).is_integer() else self.size
        return f"WINDOW {size} {unit}"


@dataclass(frozen=True, slots=True)
class Query:
    """An immutable (possibly rewritten) continuous equi-join query.

    ``relations`` lists the relations still to be joined.  Input queries have
    only attribute references in their select list; rewritten queries
    progressively replace them with :class:`Constant` values as tuples are
    consumed (Section 3).  A query whose ``relations`` and predicates are all
    consumed is *complete*: its where clause is equivalent to ``true`` and
    its select list contains only constants — an answer can be emitted.
    """

    select_items: Tuple[SelectItem, ...]
    relations: Tuple[str, ...]
    join_predicates: Tuple[JoinPredicate, ...] = ()
    selection_predicates: Tuple[SelectionPredicate, ...] = ()
    distinct: bool = False
    window: Optional[WindowSpec] = None

    def __post_init__(self) -> None:
        # A rewrite builds every child from tuples already: only other
        # sequences are copied.
        if type(self.select_items) is not tuple:
            object.__setattr__(self, "select_items", tuple(self.select_items))
        if type(self.relations) is not tuple:
            object.__setattr__(self, "relations", tuple(self.relations))
        if type(self.join_predicates) is not tuple:
            object.__setattr__(self, "join_predicates", tuple(self.join_predicates))
        if type(self.selection_predicates) is not tuple:
            object.__setattr__(
                self, "selection_predicates", tuple(self.selection_predicates)
            )
        if len(set(self.relations)) != len(self.relations):
            raise UnsupportedQueryError(
                "self-joins (a relation listed twice in FROM) are not supported"
            )

    # ------------------------------------------------------------------
    # structural accessors
    # ------------------------------------------------------------------
    @property
    def num_joins(self) -> int:
        """Number of join operators remaining in the query."""
        return len(self.join_predicates)

    @property
    def arity(self) -> int:
        """Number of relations that still need to contribute a tuple."""
        return len(self.relations)

    def is_complete(self) -> bool:
        """True when the where clause is equivalent to ``true``.

        A complete query has consumed every relation, has no remaining
        predicates, and its select list consists solely of constants; it
        corresponds to an answer of the original input query.
        """
        return (
            not self.relations
            and not self.join_predicates
            and not self.selection_predicates
            and all(isinstance(item, Constant) for item in self.select_items)
        )

    def references_relation(self, relation: str) -> bool:
        """Whether ``relation`` still appears in FROM."""
        return relation in self.relations

    def predicates(self) -> List[Union[JoinPredicate, SelectionPredicate]]:
        """All predicates (joins first, then selections)."""
        return list(self.join_predicates) + list(self.selection_predicates)

    def attribute_refs(self) -> List[AttributeRef]:
        """Every attribute reference appearing in the query, without duplicates."""
        refs: List[AttributeRef] = []
        seen = set()

        def _add(ref: AttributeRef) -> None:
            if ref not in seen:
                seen.add(ref)
                refs.append(ref)

        for item in self.select_items:
            if isinstance(item, AttributeRef):
                _add(item)
        for jp in self.join_predicates:
            _add(jp.left)
            _add(jp.right)
        for sp in self.selection_predicates:
            _add(sp.attribute)
        return refs

    def answer_values(self) -> Tuple[Any, ...]:
        """Return the constant select-list values of a *complete* query."""
        if not self.is_complete():
            raise UnsupportedQueryError(
                "answer_values() requires a complete (fully rewritten) query"
            )
        values = (item.value for item in self.select_items)  # type: ignore[union-attr]
        return tuple(values)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self, catalog: Optional[Catalog] = None) -> "Query":
        """Check structural well-formedness (and schema validity if a catalog is given).

        The checks implement the restrictions stated in Section 8: every
        predicate must reference relations listed in FROM, every relation
        must be reachable through the join graph (adjacent joins share a
        relation), and attribute references must exist in the catalog.
        """
        from_set = set(self.relations)
        for ref in self.attribute_refs():
            if ref.relation not in from_set:
                raise UnsupportedQueryError(
                    f"attribute {ref} references a relation missing from FROM"
                )
            if catalog is not None:
                catalog.validate_ref(ref)
        for jp in self.join_predicates:
            if jp.left.relation == jp.right.relation:
                raise UnsupportedQueryError(
                    f"self-join predicate {jp} is not supported"
                )
        if len(self.relations) > 1 and not self._join_graph_connected():
            raise UnsupportedQueryError(
                "the join graph must be connected (adjacent joins must share "
                "a relation)"
            )
        return self

    def _join_graph_connected(self) -> bool:
        """Return whether the relations form a connected join graph."""
        if not self.relations:
            return True
        adjacency = {rel: set() for rel in self.relations}
        for jp in self.join_predicates:
            if jp.left.relation in adjacency and jp.right.relation in adjacency:
                adjacency[jp.left.relation].add(jp.right.relation)
                adjacency[jp.right.relation].add(jp.left.relation)
        start = self.relations[0]
        seen = {start}
        stack = [start]
        while stack:
            rel = stack.pop()
            for neighbour in adjacency[rel]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        return len(seen) == len(self.relations)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def with_window(self, window: Optional[WindowSpec]) -> "Query":
        """Return a copy of the query with a different window specification."""
        return Query(
            select_items=self.select_items,
            relations=self.relations,
            join_predicates=self.join_predicates,
            selection_predicates=self.selection_predicates,
            distinct=self.distinct,
            window=window,
        )

    def __str__(self) -> str:  # pragma: no cover - delegated to formatter
        from repro.sql.formatter import format_query

        return format_query(self)


_set_query_select_items = Query.__dict__["select_items"].__set__
_set_query_relations = Query.__dict__["relations"].__set__
_set_query_join_predicates = Query.__dict__["join_predicates"].__set__
_set_query_selection_predicates = Query.__dict__["selection_predicates"].__set__
_set_query_distinct = Query.__dict__["distinct"].__set__
_set_query_window = Query.__dict__["window"].__set__


def trusted_query(
    select_items: Tuple[SelectItem, ...],
    relations: Tuple[str, ...],
    join_predicates: Tuple[JoinPredicate, ...],
    selection_predicates: Tuple[SelectionPredicate, ...],
    distinct: bool,
    window: Optional[WindowSpec],
) -> Query:
    """``Query(...)`` on fields that are tuples already and name each relation
    once, built without ``__init__`` and its checks."""
    query = object.__new__(Query)
    _set_query_select_items(query, select_items)
    _set_query_relations(query, relations)
    _set_query_join_predicates(query, join_predicates)
    _set_query_selection_predicates(query, selection_predicates)
    _set_query_distinct(query, distinct)
    _set_query_window(query, window)
    return query
