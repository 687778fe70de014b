"""Indexing-candidate enumeration and indexing strategies (Section 6).

Where a query waits for tuples determines how much traffic and processing its
continuous evaluation costs.  RJoin enumerates the legal indexing candidates
of a query and chooses among them based on the predicted rate of incoming
tuples:

* **input queries** may be indexed under any relation-attribute pair that
  appears in their where clause (attribute level),
* **rewritten queries** may be indexed under (a) relation-attribute pairs of
  their remaining join conditions, (b) relation-attribute-value triples of
  their explicit selections, and (c) triples implied by the where clause
  (value level).

Four strategies are provided, matching the variants evaluated in Figure 2:

* :class:`RJoinStrategy` — pick the candidate with the *lowest* predicted
  rate (ties prefer value-level keys, which always see a subset of the
  corresponding attribute-level traffic),
* :class:`RandomStrategy` — pick uniformly at random,
* :class:`WorstStrategy` — pick the candidate with the *highest* rate (the
  paper's worst-case variation; it consults a simulation-level oracle instead
  of issuing RIC traffic, so the "Request RIC" series applies to RJoin only),
* :class:`FirstCandidateStrategy` — pick the first candidate in where-clause
  order (the naive behaviour described before Section 6).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.core.keys import IndexKey, attribute_key, trusted_key
from repro.data.schema import AttributeRef
from repro.errors import ConfigurationError
from repro.sql.ast import Query
from repro.sql.predicates import equality_closure


# ---------------------------------------------------------------------------
# candidate enumeration
# ---------------------------------------------------------------------------
def _attribute_keys(refs: Iterable[AttributeRef]) -> List[IndexKey]:
    """One attribute-level key per distinct reference, in order of appearance."""
    return [attribute_key(ref.relation, ref.attribute) for ref in dict.fromkeys(refs)]


def _join_sides(query: Query) -> List[AttributeRef]:
    return [side for jp in query.join_predicates for side in (jp.left, jp.right)]


def input_query_candidates(query: Query) -> List[IndexKey]:
    """Attribute-level candidates of an input query.

    Every ``RelName.AttName`` expression in the where clause is a legal
    choice; when the query has no where clause at all (single-relation scan)
    the select-list attributes are used instead so that the query still meets
    every tuple of its relation.
    """
    refs = _join_sides(query) + [sp.attribute for sp in query.selection_predicates]
    if not refs:
        refs = [item for item in query.select_items if isinstance(item, AttributeRef)]
    return _attribute_keys(refs)


class CandidatePlan:
    """The Section 6 candidates of every rewritten query of one shape.

    Which relation-attribute pairs carry a value-level candidate, in which
    order, and which stated selections each takes its value from are fixed by
    the query with its constants blanked (the
    :func:`~repro.core.rewriting.shape_key` shape): the equality closure of
    the where clause is worked out here, once, and :meth:`apply` reads a
    query's constants through selection indexes.  No constant is hashed.
    Every live rewrite a :class:`~repro.core.rewriting.TriggerPlan` produces
    has the plan's ``child_shape``, which keeps their one candidate plan
    (:meth:`~repro.core.rewriting.QueryShape.candidate_plan`).
    """

    __slots__ = ("values", "dedupe", "joins", "fallback")

    def __init__(self, query: Query) -> None:
        relations = query.relations
        stated = query.selection_predicates
        #: ``(relation, attribute, selection indexes)`` per value-level
        #: candidate: explicit selections first (family (b), one index), then
        #: per closure class the attributes that inherit the class's constant
        #: (family (c)) — read from the first index, and a candidate only
        #: while the constants at all of them agree.
        values: List[Tuple[str, str, Tuple[int, ...]]] = [
            (sp.attribute.relation, sp.attribute.attribute, (index,))
            for index, sp in enumerate(stated)
            if sp.attribute.relation in relations
        ]
        last_stated = {sp.attribute: index for index, sp in enumerate(stated)}
        for group in equality_closure(query):
            members = sorted(group)
            sources = tuple(
                sorted(last_stated[ref] for ref in members if ref in last_stated)
            )
            if not sources:
                continue
            values += [
                (ref.relation, ref.attribute, sources)
                for ref in members
                if ref not in last_stated and ref.relation in relations
            ]
        self.values = tuple(values)
        #: An attribute is stated twice: equal constants give one key.
        self.dedupe = len(last_stated) < len(stated)
        #: Attribute-level candidates (family (a)): the join attributes.
        self.joins = tuple(_attribute_keys(_join_sides(query)))
        #: Degenerate queries (no usable selection, and no join or
        #: attribute-level keys disallowed) wait under any of their
        #: attributes so that they can still be indexed somewhere.
        self.fallback = tuple(
            _attribute_keys(
                ref
                for ref in query.attribute_refs()
                if ref.relation in relations and not values
            )
        )

    def apply(
        self, query: Query, allow_attribute_level: bool = True
    ) -> Tuple[IndexKey, ...]:
        """The candidates of ``query`` (of this plan's shape), in Section 6 order.

        A tuple: equal rewrites share one (``RewriteResult.candidates``), so
        no indexing decision may change it.
        """
        stated = query.selection_predicates
        keys: List[IndexKey] = []
        for relation, attribute, sources in self.values:
            value = stated[sources[0]].value
            if len(sources) > 1 and any(
                stated[index].value != value for index in sources[1:]
            ):
                continue  # contradictory constants imply nothing
            keys.append(trusted_key(relation, attribute, value))
        if self.dedupe:
            first_by_text: Dict[str, IndexKey] = {}
            for key in keys:
                first_by_text.setdefault(key.text, key)
            keys = list(first_by_text.values())
        if allow_attribute_level:
            keys.extend(self.joins)
        return tuple(keys) or self.fallback


def rewritten_query_candidates(
    query: Query, allow_attribute_level: bool = True
) -> List[IndexKey]:
    """Candidates of a rewritten query: families (b), (c) and optionally (a).

    Value-level candidates come first (explicit selections, then implied
    ones), followed by attribute-level join pairs when
    ``allow_attribute_level`` is set.  The order defines the behaviour of
    :class:`FirstCandidateStrategy` and the deterministic tie-breaking of the
    rate-based strategies.
    """
    return list(CandidatePlan(query).apply(query, allow_attribute_level))


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
class IndexingStrategy(ABC):
    """Decides under which candidate key a (rewritten) query is indexed."""

    #: Whether the strategy needs distributed RIC collection (extra messages).
    requires_ric: bool = False
    #: Whether the strategy consults the simulation-level rate oracle.
    uses_oracle: bool = False
    #: Short name used in configurations and reports.
    name: str = "strategy"

    @abstractmethod
    def choose(
        self,
        candidates: Sequence[IndexKey],
        rates: Mapping[str, float],
        rng: random.Random,
    ) -> IndexKey:
        """Pick one candidate.  ``rates`` maps key text to the observed rate."""

    def worth_asking(
        self, candidates: Sequence[IndexKey], rates: Mapping[str, float]
    ) -> List[IndexKey]:
        """The candidates ``rates`` does not know whose rate could change what
        :meth:`choose` returns: each of them, for all this class can tell."""
        return [key for key in candidates if key.text not in rates]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


def _rate_of(key: IndexKey, rates: Mapping[str, float]) -> float:
    return rates.get(key.text, 0.0)


def _tie_break(key: IndexKey) -> tuple:
    """Deterministic tie-break: prefer value-level keys, then lexicographic order."""
    return (0 if key.is_value_level else 1, key.text)


class RJoinStrategy(IndexingStrategy):
    """Index where the predicted tuple rate is lowest (the paper's choice)."""

    requires_ric = True
    name = "rjoin"

    def choose(
        self,
        candidates: Sequence[IndexKey],
        rates: Mapping[str, float],
        rng: random.Random,
    ) -> IndexKey:
        if not candidates:
            raise ConfigurationError("cannot choose among zero candidates")
        return min(candidates, key=lambda key: (_rate_of(key, rates), _tie_break(key)))

    def worth_asking(
        self, candidates: Sequence[IndexKey], rates: Mapping[str, float]
    ) -> List[IndexKey]:
        """Section 6 asks *so that a choice can be made*: a rate is a count,
        never below zero, and :meth:`choose` takes the lowest ``(rate,
        tie-break)``.  So a lone candidate is chosen whatever its rate, and a
        known one at 0.0 is beaten only by an unknown one that ties it and
        breaks the tie its way; the rest need no question — left out of
        ``rates`` they count as 0.0 in :meth:`choose` and lose that tie.
        """
        if len(candidates) < 2:
            return []
        unknown = super().worth_asking(candidates, rates)
        known = [key for key in candidates if key.text in rates]
        if not known or not unknown:
            return unknown
        best = min(known, key=lambda key: (rates[key.text], _tie_break(key)))
        if rates[best.text] > 0.0:
            return unknown
        bar = _tie_break(best)
        return [key for key in unknown if _tie_break(key) < bar]


class WorstStrategy(IndexingStrategy):
    """Always make the worst possible choice (highest rate) — Figure 2 baseline."""

    uses_oracle = True
    name = "worst"

    def choose(
        self,
        candidates: Sequence[IndexKey],
        rates: Mapping[str, float],
        rng: random.Random,
    ) -> IndexKey:
        if not candidates:
            raise ConfigurationError("cannot choose among zero candidates")
        return max(
            candidates,
            key=lambda key: (
                _rate_of(key, rates),
                0 if not key.is_value_level else -1,
                key.text,
            ),
        )


class RandomStrategy(IndexingStrategy):
    """Choose uniformly at random among the candidates — Figure 2 baseline."""

    name = "random"

    def choose(
        self,
        candidates: Sequence[IndexKey],
        rates: Mapping[str, float],
        rng: random.Random,
    ) -> IndexKey:
        if not candidates:
            raise ConfigurationError("cannot choose among zero candidates")
        return rng.choice(list(candidates))


class FirstCandidateStrategy(IndexingStrategy):
    """Choose the first candidate in where-clause order (naive Section 3 behaviour)."""

    name = "first"

    def choose(
        self,
        candidates: Sequence[IndexKey],
        rates: Mapping[str, float],
        rng: random.Random,
    ) -> IndexKey:
        if not candidates:
            raise ConfigurationError("cannot choose among zero candidates")
        return candidates[0]


_STRATEGIES = {
    "rjoin": RJoinStrategy,
    "worst": WorstStrategy,
    "random": RandomStrategy,
    "first": FirstCandidateStrategy,
}


def make_strategy(name: str) -> IndexingStrategy:
    """Instantiate a strategy by name (``rjoin``, ``worst``, ``random``, ``first``)."""
    try:
        return _STRATEGIES[name.lower()]()
    except KeyError:
        raise ConfigurationError(
            f"unknown indexing strategy {name!r}; expected one of "
            f"{sorted(_STRATEGIES)}"
        ) from None


def available_strategies() -> List[str]:
    """Names of all registered strategies."""
    return sorted(_STRATEGIES)
