"""Relation schemas and the schema catalog.

The experimental setup of the paper uses a catalog of 10 relations with 10
attributes each, every attribute drawing values from a domain of 100 values
(Section 8).  The classes here are deliberately small and explicit: a
:class:`RelationSchema` is a named, ordered list of attribute names, and a
:class:`Catalog` is a mapping from relation names to schemas.  Different
schemas may co-exist; schema mappings are not supported (as in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple as TupleT

from repro.errors import (
    SchemaError,
    UnknownAttributeError,
    UnknownRelationError,
)


@dataclass(frozen=True, order=True, slots=True)
class AttributeRef:
    """A reference to an attribute of a relation, e.g. ``R.A``.

    Attribute references appear in select lists and in equi-join / selection
    predicates of the supported SQL subset.  They are immutable and ordered
    so that they can be used as dictionary keys and sorted deterministically
    (important for reproducible query plans).
    """

    relation: str
    attribute: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.relation}.{self.attribute}"


class RelationSchema:
    """The schema of a single relation: a name and ordered attribute names.

    Parameters
    ----------
    name:
        Relation name (e.g. ``"R"``).
    attributes:
        Ordered attribute names.  Names must be unique within the relation.
    """

    __slots__ = ("name", "attributes", "_positions")

    def __init__(self, name: str, attributes: Sequence[str]) -> None:
        if not name:
            raise SchemaError("relation name must be a non-empty string")
        attrs = list(attributes)
        if not attrs:
            raise SchemaError(f"relation {name!r} must have at least one attribute")
        if len(set(attrs)) != len(attrs):
            raise SchemaError(f"relation {name!r} has duplicate attribute names")
        self.name = name
        self.attributes: TupleT[str, ...] = tuple(attrs)
        self._positions: Dict[str, int] = {a: i for i, a in enumerate(attrs)}

    @property
    def arity(self) -> int:
        """Number of attributes of the relation."""
        return len(self.attributes)

    def has_attribute(self, attribute: str) -> bool:
        """Return ``True`` when ``attribute`` belongs to this relation."""
        return attribute in self._positions

    def position_of(self, attribute: str) -> int:
        """Return the 0-based position of ``attribute`` in the schema."""
        try:
            return self._positions[attribute]
        except KeyError:
            raise UnknownAttributeError(
                f"relation {self.name!r} has no attribute {attribute!r}"
            ) from None

    def attribute_refs(self) -> List[AttributeRef]:
        """Return an :class:`AttributeRef` for every attribute, in order."""
        return [AttributeRef(self.name, a) for a in self.attributes]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationSchema):
            return NotImplemented
        return self.name == other.name and self.attributes == other.attributes

    def __hash__(self) -> int:
        return hash((self.name, self.attributes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(self.attributes)
        return f"RelationSchema({self.name}({cols}))"


@dataclass
class Catalog:
    """A collection of relation schemas known to the network.

    The catalog is purely a client-side convenience: RJoin itself never needs
    global schema knowledge because every message carries the relation and
    attribute names it refers to.  The catalog is used by the SQL parser (to
    validate attribute references), by the workload generator and by the
    reference engine.
    """

    _schemas: Dict[str, RelationSchema] = field(default_factory=dict)

    def add(self, schema: RelationSchema) -> RelationSchema:
        """Register ``schema``; replacing an identical schema is a no-op."""
        existing = self._schemas.get(schema.name)
        if existing is not None and existing != schema:
            raise SchemaError(
                f"relation {schema.name!r} already registered with a different schema"
            )
        self._schemas[schema.name] = schema
        return schema

    def add_relation(self, name: str, attributes: Sequence[str]) -> RelationSchema:
        """Create and register a :class:`RelationSchema` in one call."""
        return self.add(RelationSchema(name, attributes))

    def get(self, name: str) -> RelationSchema:
        """Return the schema of relation ``name`` or raise."""
        try:
            return self._schemas[name]
        except KeyError:
            raise UnknownRelationError(f"unknown relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._schemas

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self._schemas.values())

    def __len__(self) -> int:
        return len(self._schemas)

    def relation_names(self) -> List[str]:
        """Return the names of all registered relations, in insertion order."""
        return list(self._schemas.keys())

    def validate_ref(self, ref: AttributeRef) -> AttributeRef:
        """Check that ``ref`` names an existing relation attribute."""
        schema = self.get(ref.relation)
        if not schema.has_attribute(ref.attribute):
            raise UnknownAttributeError(
                f"relation {ref.relation!r} has no attribute {ref.attribute!r}"
            )
        return ref

    @classmethod
    def uniform(
        cls,
        num_relations: int,
        attributes_per_relation: int,
        relation_prefix: str = "R",
        attribute_prefix: str = "a",
    ) -> "Catalog":
        """Build the uniform catalog used in the paper's experiments.

        The paper uses a schema of 10 relations, each with 10 attributes
        (Section 8).  Relations are named ``R0 .. R9`` and attributes
        ``a0 .. a9`` by default.
        """
        if num_relations <= 0 or attributes_per_relation <= 0:
            raise SchemaError("catalog dimensions must be positive")
        catalog = cls()
        for r in range(num_relations):
            attrs = [f"{attribute_prefix}{i}" for i in range(attributes_per_relation)]
            catalog.add_relation(f"{relation_prefix}{r}", attrs)
        return catalog


def ensure_catalog(
    catalog: Optional[Catalog], schemas: Iterable[RelationSchema] = ()
) -> Catalog:
    """Return ``catalog`` or a fresh one populated with ``schemas``."""
    if catalog is None:
        catalog = Catalog()
    for schema in schemas:
        catalog.add(schema)
    return catalog
