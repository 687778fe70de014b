"""Published tuples.

A :class:`Tuple` is the unit of data insertion in the system (Section 2 of
the paper).  Relations are append-only, so tuples are immutable.  Every tuple
carries:

* the relation name and its values,
* ``pub_time`` — the publication time ``pubT(t)``: the simulation time at
  which the tuple was inserted into the network by some node,
* ``sequence`` — a global publication sequence number, used both as a stable
  identity for deduplication in local stores and as the logical clock for
  tuple-based sliding windows,
* ``publisher`` — the address of the node that published the tuple (used by
  the engine for accounting; the protocol itself only needs the values).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple as TupleT

from repro.data.schema import RelationSchema
from repro.errors import SchemaError


@dataclass(frozen=True, slots=True)
class Tuple:
    """An immutable published tuple of an append-only relation."""

    relation: str
    values: TupleT[Any, ...]
    pub_time: float = 0.0
    sequence: int = 0
    publisher: Optional[str] = None
    _schema: Optional[RelationSchema] = field(
        default=None, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if self._schema is not None and len(self.values) != self._schema.arity:
            raise SchemaError(
                f"tuple for relation {self.relation!r} has {len(self.values)} "
                f"values but the schema has arity {self._schema.arity}"
            )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_schema(
        cls,
        schema: RelationSchema,
        values: Sequence[Any],
        pub_time: float = 0.0,
        sequence: int = 0,
        publisher: Optional[str] = None,
    ) -> "Tuple":
        """Build a tuple validated against ``schema``."""
        return cls(
            relation=schema.name,
            values=tuple(values),
            pub_time=pub_time,
            sequence=sequence,
            publisher=publisher,
            _schema=schema,
        )

    # ------------------------------------------------------------------
    # value access
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        """Number of values carried by the tuple."""
        return len(self.values)

    def value_at(self, position: int) -> Any:
        """Return the value at 0-based ``position``."""
        return self.values[position]

    def value_of(self, attribute: str, schema: RelationSchema) -> Any:
        """Return the value of named ``attribute`` using ``schema`` positions."""
        return self.values[schema.position_of(attribute)]

    def as_dict(self, schema: RelationSchema) -> Dict[str, Any]:
        """Return ``{attribute_name: value}`` for this tuple."""
        if len(self.values) != schema.arity:
            raise SchemaError(
                f"tuple arity {len(self.values)} does not match schema "
                f"{schema.name!r} arity {schema.arity}"
            )
        return dict(zip(schema.attributes, self.values))

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def identity(self) -> TupleT[str, int]:
        """A stable identity used for local deduplication.

        Two physical copies of the same publication (e.g. a tuple received
        both at the attribute level and the value level by the same node)
        share the identity ``(relation, sequence)``.
        """
        return (self.relation, self.sequence)

    def __str__(self) -> str:  # pragma: no cover - trivial
        vals = ", ".join(repr(v) for v in self.values)
        return f"{self.relation}({vals})@{self.pub_time:g}"
