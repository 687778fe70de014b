"""Indexing keys for tuples and queries.

Section 3 of the paper distinguishes two indexing levels:

* **attribute level** — the concatenation of a relation name and an attribute
  name (``R + A``); input queries are indexed here, and every new tuple is
  sent here once per attribute so it can trigger waiting input queries,
* **value level** — the concatenation of a relation name, an attribute name
  and a value (``R + A + v``); rewritten queries are indexed here, and every
  new tuple is also sent (and stored) here once per attribute.

:class:`IndexKey` is the canonical representation of such a key.  Its
``text`` form is what gets hashed onto the identifier circle; a separator
that cannot appear in relation or attribute names prevents accidental
collisions between the concatenations (e.g. ``R + "AB"`` vs ``"RA" + B``).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.data.schema import AttributeRef, RelationSchema
from repro.data.tuples import Tuple

ATTRIBUTE_LEVEL = "attribute"
VALUE_LEVEL = "value"

_SEPARATOR = "\x1f"  # unit separator: never present in identifiers or values


@dataclass(frozen=True, order=True, slots=True)
class IndexKey:
    """A DHT indexing key at the attribute or value level."""

    relation: str
    attribute: str
    value: Optional[Any] = None
    #: Canonical string form, the input of ``Hash()``: built once per key,
    #: and no part of its identity (equal keys have equal texts).  Interned:
    #: every key, record and table entry naming one key holds one string.
    text: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        text = f"{self.relation}{_SEPARATOR}{self.attribute}"
        if self.value is not None:
            text = f"{text}{_SEPARATOR}{self.value!r}"
        object.__setattr__(self, "text", sys.intern(text))

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def level(self) -> str:
        """Either ``"attribute"`` or ``"value"``."""
        return ATTRIBUTE_LEVEL if self.value is None else VALUE_LEVEL

    @property
    def is_value_level(self) -> bool:
        """Whether this key carries a value component."""
        return self.value is not None

    @property
    def attribute_prefix(self) -> str:
        """The attribute-level prefix shared by all value keys of this pair."""
        return f"{self.relation}{_SEPARATOR}{self.attribute}{_SEPARATOR}"

    @property
    def attribute_ref(self) -> AttributeRef:
        """The relation-attribute pair as an :class:`AttributeRef`."""
        return AttributeRef(self.relation, self.attribute)

    def at_attribute_level(self) -> "IndexKey":
        """Return the attribute-level key for the same relation-attribute pair."""
        return IndexKey(self.relation, self.attribute)

    def __str__(self) -> str:  # pragma: no cover - trivial
        if self.value is None:
            return f"{self.relation}.{self.attribute}"
        return f"{self.relation}.{self.attribute}={self.value!r}"


def attribute_key(relation: str, attribute: str) -> IndexKey:
    """Build an attribute-level key (``R + A``)."""
    return IndexKey(relation, attribute)


def value_key(relation: str, attribute: str, value: Any) -> IndexKey:
    """Build a value-level key (``R + A + v``)."""
    return IndexKey(relation, attribute, value)


def attribute_prefix(relation: str, attribute: str) -> str:
    """Return the store prefix matching every value key of ``relation.attribute``."""
    return IndexKey(relation, attribute, 0).attribute_prefix


def tuple_index_keys(tup: Tuple, schema: RelationSchema) -> List[IndexKey]:
    """All keys a new tuple must be indexed under (Procedure 1).

    A tuple is indexed twice per attribute: once at the attribute level and
    once at the value level, so it reaches every input query indexed under
    any of its relation-attribute pairs and can wait (stored at the value
    level) for rewritten queries that will need its values later.
    """
    keys: List[IndexKey] = []
    for attribute in schema.attributes:
        value = tup.value_of(attribute, schema)
        keys.append(attribute_key(tup.relation, attribute))
        keys.append(value_key(tup.relation, attribute, value))
    return keys
