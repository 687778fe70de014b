"""Consistent hashing and identifier-circle arithmetic.

Chord assigns both nodes and items m-bit identifiers produced by a
cryptographic hash function, ordered on an identifier circle modulo ``2^m``
(Section 2 of the paper).  :class:`IdentifierSpace` encapsulates the circle:
hashing keys to identifiers, clockwise distance, and circular interval
membership — the three operations everything else is built on.

The default space uses 64 bits (SHA-1 truncated), which is collision-free in
practice for the simulated network sizes while keeping identifiers cheap
Python ints.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional

from repro.errors import ConfigurationError

DEFAULT_BITS = 64


_HASH_CACHE_LIMIT = 1 << 20  # identifiers memoised per space before a reset


class IdentifierSpace:
    """An m-bit circular identifier space with consistent hashing."""

    __slots__ = ("bits", "size", "_hash_cache")

    def __init__(self, bits: int = DEFAULT_BITS) -> None:
        if bits <= 0 or bits > 160:
            raise ConfigurationError("identifier space must use between 1 and 160 bits")
        self.bits = bits
        self.size = 1 << bits
        self._hash_cache: dict = {}

    # ------------------------------------------------------------------
    # hashing
    # ------------------------------------------------------------------
    def hash_key(self, key: str) -> int:
        """Map a string key to an identifier via SHA-1 (truncated to m bits).

        Identifiers are memoised: the same indexing keys are hashed over and
        over (once per publication per attribute), and consistent hashing is
        pure, so a bounded cache turns the digest into a dict lookup.
        """
        identifier = self._hash_cache.get(key)
        if identifier is None:
            digest = hashlib.sha1(key.encode("utf-8")).digest()
            identifier = int.from_bytes(digest, "big") % self.size
            if len(self._hash_cache) >= _HASH_CACHE_LIMIT:
                self._hash_cache.clear()
            self._hash_cache[key] = identifier
        return identifier

    def random_identifier(self, rng: Optional[random.Random] = None) -> int:
        """Draw a uniformly random identifier (used for node placement)."""
        rng = rng or random
        return rng.randrange(self.size)

    # ------------------------------------------------------------------
    # circle arithmetic
    # ------------------------------------------------------------------
    def normalize(self, identifier: int) -> int:
        """Reduce ``identifier`` modulo the size of the space."""
        return identifier % self.size

    def distance(self, start: int, end: int) -> int:
        """Clockwise distance from ``start`` to ``end`` on the circle."""
        return (end - start) % self.size

    def in_interval(
        self,
        identifier: int,
        start: int,
        end: int,
        inclusive_start: bool = False,
        inclusive_end: bool = True,
    ) -> bool:
        """Whether ``identifier`` lies in the circular interval from ``start`` to ``end``.

        The default bounds ``(start, end]`` match the Chord ownership rule: a
        key ``k`` belongs to the first node whose identifier is equal to or
        follows ``k`` clockwise, i.e. node ``n`` owns keys in
        ``(predecessor(n), n]``.
        """
        identifier = self.normalize(identifier)
        start = self.normalize(start)
        end = self.normalize(end)
        if start == end:
            # The interval covers the whole circle (minus the endpoints,
            # depending on inclusivity).
            if identifier == start:
                return inclusive_start or inclusive_end
            return True
        d_end = self.distance(start, end)
        d_id = self.distance(start, identifier)
        if identifier == start:
            return inclusive_start
        if identifier == end:
            return inclusive_end
        return 0 < d_id < d_end

    def midpoint(self, start: int, end: int) -> int:
        """Identifier halfway along the clockwise arc from ``start`` to ``end``."""
        return self.normalize(start + self.distance(start, end) // 2)

    def power_step(self, identifier: int, exponent: int) -> int:
        """Return ``identifier + 2^exponent`` on the circle (finger targets)."""
        if exponent < 0 or exponent >= self.bits:
            raise ConfigurationError(
                f"finger exponent must be in [0, {self.bits}); got {exponent}"
            )
        return self.normalize(identifier + (1 << exponent))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IdentifierSpace):
            return NotImplemented
        return self.bits == other.bits

    def __hash__(self) -> int:
        return hash(("IdentifierSpace", self.bits))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IdentifierSpace(bits={self.bits})"
