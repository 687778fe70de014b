"""Base message abstraction and routing envelope.

The RJoin protocol defines its own message types (``newTuple``, ``Eval``,
RIC requests, answers — see :mod:`repro.core.protocol`).  All of them derive
from :class:`Message`, which carries nothing but a monotonically increasing
message id for deterministic tie-breaking and debugging.

:class:`Envelope` wraps a message with the routing metadata attached by the
DHT messaging API: who sent it, the destination key/identifier or direct
address, the chosen route, and the simulated send/delivery times.  Envelopes
are what message handlers receive, so a handler can always know at which key
(and therefore at which *indexing level*) the payload arrived — Procedure 2
of the paper needs exactly this (``Level`` parameter).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.obs.trace import TraceContext

_MESSAGE_COUNTER = itertools.count(1)


@dataclass(slots=True)
class Message:
    """Base class for every protocol message."""

    message_id: int = field(default_factory=lambda: next(_MESSAGE_COUNTER), init=False)

    @property
    def kind(self) -> str:
        """A short, human-readable message kind (the class name)."""
        return type(self).__name__


@dataclass(slots=True)
class Envelope:
    """A message in flight, together with its routing metadata."""

    message: Message
    sender: str
    destination: str
    #: The identifier the message is for: what ``send`` routed it to, or what
    #: the sender of a direct envelope takes ``destination`` to own (``None``
    #: when it was sent to a plain address, as an answer to its owner is).
    target_identifier: Optional[int] = None
    route: Tuple[str, ...] = ()
    hops: int = 0
    sent_at: float = 0.0
    delivered_at: float = 0.0
    direct: bool = False
    #: Logical messages the envelope carries and its sender was charged for
    #: per hop (an answer envelope: one per answer; everything else: 1).
    weight: int = 1
    #: Trace propagation state (observability layer).  ``None`` unless the
    #: engine runs with ``observability="on"``; failover re-sends carry the
    #: original context so a re-routed answer stays in its trace.
    trace: Optional[TraceContext] = None

    @property
    def kind(self) -> str:
        """Kind of the wrapped message."""
        return self.message.kind

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "direct" if self.direct else f"{self.hops} hops"
        return (
            f"Envelope({self.kind} #{self.message.message_id} "
            f"{self.sender} -> {self.destination}, {mode})"
        )


def reset_message_counter() -> None:
    """Reset the global message id counter (used by tests for determinism)."""
    global _MESSAGE_COUNTER
    _MESSAGE_COUNTER = itertools.count(1)
