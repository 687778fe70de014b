"""Fixture protocol vocabulary with seeded completeness gaps."""

from net.messages import Message


class HandledMessage(Message):
    """Dispatched and sent — fully compliant."""

    kind = "handled"


class RelayedMessage(Message):
    """Dispatched, and sent through a relay — compliant as well."""

    kind = "relayed"


class UnroutedMessage(Message):
    """VIOLATION: sent but never dispatched in RJoinNode.handle_envelope."""

    kind = "unrouted"


class UnsentMessage(Message):
    """VIOLATION: dispatched but never constructed next to a send call."""

    kind = "unsent"
