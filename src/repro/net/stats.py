"""Per-node network-traffic accounting.

The paper defines network traffic as "the number of messages that a node n
has to send.  This includes both the messages that n creates due to RJoin,
e.g. index a rewritten query to a new node, and also the messages that n has
to route due to the DHT routing protocols"; every message has weight 1
(Section 8).

:class:`TrafficStats` implements exactly this: every transmission (the
originating send plus one per intermediate routing hop) increments the
counter of the transmitting node.  Messages that belong to RIC-information
gathering (Section 6) are additionally counted in a separate bucket so that
the "Request RIC" series of Figures 2(a), 3(a), 4(a), 5(a), 6(a) and 7(a)
can be reported.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple


@dataclass
class NodeTraffic:
    """Message counters for a single node."""

    sent: int = 0          # messages originated by the node
    routed: int = 0        # messages forwarded on behalf of others
    ric_sent: int = 0      # subset of `sent` belonging to RIC gathering
    ric_routed: int = 0    # subset of `routed` belonging to RIC gathering

    @property
    def total(self) -> int:
        """Total transmissions charged to the node (paper's traffic metric)."""
        return self.sent + self.routed

    @property
    def ric_total(self) -> int:
        """Transmissions charged to the node for RIC-information gathering."""
        return self.ric_sent + self.ric_routed


class TrafficStats:
    """Network-wide traffic accounting, keyed by node address.

    The per-node counters are the only state; the network totals are their
    sums, taken when read.
    """

    def __init__(self) -> None:
        self._per_node: Dict[str, NodeTraffic] = defaultdict(NodeTraffic)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_send(self, address: str, is_ric: bool = False, count: int = 1) -> None:
        """Charge ``count`` originated messages to ``address``.

        Batch senders (``multiSend``) coalesce their accounting into a single
        call instead of one bookkeeping round-trip per message.
        """
        counters = self._per_node[address]
        counters.sent += count
        if is_ric:
            counters.ric_sent += count

    def record_route(self, address: str, is_ric: bool = False, count: int = 1) -> None:
        """Charge ``count`` routed (forwarded) messages to ``address``."""
        counters = self._per_node[address]
        counters.routed += count
        if is_ric:
            counters.ric_routed += count

    def record_path(
        self, sender: str, route: Iterable[str], is_ric: bool = False, count: int = 1
    ) -> int:
        """Charge a full routed transmission: the sender plus every forwarder.

        ``route`` is the node sequence visited by the message *excluding* the
        sender and *including* the final recipient; the recipient does not
        transmit, so it is not charged.  ``count`` logical messages sharing
        the route are charged ``count`` times.  Returns the number of
        transmissions charged (the hop count times ``count``).
        """
        route = list(route)
        self.record_send(sender, is_ric=is_ric, count=count)
        # Intermediate nodes (all but the final recipient) forward the message.
        for forwarder in route[:-1]:
            self.record_route(forwarder, is_ric=is_ric, count=count)
        return len(route) * count

    # ------------------------------------------------------------------
    # aggregate views
    # ------------------------------------------------------------------
    @property
    def total_messages(self) -> int:
        """Total number of transmissions in the whole network."""
        return sum(counters.total for counters in self._per_node.values())

    @property
    def total_ric_messages(self) -> int:
        """Total transmissions that belong to RIC-information gathering."""
        return sum(counters.ric_total for counters in self._per_node.values())

    def node(self, address: str) -> NodeTraffic:
        """Counters of a single node (zeroed counters for unknown nodes)."""
        return self._per_node[address]

    def per_node(self) -> Mapping[str, NodeTraffic]:
        """Mapping of node address to its counters."""
        return dict(self._per_node)

    def messages_per_node(self, num_nodes: int) -> float:
        """Average transmissions per node over a network of ``num_nodes``."""
        if num_nodes <= 0:
            return 0.0
        return self.total_messages / num_nodes

    def ric_messages_per_node(self, num_nodes: int) -> float:
        """Average RIC transmissions per node."""
        if num_nodes <= 0:
            return 0.0
        return self.total_ric_messages / num_nodes

    def snapshot(self) -> Tuple[int, int]:
        """Return ``(total_messages, total_ric_messages)`` for delta computation."""
        return self.total_messages, self.total_ric_messages
