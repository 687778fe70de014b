"""What a transport was handed, held against what the traffic stats charged.

Section 8 charges every transmission: the send plus each routing hop, once
per logical message an envelope carries.  The messaging service charges
each primitive and hands each envelope to ``transport.post``, so over a run
Σ ``envelope.weight * envelope.hops`` of the posted envelopes equals
``TrafficStats.total_messages``.  An envelope posted without its charge, or
a charge without its envelope, breaks the equality, whichever handler or
engine operation did it.
"""

from __future__ import annotations


class PostedTraffic:
    """Adds up ``weight * hops`` over every envelope ``transport`` posts.

    Wraps the instance's ``post``, so it sees what the messaging service
    hands over and nothing else; build it before the first message is sent.
    """

    def __init__(self, transport) -> None:
        self.charged = 0
        post = transport.post

        def counting_post(envelope, delay):
            self.charged += envelope.weight * envelope.hops
            post(envelope, delay)

        transport.post = counting_post

    def assert_conserved(self, traffic) -> None:
        assert self.charged == traffic.total_messages, (
            f"posted envelopes carry {self.charged} transmissions, "
            f"the traffic stats charged {traffic.total_messages}"
        )
