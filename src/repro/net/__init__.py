"""Network runtimes: the transport contract and its implementations.

The paper's evaluation runs many Chord nodes inside a single process and
measures message counts, query-processing load and storage load (Section 8).
This subpackage provides the node↔network boundary used for that purpose:

* :class:`~repro.net.runtime.Transport` — the runtime contract (delivery,
  in-flight surgery, timers, clock + drain loop) and the one base both
  runtimes extend: it owns the clock and the timer heap, with
  :func:`~repro.net.runtime.make_transport` as the registry factory,
* :class:`~repro.net.simulator.SimulationKernel` — the ``sim`` runtime: the
  deterministic discrete-event kernel, where a posted envelope is a bare
  heap entry beside the timers (the test/oracle harness),
* :class:`~repro.net.runtime_asyncio.AsyncioTransport` — the concurrent
  runtime: one actor task per address, bounded inboxes, backpressure,
* :class:`~repro.net.messages.Message` / :class:`~repro.net.messages.Envelope`
  — the base message abstraction and its routing metadata,
* :class:`~repro.net.stats.TrafficStats` — per-node accounting of messages
  sent and routed (the paper's definition of network traffic).

The model follows the relaxed asynchronous system model of Section 2: there
is a known upper bound on message transmission delay; a message sent at time
``t`` over ``h`` hops is delivered at ``t + h * hop_delay`` (logical time on
the concurrent runtime).
"""

from repro.net.messages import Envelope, Message
from repro.net.runtime import (
    DEFAULT_TRANSPORT,
    TRANSPORT_NAMES,
    EventHandle,
    Transport,
    make_transport,
)
from repro.net.simulator import SimulationKernel
from repro.net.stats import TrafficStats

__all__ = [
    "DEFAULT_TRANSPORT",
    "Envelope",
    "EventHandle",
    "Message",
    "SimulationKernel",
    "TRANSPORT_NAMES",
    "TrafficStats",
    "Transport",
    "make_transport",
]
