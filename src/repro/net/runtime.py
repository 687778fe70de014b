"""The transport-neutral node runtime contract.

Historically the discrete-event :class:`~repro.net.simulator.SimulationKernel`
*was* the architecture: the messaging API scheduled deliveries on it directly
and the engine drained it between publications.  This module extracts the
boundary the messaging layer actually needs into an explicit contract —
:class:`Transport` — so the deterministic kernel becomes one runtime among
several instead of the only one:

* ``sim`` (:class:`~repro.net.simulator.SimTransport`) — the discrete-event
  kernel, byte-identical to the historical behaviour.  Fully deterministic;
  the test/oracle harness.
* ``asyncio`` (:class:`~repro.net.runtime_asyncio.AsyncioTransport`) — a
  genuinely concurrent runtime where every registered address runs as an
  actor task with a bounded inbox queue and backpressure-aware sends.

A transport owns four responsibilities:

1. **delivery** — :meth:`Transport.post` accepts an in-flight
   :class:`~repro.net.messages.Envelope` and eventually hands it to the
   delivery callback installed with :meth:`Transport.bind` (the messaging
   layer's ``_deliver``, which looks up the destination handler and counts
   drops),
2. **in-flight surgery** — :meth:`Transport.extract_inbound` takes the
   undelivered messages addressed to one node off the network (a crash
   loses them, owner failover re-routes some),
3. **timers** — :meth:`Transport.schedule_at` / :meth:`Transport.schedule_in`
   run a callback at a (logical) time and return an
   :class:`EventHandle`-shaped handle that supports cancellation,
4. **the clock and the drain loop** — :attr:`Transport.now`,
   :meth:`Transport.advance_to` and :meth:`Transport.drain`, which runs the
   network to quiescence (every posted message delivered or destroyed, every
   due timer fired).

:class:`EventHandle` (and the heap entry it wraps) lives here because both
runtimes use the same timer representation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.net.messages import Envelope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.simulator import SimulationKernel

#: Signature of the delivery callback installed with :meth:`Transport.bind`.
DeliverCallback = Callable[[Envelope], None]

#: Registered runtime names accepted by :func:`make_transport` (and by
#: ``RJoinConfig.runtime``).
TRANSPORT_NAMES: Tuple[str, ...] = ("sim", "asyncio")

#: The runtime used when no explicit choice is made.
DEFAULT_TRANSPORT = "sim"


@dataclass(slots=True)
class _ScheduledEvent:
    """A scheduled callback and whether it was cancelled or has fired."""

    time: float
    callback: Callable[..., None]
    args: Tuple[Any, ...] = ()
    cancelled: bool = False
    fired: bool = False


#: Timer-heap entry of both runtimes: ``(time, sequence, event)``.  The
#: sequence number is unique per scheduler, so entries order as plain tuples
#: by time, then insertion, and the event itself is never compared.
_HeapEntry = Tuple[float, int, _ScheduledEvent]


class EventHandle:
    """Handle for a scheduled timer, allows cancellation.

    Returned by :meth:`Transport.schedule_at` / :meth:`Transport.schedule_in`
    on every runtime (and by ``SimulationKernel.schedule_at`` directly).  The
    ``owner`` is whichever scheduler maintains the live-event ledger — the
    simulation kernel or the asyncio transport.
    """

    __slots__ = ("_event", "_owner")

    def __init__(self, event: _ScheduledEvent, owner: "_TimerLedger") -> None:
        self._event = event
        self._owner = owner

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        event = self._event
        if event.fired or event.cancelled:
            return
        event.cancelled = True
        self._owner._live_events -= 1

    @property
    def time(self) -> float:
        """(Logical) time at which the event is scheduled."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        """Whether the event has been cancelled."""
        return self._event.cancelled


class _TimerLedger:
    """Structural base for schedulers that own an :class:`EventHandle` ledger."""

    _live_events: int = 0


class Transport(ABC, _TimerLedger):
    """The node ↔ network boundary every runtime implements.

    The messaging layer (:class:`repro.dht.api.DHTMessagingService`)
    programs exclusively against this contract; the engine drives the drain
    loop and the clock through it.  Implementations must guarantee:

    * **at-most-once delivery** — every posted envelope reaches the bound
      delivery callback at most once; cancelled or extracted envelopes never
      do,
    * **loss-free drain** — :meth:`drain` returns only when every posted
      message has been delivered, cancelled or extracted, and no due timer
      remains,
    * **monotonic clock** — :attr:`now` never moves backwards; a delivered
      envelope's ``delivered_at`` never exceeds the clock observed by its
      handler.
    """

    #: Registry name of the runtime (``sim`` / ``asyncio``).
    name: str = "abstract"

    #: Whether spans opened on this runtime should carry wall-clock service
    #: times.  The observability layer reads this when the engine builds its
    #: tracer: logical-clock-only on deterministic runtimes (wall time would
    #: break byte-identical reruns), wall-clock-enabled on concurrent ones.
    wall_clock_spans: bool = False

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    @abstractmethod
    def bind(self, deliver: DeliverCallback) -> None:
        """Install the delivery callback every posted envelope is handed to."""

    @abstractmethod
    def register_address(self, address: str) -> None:
        """Declare a deliverable address (the asyncio runtime spawns its actor)."""

    @abstractmethod
    def unregister_address(self, address: str) -> None:
        """Forget an address; envelopes still posted to it are delivered to
        the bound callback, which counts them as dropped (no handler)."""

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def now(self) -> float:
        """Current logical time."""

    @abstractmethod
    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time`` without processing anything."""

    @abstractmethod
    def advance_by(self, delta: float) -> None:
        """Move the clock forward by ``delta`` time units."""

    # ------------------------------------------------------------------
    # message delivery
    # ------------------------------------------------------------------
    @abstractmethod
    def post(self, envelope: Envelope, delay: float) -> None:
        """Accept ``envelope`` for delivery ``delay`` logical time units from
        now (to ``envelope.destination``)."""

    @abstractmethod
    def extract_inbound(self, address: str) -> List[Envelope]:
        """Take every undelivered envelope addressed to ``address`` off the
        network and return them in posting order (an abrupt crash loses
        them, owner failover re-routes them)."""

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    @abstractmethod
    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute logical ``time``."""

    @abstractmethod
    def schedule_in(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` logical time units."""

    # ------------------------------------------------------------------
    # drain / shutdown
    # ------------------------------------------------------------------
    @abstractmethod
    def drain(self, max_events: Optional[int] = None) -> int:
        """Run until quiescent; returns the number of events processed.

        ``max_events`` guards against runaway cascades: exceeding it raises
        :class:`~repro.errors.SimulationError`.  Not re-entrant.
        """

    @property
    @abstractmethod
    def is_draining(self) -> bool:
        """Whether a drain loop is currently executing."""

    @property
    @abstractmethod
    def pending_events(self) -> int:
        """Undelivered messages plus uncancelled pending timers."""

    @property
    @abstractmethod
    def events_processed(self) -> int:
        """Total deliveries and timer firings since construction."""

    @abstractmethod
    def shutdown(self) -> None:
        """Drain outstanding work, stop every actor and release resources.

        Idempotent; after shutdown the transport accepts no further posts.
        """

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def kernel(self) -> Optional["SimulationKernel"]:
        """The underlying simulation kernel, when this runtime has one.

        Only the ``sim`` transport exposes a kernel; concurrent runtimes
        return ``None``.  Callers needing deterministic event surgery should
        check for ``None`` (or ask the engine, which raises a descriptive
        error instead).
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(now={self.now:g}, "
            f"pending={self.pending_events})"
        )


def make_transport(name: str = DEFAULT_TRANSPORT) -> Transport:
    """Build a runtime transport by registry name (``sim`` / ``asyncio``).

    Implementations are imported lazily so that selecting the deterministic
    kernel never pays for the concurrent runtime's machinery (and vice
    versa).
    """
    if name == "sim":
        from repro.net.simulator import SimTransport

        return SimTransport()
    if name == "asyncio":
        from repro.net.runtime_asyncio import AsyncioTransport

        return AsyncioTransport()
    known = ", ".join(TRANSPORT_NAMES)
    raise ConfigurationError(f"unknown runtime {name!r}; known runtimes: {known}")


def ensure_not_reentrant(transport: Transport) -> None:
    """Raise when a drain is started while one is already executing."""
    if transport.is_draining:
        raise SimulationError("drain() is not re-entrant")
