"""The deterministic ``sim`` runtime: the discrete-event kernel is the transport.

Every interaction in the simulated network — a message delivery, a timer, a
garbage-collection sweep — is an *event*: a callback on the heap the
:class:`~repro.net.runtime.Transport` base owns.  The kernel pops events in
time order (ties broken by insertion order, which keeps runs fully
deterministic for a fixed seed) and advances the global clock.

The kernel is deliberately minimal: it knows nothing about Chord or RJoin.
A posted envelope is one more heap event whose callback is the bound
delivery callback, so the DHT messaging API (:mod:`repro.dht.api`) programs
against the same contract as on the concurrent runtime, and the engine
(:mod:`repro.core.engine`) drains it between tuple publications.  This is
the test/oracle harness: two runs with the same seed take the same decisions
in the same order.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.net.messages import Envelope
from repro.net.runtime import Transport, _HeapEntry


class SimulationKernel(Transport):
    """Deterministic discrete-event scheduler with a floating-point clock.

    The ``sim`` runtime: deliveries are heap events ``delay`` time units out
    and fire in (time, insertion) order among the timers.  In-flight surgery
    is predicate-based event cancellation (:meth:`extract_where`).
    """

    name = "sim"

    #: Spans stay logical-clock-only here: wall time in a trace would make
    #: two reruns of the same seed produce different trace files.
    wall_clock_spans = False

    # ------------------------------------------------------------------
    # message delivery
    # ------------------------------------------------------------------
    def post(self, envelope: Envelope, delay: float) -> None:
        """Push the envelope's delivery event ``delay`` time units out."""
        deliver = self._deliver
        if deliver is None:
            raise SimulationError(
                "no delivery callback bound; call bind() before post()"
            )
        self.push(self._now + delay, deliver, (envelope,))

    def extract_inbound(self, address: str) -> List[Envelope]:
        """Take the undelivered messages addressed to ``address`` off the heap."""
        # Bound-method comparison must use ``==``: every attribute access on
        # the messaging service creates a fresh bound-method object, so a
        # rebinding caller would defeat an ``is`` check.
        deliver = self._deliver
        pending = self.extract_where(
            lambda callback, args: callback == deliver
            and bool(args)
            and args[0].destination == address
        )
        return [args[0] for args in pending]

    # ------------------------------------------------------------------
    # event surgery
    # ------------------------------------------------------------------
    def extract_where(
        self, predicate: Callable[[Callable[..., None], Tuple[Any, ...]], bool]
    ) -> List[Tuple[Any, ...]]:
        """Cancel matching pending events and return their argument tuples.

        Models what a crash does to messages still in flight towards the
        dead address: their delivery events never fire.  The payloads are
        handed back so the caller can count them or reschedule them
        differently — the mechanism behind re-routing in-flight answers to a
        failed-over query owner.  Results are in scheduling order (time,
        then insertion sequence).
        """
        extracted: List[_HeapEntry] = []
        for entry in self._heap:
            event = entry[2]
            if event.cancelled or event.fired:
                continue
            if predicate(event.callback, event.args):
                event.cancelled = True
                self._live_events -= 1
                extracted.append(entry)
        extracted.sort()
        return [event.args for _, _, event in extracted]

    def pending(self) -> Iterator[Tuple[Callable[..., None], Tuple[Any, ...]]]:
        """``(callback, args)`` of every event still to fire, in no particular order."""
        for _, _, event in self._heap:
            if not event.cancelled:
                yield event.callback, event.args

    # ------------------------------------------------------------------
    # drain
    # ------------------------------------------------------------------
    def drain(self, max_events: Optional[int] = None) -> int:
        """Process events until the heap is empty."""
        self._start_drain()
        processed = 0
        try:
            while self.step():
                processed += 1
                if max_events is not None and processed > max_events:
                    raise SimulationError(
                        f"exceeded the maximum of {max_events} events"
                    )
        finally:
            self._draining = False
        return processed
