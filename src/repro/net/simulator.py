"""The deterministic ``sim`` runtime: the discrete-event kernel is the transport.

Every interaction in the simulated network — a message delivery, a timer, a
garbage-collection sweep — waits on the heap the
:class:`~repro.net.runtime.Transport` base owns.  The kernel pops entries in
time order (ties broken by insertion order, which keeps runs fully
deterministic for a fixed seed) and advances the global clock.

The kernel is deliberately minimal: it knows nothing about Chord or RJoin.
A posted envelope is a bare ``(time, sequence, envelope)`` heap entry, and
``step`` hands it straight to the bound delivery callback; timers keep
their :class:`~repro.net.runtime._ScheduledEvent`.  So the DHT messaging
API (:mod:`repro.dht.api`) programs against the same contract as on the
concurrent runtime, and the engine
(:mod:`repro.core.engine`) drains it between tuple publications.  This is
the test/oracle harness: two runs with the same seed take the same decisions
in the same order.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.net.messages import Envelope
from repro.net.runtime import _INF, Transport, _HeapEntry


class SimulationKernel(Transport):
    """Deterministic discrete-event scheduler with a floating-point clock.

    The ``sim`` runtime: deliveries are heap entries ``delay`` time units
    out and fire in (time, insertion) order among the timers.  In-flight
    surgery is predicate-based removal from the heap (:meth:`extract_where`).
    """

    name = "sim"

    #: Spans stay logical-clock-only here: wall time in a trace would make
    #: two reruns of the same seed produce different trace files.
    wall_clock_spans = False

    # ------------------------------------------------------------------
    # message delivery
    # ------------------------------------------------------------------
    def post(self, envelope: Envelope, delay: float) -> None:
        """Put the envelope on the heap, ``delay`` time units out."""
        time = self._now + delay
        if self._closed or not self._now <= time < _INF:  # also true for NaN
            raise self._refusal(time)
        if self._deliver is None:
            raise SimulationError(
                "no delivery callback bound; call bind() before post()"
            )
        heapq.heappush(self._heap, (time, next(self._sequence), envelope))
        self._live_events += 1

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
        """Take matching pending entries off the heap; return their argument tuples.

        Models what a crash does to messages still in flight towards the
        dead address: they are never delivered.  The payloads are handed
        back so the caller can count them or reschedule them differently —
        the mechanism behind re-routing in-flight answers to a failed-over
        query owner.  ``predicate`` sees an envelope as ``(the delivery
        callback, (envelope,))``; an extracted timer counts as cancelled.
        Results are in scheduling order (time, then insertion sequence).
        Rebuilds the heap, which only a crash pays for.
        """
        deliver = self._deliver
        heap = self._heap
        kept: List[_HeapEntry] = []
        extracted: List[_HeapEntry] = []
        for entry in heap:
            item = entry[2]
            if isinstance(item, Envelope):
                taken = predicate(deliver, (item,))  # type: ignore[arg-type]
            elif item.cancelled:
                continue
            else:
                taken = predicate(item.callback, item.args)
                if taken:
                    item.cancelled = True
            (extracted if taken else kept).append(entry)
        heap[:] = kept
        heapq.heapify(heap)
        self._live_events -= len(extracted)
        extracted.sort()
        return [
            (item,) if isinstance(item, Envelope) else item.args
            for _, _, item in extracted
        ]

    def pending(self) -> Iterator[Tuple[Callable[..., None], Tuple[Any, ...]]]:
        """``(callback, args)`` of every entry still to fire, in no particular order.

        An envelope shows as ``(the delivery callback, (envelope,))``.
        """
        deliver = self._deliver
        for _, _, item in self._heap:
            if isinstance(item, Envelope):
                yield deliver, (item,)  # type: ignore[misc]
            elif not item.cancelled:
                yield item.callback, item.args

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
