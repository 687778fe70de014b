"""Sliding-window validity and garbage collection (Section 5).

A sliding-window join of window size ``W`` only combines tuples that are
"close" to each other: a tuple inserted at time ``t1`` can be combined only
with tuples that arrive between ``t1`` and ``t1 + W``.  RJoin enforces this
with purely local checks on the rewritten queries: every rewritten query
remembers the window *clock* values (publication time for time-based
windows, the global publication sequence number for tuple-based windows) of
the tuples consumed so far; a candidate tuple may extend the combination only
if the resulting clock span still fits in the window.

This module implements the order-independent form of the paper's rules (see
DESIGN.md): a combination ``τ1 … τk`` is valid iff
``max(clock) − min(clock) + 1 ≤ W``.  The ``+ 1`` follows the paper's
``|start(q1) − pubT(τ)| + 1 ≤ window(q1)`` formula.  Because future tuples
only ever have larger clocks, a stored rewritten query whose oldest consumed
tuple has fallen out of the window can never be satisfied again and is
garbage collected — this is the state-reduction mechanism evaluated in
Figures 7 and 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple as TupleT

from repro.data.tuples import Tuple
from repro.sql.ast import WindowSpec


@dataclass(frozen=True, slots=True)
class WindowState:
    """Clock span of the tuples consumed so far by a rewritten query."""

    min_clock: float
    max_clock: float

    @property
    def span(self) -> float:
        """Clock span of the consumed tuples, using the paper's +1 convention."""
        return self.max_clock - self.min_clock + 1

    def extended_with(self, clock: float) -> "WindowState":
        """The state after also consuming a tuple with the given clock."""
        return WindowState(
            min_clock=min(self.min_clock, clock),
            max_clock=max(self.max_clock, clock),
        )


def initial_state(window: Optional[WindowSpec], tup: Tuple) -> Optional[WindowState]:
    """Window state after the *first* tuple of a combination is consumed.

    Mirrors the paper's first rule: when a tuple τ triggers an input query,
    the generated rewritten query starts its window at ``pubT(τ)``.
    Returns None for windowless queries.
    """
    if window is None:
        return None
    clock = window.clock_of(tup)
    return WindowState(min_clock=clock, max_clock=clock)


def admits(
    window: Optional[WindowSpec],
    state: Optional[WindowState],
    tup: Tuple,
) -> bool:
    """Whether ``tup`` may join the combination described by ``state``."""
    if window is None:
        return True
    if state is None:
        # No tuple consumed yet (input query): the first tuple always fits.
        return True
    clock = window.clock_of(tup)
    new_state = state.extended_with(clock)
    return new_state.span <= window.size


def extend(
    window: Optional[WindowSpec],
    state: Optional[WindowState],
    tup: Tuple,
) -> Optional[WindowState]:
    """Window state after consuming ``tup`` (assumes :func:`admits` was checked)."""
    if window is None:
        return None
    if state is None:
        return initial_state(window, tup)
    return state.extended_with(window.clock_of(tup))


def expired(
    window: Optional[WindowSpec],
    state: Optional[WindowState],
    current_clock: float,
) -> bool:
    """Whether a stored rewritten query can never be satisfied again.

    ``current_clock`` is the clock of the most recent event observed by the
    node (the incoming tuple's publication time or sequence number): every
    future tuple will have a clock of at least ``current_clock``, so once the
    span from the oldest consumed tuple to "now" exceeds the window, the
    stored query is garbage.
    """
    if window is None or state is None:
        return False
    return (current_clock - state.min_clock + 1) > window.size


def tuple_expired(
    window: Optional[WindowSpec], tup: Tuple, current_clock: float
) -> bool:
    """Whether a stored tuple has aged out of every possible window combination."""
    if window is None:
        return False
    return (current_clock - window.clock_of(tup) + 1) > window.size


def combination_valid(window: Optional[WindowSpec], clocks: TupleT[float, ...]) -> bool:
    """Order-independent validity of a full combination (used by the reference engine)."""
    if window is None or not clocks:
        return True
    return (max(clocks) - min(clocks) + 1) <= window.size
