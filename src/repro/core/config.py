"""Configuration of the RJoin engine."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.data.backends import BACKEND_NAMES, DEFAULT_BACKEND
from repro.errors import ConfigurationError
from repro.net.runtime import DEFAULT_TRANSPORT, TRANSPORT_NAMES
from repro.obs.trace import OBSERVABILITY_MODES
from repro.sql.ast import WindowSpec

@dataclass
class RJoinConfig:
    """Tunable parameters of an :class:`~repro.core.engine.RJoinEngine`.

    The defaults favour small, fully deterministic simulations.  An
    experiment is this configuration plus its workload
    (:class:`~repro.experiments.config.ExperimentConfig` subclasses it), so
    every field below can be set from a scenario or ``--set``.

    What is not a field is fixed by the engine: the identifier space is
    :data:`~repro.core.engine.IDENTIFIER_BITS` wide, the ALTT retention Δ
    is four maximum transit times (none at zero delay), a node reports as a
    key's RIC rate the number of tuples it has received for that key, and a
    cached rate is asked again at its :data:`~repro.core.ric.REASK_FROM`-th
    use and at every doubling of that — the one staleness rule.

    Parameters
    ----------
    num_nodes:
        Number of DHT nodes in the simulated Chord network.
    runtime:
        Node runtime the engine executes on: ``sim`` (the deterministic
        discrete-event kernel — the test/oracle harness) or ``asyncio``
        (each node is a concurrent actor task with a bounded inbox; answer
        bags are identical, delivery order and traffic placement are not);
        see :mod:`repro.net.runtime`.
    hop_delay:
        Simulated time units consumed by one routing hop.  With
        ``delay_jitter`` it bounds a message's transit time, and the
        engine derives the ALTT retention Δ from that bound (see
        :class:`~repro.core.engine.RJoinEngine`).
    delay_jitter:
        Extra random per-message delay in ``[0, delay_jitter]`` (used to
        exercise the ALTT machinery with out-of-order deliveries).
    strategy:
        Indexing strategy name: ``rjoin``, ``random``, ``worst`` or ``first``.
    store_backend:
        Node-local tuple-store backend: ``memory`` (the default dict +
        prefix-index store) or ``sqlite`` (table-backed, index scans for
        prefix match and expiry); see :func:`repro.data.backends.make_store`.
    allow_attribute_level_rewrites:
        Whether rewritten queries may also be indexed at the attribute level
        (candidate family (a) of Section 6).  Attribute-level rewritten
        queries only see tuples that arrive *after* them (plus the ALTT), so
        enabling the family trades exactness for the larger plan space the
        paper explores; an experiment enables it, the library
        default keeps it off so that RJoin delivers exactly the reference
        bag of answers.
    tuple_gc_window:
        The stored-tuple horizon: when every continuous query of the run
        uses the same sliding window, stored tuples older than this window
        can be garbage collected; an experiment's generated queries all use
        it as their window.  ``submit`` refuses a query it does not cover (no
        window, the other mode, or a larger size): the collected tuples
        would silently miss its answers.  Rewritten queries do not depend on
        it: each leaves with its own window, when the next drain starts.
    gc_every_tuples:
        How often (in published tuples) the engine collects the stored
        tuples past ``tuple_gc_window``; it governs stored tuples only, and
        does nothing when no horizon is set.
    owner_failover:
        Whether every submitted query's handle registration (owner address
        plus answer watermark) is replicated onto the owner's ring
        successor, so that an owner departure re-registers the query on the
        survivor and its answers keep flowing instead of being dropped (the
        query lifecycle subsystem).  Disabling restores the pre-lifecycle
        behaviour: answers routed to a departed owner are lost.
    id_movement:
        Enables the lower-layer id-movement load balancing (Figure 9).
    rebalance_every_tuples:
        How often (in published tuples) the balancer runs when enabled.
    seed:
        Seed of every random choice made by the engine (node placement,
        random strategy, owner/publisher selection).
    observability:
        ``"off"`` (the default — no tracer, no instruments, near-zero
        overhead) or ``"on"``: every envelope carries a trace context,
        every delivery opens a span, and the latency/load histograms of
        :mod:`repro.obs` are recorded and folded into
        :meth:`~repro.core.engine.RJoinEngine.metrics_summary`.
    trace_path:
        With ``observability="on"``, stream finished spans to this JSONL
        file (bounded; see :data:`repro.obs.DEFAULT_MAX_SPANS`).  ``None``
        retains spans in memory — read them via ``engine.obs.spans`` or
        dump them with ``engine.write_trace(path)``.
    """

    num_nodes: int = 64
    runtime: str = DEFAULT_TRANSPORT
    hop_delay: float = 1.0
    delay_jitter: float = 0.0
    strategy: str = "rjoin"
    store_backend: str = DEFAULT_BACKEND
    allow_attribute_level_rewrites: bool = False
    tuple_gc_window: Optional[WindowSpec] = None
    gc_every_tuples: int = 50
    owner_failover: bool = True
    id_movement: bool = False
    rebalance_every_tuples: int = 100
    seed: int = 0
    observability: str = "off"
    trace_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ConfigurationError("num_nodes must be positive")
        if self.runtime not in TRANSPORT_NAMES:
            known = ", ".join(TRANSPORT_NAMES)
            raise ConfigurationError(
                f"unknown runtime {self.runtime!r}; known runtimes: {known}"
            )
        for delay in (self.hop_delay, self.delay_jitter):
            if not math.isfinite(delay) or delay < 0:
                raise ConfigurationError("delays must be finite and non-negative")
        if self.store_backend not in BACKEND_NAMES:
            known = ", ".join(BACKEND_NAMES)
            raise ConfigurationError(
                f"unknown store backend {self.store_backend!r}; known: {known}"
            )
        if self.gc_every_tuples <= 0:
            raise ConfigurationError("gc_every_tuples must be positive")
        if self.rebalance_every_tuples <= 0:
            raise ConfigurationError("rebalance_every_tuples must be positive")
        if self.observability not in OBSERVABILITY_MODES:
            known = ", ".join(OBSERVABILITY_MODES)
            raise ConfigurationError(
                f"unknown observability mode {self.observability!r}; "
                f"known modes: {known}"
            )
        if self.trace_path is not None and self.observability == "off":
            raise ConfigurationError(
                "trace_path requires observability='on' (nothing would "
                "ever be written to it otherwise)"
            )

