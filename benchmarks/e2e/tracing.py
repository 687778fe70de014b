"""Per-layer spans recorded from outside the program.

The traced run wraps the public entry points of every layer *at class or
module level* before the engine is built, so nothing under ``src/`` changes
and every object the engine creates picks the wrappers up.  Handlers are
synchronous in both runtimes (the asyncio actors run them between awaits on
the driver's thread), so one call stack is enough to attribute time:

* a span's *self time* is its duration minus the part its child spans cover;
* a call made while a span of the same name is open belongs to that span (a
  store's ``match_batch`` answering through its own ``tuples_for_prefix``,
  ``add_batch`` through ``add``): it is neither counted nor timed again;
* per span name the recorder keeps calls / total / self seconds, and — for
  publish calls chosen by the driver — full records
  ``(name, start, end, span id, parent id, publish index)`` in memory.

:func:`install` returns the undo list; :func:`uninstall` restores every
attribute it replaced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import engine as engine_module
from repro.core import node as node_module
from repro.core.altt import AttributeLevelTupleTable
from repro.core.answers import QueryHandle
from repro.core.ric import CandidateTable
from repro.core.strategy import RJoinStrategy
from repro.data.backends import make_store
from repro.dht.api import DHTMessagingService
from repro.dht.chord import ChordRing
from repro.dht.hashing import IdentifierSpace
from repro.net.runtime import make_transport


@dataclass
class Recorder:
    """Aggregates and sampled records of every span closed so far."""

    #: span name -> [calls, total seconds, self seconds]
    spans: Dict[str, List[float]] = field(default_factory=dict)
    #: free-form counts taken at the same boundaries (hits, hops, ...)
    counters: Dict[str, float] = field(default_factory=dict)
    records: List[Tuple[str, float, float, int, int, int]] = field(default_factory=list)
    #: Publish index the next spans belong to; ``None`` = keep no records.
    keep_for: Optional[int] = None
    _stack: List[List[float]] = field(default_factory=list)
    _open: Dict[str, bool] = field(default_factory=dict)
    _next_id: int = 0

    def reset(self) -> Tuple[Dict[str, List[float]], Dict[str, float]]:
        """Start a new phase; returns the spans and counters of the one that ended."""
        ended = {name: list(entry) for name, entry in self.spans.items()}
        counted = dict(self.counters)
        for entry in self.spans.values():
            entry[:] = [0, 0.0, 0.0]
        self.counters.clear()
        return ended, counted

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(
        self,
        name: str,
        func: Callable[..., Any],
        observe: Optional[Callable[["Recorder", Any, Any], None]] = None,
    ) -> Callable[..., Any]:
        """``func`` timed as a span called ``name``.

        ``observe(recorder, first positional argument, result)`` runs after
        the span closed, for counts that need the call's outcome.
        """
        entry = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        is_open = self._open

        def traced(*args: Any, **kwargs: Any) -> Any:
            if is_open.get(name):
                return func(*args, **kwargs)
            is_open[name] = True
            self._next_id += 1
            frame = [perf_counter(), 0.0, self._next_id]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                is_open[name] = False
                duration = end - frame[0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if self.keep_for is not None:
                    self.records.append(
                        (name, frame[0], end, frame[2],
                         stack[-1][2] if stack else 0, self.keep_for)
                    )
            if observe is not None:
                observe(self, args[0] if args else None, result)
            return result

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        return traced


def write_spans(records: List[Tuple[str, float, float, int, int, int]], path: str) -> None:
    """Write sampled span records as JSONL."""
    with open(path, "w", encoding="utf-8") as sink:
        for name, start, end, span_id, parent_id, publish in records:
            sink.write(json.dumps({
                "name": name, "start": start, "end": end, "span": span_id,
                "parent": parent_id, "publish": publish,
            }) + "\n")


def _observe_rewrite(recorder: Recorder, _first: Any, result: Any) -> None:
    if result.alive:
        recorder.count("core.rewriting.alive")


def _observe_lookup(recorder: Recorder, _table: Any, result: Any) -> None:
    if result is not None:
        recorder.count("core.ric.hits")


def _observe_probe(recorder: Recorder, _store: Any, result: Any) -> None:
    """``tuples_for_key`` / ``tuples_for_prefix``: one probe, its matching tuples."""
    recorder.count("data.probes")
    if result:
        recorder.count("data.probe_hits")


def _observe_probes(recorder: Recorder, _store: Any, result: Any) -> None:
    """``match_batch`` (a list of groups) / ``tuples_for_prefixes`` (a dict of them)."""
    groups = result.values() if isinstance(result, dict) else result
    recorder.count("data.probes", len(groups))
    recorder.count("data.probe_hits", sum(1 for group in groups if group))


def _observe_send(recorder: Recorder, _api: Any, result: Any) -> None:
    envelopes = result if isinstance(result, list) else [result]
    recorder.count("dht.api.envelopes", len(envelopes))
    recorder.count("dht.api.hops", sum(envelope.hops for envelope in envelopes))


def _observe_post(recorder: Recorder, transport: Any, _result: Any) -> None:
    pending = transport.pending_events
    if pending > recorder.counters.get("net.pending_max", 0):
        recorder.counters["net.pending_max"] = pending


def _targets(runtime: str, store_backend: str) -> List[Tuple[Any, str, str, Any]]:
    """``(owner, attribute, span name, observe)`` for every wrapped entry point."""
    store = make_store(store_backend)
    store_class = type(store)
    store.close()
    transport = make_transport(runtime)
    transport_class = type(transport)
    transport.shutdown()
    targets: List[Tuple[Any, str, str, Any]] = [
        # Modules call the names they imported, so those are what is wrapped.
        (engine_module, "parse_query", "sql.parse", None),
        (engine_module.RJoinEngine, "publish", "core.engine.publish", None),
        (engine_module.RJoinEngine, "publish_batch", "core.engine.publish", None),
        (engine_module.RJoinEngine, "submit", "core.engine.submit", None),
        (engine_module.RJoinEngine, "run", "core.engine.run", None),
        (QueryHandle, "add_answer", "core.engine.answer_collect", None),
        (node_module.RJoinNode, "handle_envelope", "core.node.handle", None),
        (node_module.RJoinNode, "publish_tuples", "core.node.publish", None),
        (node_module.RJoinNode, "submit_query", "core.node.submit", None),
        (node_module.RJoinNode, "gc_expired_state", "core.node.gc", None),
        (node_module.QueryTable, "probe", "core.node.qtable_probe", None),
        (node_module.QueryTable, "add", "core.node.qtable_add", None),
        (node_module, "rewrite_query", "core.rewriting.rewrite", _observe_rewrite),
        (RJoinStrategy, "choose", "core.strategy.choose", None),
        (CandidateTable, "lookup", "core.ric.lookup", _observe_lookup),
        (AttributeLevelTupleTable, "add", "core.altt.add", None),
        (AttributeLevelTupleTable, "find", "core.altt.find", None),
        (AttributeLevelTupleTable, "expire", "core.altt.expire", None),
        (DHTMessagingService, "send", "dht.api.send", _observe_send),
        (DHTMessagingService, "multi_send", "dht.api.multi_send", _observe_send),
        (DHTMessagingService, "send_direct", "dht.api.send_direct", _observe_send),
        (ChordRing, "route_path", "dht.chord.route_path", None),
        (IdentifierSpace, "hash_key", "dht.hashing.hash", None),
        (transport_class, "post", "net.post", _observe_post),
        (transport_class, "drain", "net.drain", None),
    ]
    for method in ("add", "add_batch"):
        targets.append((store_class, method, "data.add", None))
    for method in ("tuples_for_key", "tuples_for_prefix"):
        targets.append((store_class, method, "data.probe", _observe_probe))
    for method in ("match_batch", "tuples_for_prefixes"):
        targets.append((store_class, method, "data.probe", _observe_probes))
    for method in ("remove_expired", "remove_older_than", "remove_published_before",
                   "remove_sequenced_before"):
        targets.append((store_class, method, "data.expire", None))
    targets.append((store_class, "flush", "data.flush", None))
    return targets


Undo = List[Tuple[Any, str, bool, Any]]


def install(recorder: Recorder, runtime: str, store_backend: str) -> Undo:
    """Wrap every layer's entry points; returns what :func:`uninstall` needs."""
    undo: Undo = []
    for owner, attribute, name, observe in _targets(runtime, store_backend):
        original = getattr(owner, attribute)
        # A class may inherit the method (StoreBackend defaults): remember
        # whether the attribute was the class's own, to delete or restore it.
        own = attribute in vars(owner)
        undo.append((owner, attribute, own, vars(owner).get(attribute)))
        setattr(owner, attribute, recorder.wrap(name, original, observe))
    return undo


def uninstall(undo: Undo) -> None:
    for owner, attribute, own, original in reversed(undo):
        if own:
            setattr(owner, attribute, original)
        else:
            delattr(owner, attribute)
