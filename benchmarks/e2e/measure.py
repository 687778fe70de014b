"""One measured run of one workload: set-up, warm-up, timed window, checks.

The client is a closed loop with a single caller: the next ``publish`` (or
``publish_batch`` burst) is issued when the previous one has drained, which
is how the synchronous facade is used.  Only the public facade is driven —
``register_catalog``, ``submit(<SQL text>)``, ``publish`` / ``publish_batch``,
``close`` — and only public read-outs are sampled (``now``, ``traffic``,
``qpl_distribution()``, the handles' answers).

A timed window has a fixed-work *floor* and a deadline: it always makes
``Workload.timed_calls`` publish calls and keeps going down the stream until
``--seconds`` have passed.  Every count (and the memory high-water mark) is
taken at the floor, so counts repeat exactly for a given seed however fast
the host is or long the run; timings are taken over every call made.

Timings are reported in *reference seconds*.  The box this was sized on runs
the same Python code at anything between 1x and 1.7x its best speed, in
phases that last from a second to minutes (a neighbour on the sibling
hyperthread; wall = CPU time throughout): ten runs of one workload read
throughputs up to 30 % apart, and no statistic inside a 20 s run sees through
a phase that outlasts it.  Between client calls — never inside one — a
:class:`Timeline` therefore runs a fixed 2 ms kernel of heap pushes/pops and
dict probes about every 50 ms, and a call that took ``d`` seconds while the
kernel around it ran at ``r`` operations per second is charged
``d * r / REFERENCE_OPS_PER_S`` reference seconds: what it would have taken
on a host that runs the kernel at one million operations per second.  The
runs then read 3-6 % apart.  Raw seconds are kept beside them.
"""

from __future__ import annotations

import gc
import heapq
import resource
from collections import Counter
from dataclasses import dataclass, field
from statistics import fmean, median
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import oracle
import tracing
from workloads import Inputs, Row, Workload, make_inputs

from repro.core.answers import QueryHandle
from repro.core.engine import RJoinEngine

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Full span records are kept for every this-many-th publish call.
RECORD_EVERY = 20
#: Host speed at which a reference second is a second.
REFERENCE_OPS_PER_S = 1_000_000.0
PROBE_OPERATIONS = 2_000
PROBE_EVERY_S = 0.05


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def binned_percentile(values: Sequence[float], share: float) -> float:
    """Percentile of whole-number readings, interpolated inside its bin.

    Hop delays are whole numbers (no jitter), so the plain percentile jumps
    by a whole hop when the tail moves by one answer.  Reading ``k`` stands
    for the bin ``(k - 1, k]``; the result is where the cumulative share
    crosses ``share`` inside that bin.
    """
    tally = Counter(values)
    below = 0
    for reading in sorted(tally):
        if below + tally[reading] >= share * len(values):
            return reading - 1 + (share * len(values) - below) / tally[reading]
        below += tally[reading]
    return max(tally)


def host_speed() -> float:
    """Operations per second of a fixed pure-Python kernel (~2 ms).

    Heap pushes/pops and dict probes — what the engine's hot paths are made
    of — with the collector off, so that the size of the caller's heap does
    not count.
    """
    heap: List[Tuple[int, int]] = []
    table: Dict[int, int] = {}
    state = 12345
    collecting = gc.isenabled()
    gc.disable()
    start = perf_counter()
    for step in range(PROBE_OPERATIONS):
        state = (state * 1103515245 + 12345) % 2147483648
        heapq.heappush(heap, (state, step))
        table[state % 4096] = step
        if step % 2:
            heapq.heappop(heap)
        table.get((state >> 3) % 4096)
    elapsed = perf_counter() - start
    if collecting:
        gc.enable()
    return PROBE_OPERATIONS / elapsed


@dataclass
class Timeline:
    """Consecutive client calls: how long each took and how fast the host was."""

    #: Raw seconds of every call, in order.
    seconds: List[float] = field(default_factory=list)
    #: ``(calls made before it, operations per second)`` of every probe.
    probes: List[Tuple[int, float]] = field(default_factory=list)
    _probed: float = 0.0

    def probe(self, due: float = PROBE_EVERY_S) -> None:
        """Sample the host between two calls, if the last sample is ``due`` old."""
        if perf_counter() - self._probed >= due:
            self.probes.append((len(self.seconds), host_speed()))
            self._probed = perf_counter()

    def clock(self, action: Callable[..., Any], *args: Any) -> Any:
        """Run one client call, timed."""
        self.probe()
        started = perf_counter()
        try:
            return action(*args)
        finally:
            self.seconds.append(perf_counter() - started)

    def close(self) -> None:
        """The probe after the last call."""
        self.probe(due=0.0)

    @property
    def host_ops_per_s(self) -> float:
        return fmean(speed for _, speed in self.probes)

    @property
    def host_drift(self) -> float:
        """Host speed of the second half of the probes relative to the first."""
        speeds = [speed for _, speed in self.probes]
        half = len(speeds) // 2
        return fmean(speeds[half:]) / fmean(speeds[:half]) - 1.0 if half else 0.0

    def reference_seconds(self) -> List[float]:
        """Every call's seconds at the reference host speed.

        A call is read against the mean of the probe before it and the probe
        after it (:meth:`close` supplies the last one).
        """
        charged: List[float] = []
        after = 0  # index of the first probe taken after the call
        for call, seconds in enumerate(self.seconds):
            while after < len(self.probes) and self.probes[after][0] <= call:
                after += 1
            around = self.probes[max(0, after - 1):after + 1]
            speed = fmean(speed for _, speed in around)
            charged.append(seconds * speed / REFERENCE_OPS_PER_S)
        return charged


def publish_call(engine: RJoinEngine, call: Sequence[Row]) -> None:
    """One client request: a single ``publish`` or one ``publish_batch`` burst."""
    if len(call) == 1:
        engine.publish(*call[0])
    else:
        engine.publish_batch(call)


@dataclass
class SetUp:
    engine: RJoinEngine
    handles: List[QueryHandle]
    #: One call per set-up step in order: construction + catalog, each
    #: ``submit`` (drained), each warm-up publish call.
    timeline: Timeline

    def part_s(self, part: str) -> float:
        """Reference seconds of ``construct``, ``submit``, ``warmup`` or ``all``."""
        queries = len(self.handles)
        steps = self.timeline.reference_seconds()
        bounds = {"construct": (0, 1), "submit": (1, 1 + queries),
                  "warmup": (1 + queries, len(steps)), "all": (0, len(steps))}[part]
        return sum(steps[bounds[0]:bounds[1]])


def _build(workload: Workload, inputs: Inputs) -> RJoinEngine:
    engine = RJoinEngine(workload.engine_config())
    engine.register_catalog(inputs.catalog)
    return engine


def set_up(workload: Workload, inputs: Inputs) -> SetUp:
    """Everything before the timed window: build, register, submit, warm up."""
    timeline = Timeline()
    engine = timeline.clock(_build, workload, inputs)
    handles = [timeline.clock(engine.submit, text) for text in inputs.sql]
    for call in inputs.warmup:
        timeline.clock(publish_call, engine, call)
    timeline.close()
    return SetUp(engine, handles, timeline)


@dataclass
class Counts:
    """Public counters read at one instant."""

    messages: int
    ric_messages: int
    deliveries: int
    answers: int
    qpl_max_over_mean: float
    peak_rss_mb: float

    @classmethod
    def read(cls, engine: RJoinEngine, handles: Sequence[QueryHandle]) -> "Counts":
        qpl = engine.qpl_distribution()
        return cls(
            messages=engine.traffic.total_messages,
            ric_messages=engine.traffic.total_ric_messages,
            deliveries=engine.transport.events_processed,
            answers=sum(handle.count for handle in handles),
            qpl_max_over_mean=max(qpl) / fmean(qpl) if qpl and max(qpl) else 0.0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )


@dataclass
class Window:
    """What the client saw during one timed window."""

    before: Counts
    at_floor: Counts
    #: Every publish call made, floor and beyond.
    timeline: Timeline
    #: Per floor call: ``engine.now`` before it; and every handle's answer
    #: count before the window and after each floor call — the slices of
    #: answers that call triggered.
    starts: List[float]
    answer_counts: List[List[int]]
    raised: Optional[str] = None

    @property
    def calls(self) -> int:
        return len(self.timeline.seconds)

    @property
    def wall_s(self) -> float:
        """Reference seconds the client spent inside its calls."""
        return sum(self.timeline.reference_seconds())


def run_window(
    setup: SetUp,
    calls: Iterable[Sequence[Row]],
    floor: int,
    seconds: float,
    before_call: Optional[Callable[[int], None]] = None,
) -> Window:
    """Publish ``calls``: at least ``floor`` of them, then until ``seconds`` passed."""
    engine, handles = setup.engine, setup.handles
    before = Counts.read(engine, handles)
    at_floor: Optional[Counts] = None
    raised: Optional[str] = None
    timeline = Timeline()
    starts: List[float] = []
    answer_counts = [[handle.count for handle in handles]]
    gc.collect()
    gc.disable()
    try:
        deadline = perf_counter() + seconds
        for index, call in enumerate(calls):
            if index >= floor:
                if at_floor is None:
                    at_floor = Counts.read(engine, handles)
                if perf_counter() >= deadline:
                    break
            else:
                starts.append(engine.now)
            if before_call is not None:
                before_call(index)
            try:
                timeline.clock(publish_call, engine, call)
            except Exception as exc:  # the run reports the failure, then ends
                raised = repr(exc)
                break
            if index < floor:
                answer_counts.append([handle.count for handle in handles])
        timeline.close()
    finally:
        gc.enable()
    return Window(before, at_floor or Counts.read(engine, handles), timeline,
                  starts, answer_counts, raised)


def answer_delays(window: Window, handles: Sequence[QueryHandle],
                  hop_delay: float) -> List[float]:
    """Simulated publication→delivery delay of every floor answer, in hops."""
    delays: List[float] = []
    for number, handle in enumerate(handles):
        answers = handle.answers
        for call, start in enumerate(window.starts):
            if call + 1 >= len(window.answer_counts):
                break
            lo = window.answer_counts[call][number]
            hi = window.answer_counts[call + 1][number]
            for position in range(lo, hi):
                delays.append((answers[position].delivered_at - start) / hop_delay)
    return delays


@dataclass
class Check:
    """The oracle's verdict on everything a run published."""

    expected: int
    missing: int
    spurious: int
    raised: Optional[str]
    #: ``Workload.tolerated_missing_share`` of the workload checked.
    tolerated_missing_share: float = 0.0
    #: Publish calls made (warm-up included) and how many of them raised.
    calls: int = 0
    failed_calls: int = 0

    @property
    def correct(self) -> bool:
        return (not (self.spurious or self.raised)
                and self.missing <= self.tolerated_missing_share * self.expected)

    @property
    def correct_share(self) -> float:
        if not self.expected:
            return 0.0
        return max(0.0, 1.0 - (self.missing + self.spurious) / self.expected)


def check_answers(workload: Workload, inputs: Inputs, setup: SetUp,
                  window: Window) -> Check:
    """Compare the handles' answer bags with the oracle's (outside any timing)."""
    expected = oracle.expected_answers(
        inputs.catalog, inputs.queries, inputs.published(window.calls), workload.window
    )
    got = [Counter(handle.values()) for handle in setup.handles]
    total, missing, spurious = oracle.compare(expected, got)
    return Check(total, missing, spurious, window.raised,
                 workload.tolerated_missing_share,
                 calls=workload.warmup_calls + window.calls,
                 failed_calls=1 if window.raised else 0)


@dataclass
class Result:
    """One run: the contract's fields plus what the ledger keeps beside them."""

    metrics: Dict[str, float]
    check: Check
    #: Exactly repeatable facts (counts, digest) and host-speed readings.
    detail: Dict[str, object]


def _detail(workload: Workload, seed: int, setup: SetUp,
            window: Window) -> Dict[str, object]:
    """Facts of one window that repeat exactly for a seed."""
    # The bag delivered by the end of the floor: the same on both runtimes
    # and wherever the deadline fell.
    floor_bags = [
        Counter(answer.values for answer in handle.answers[:count])
        for handle, count in zip(setup.handles, window.answer_counts[-1])
    ]
    return {
        "workload": workload.name,
        "runtime": workload.runtime,
        "seed": seed,
        "floor_calls": workload.timed_calls,
        "floor_messages": window.at_floor.messages - window.before.messages,
        "floor_deliveries": window.at_floor.deliveries - window.before.deliveries,
        "floor_answers": window.at_floor.answers - window.before.answers,
        "floor_answer_digest": oracle.digest(floor_bags),
    }


def facts_mismatch(first: Dict[str, object], other: Dict[str, object]) -> Optional[str]:
    """Why two windows of one seed do not repeat each other, if so.

    The answer bag must always repeat; traffic counts only on ``sim`` — actor
    scheduling may place messages differently, it may never change answers.
    """
    facts = ["floor_answers", "floor_answer_digest"]
    if first["runtime"] == "sim":
        facts += ["floor_messages", "floor_deliveries"]
    for fact in facts:
        if first[fact] != other[fact]:
            return (f"{first['workload']}: {fact} differs between runs of one seed "
                    f"({first[fact]} != {other[fact]})")
    return None


def _verdict(check: Check) -> Dict[str, object]:
    return {
        "expected_answers": check.expected,
        "missing_answers": check.missing,
        "spurious_answers": check.spurious,
        "raised": check.raised,
    }


def _host(timeline: Timeline) -> Dict[str, float]:
    return {"host_ops_per_s": timeline.host_ops_per_s, "host_drift": timeline.host_drift}


def measure_end_to_end(workload: Workload, seed: int, seconds: float) -> Result:
    """The untraced run: every end-to-end metric of one workload."""
    inputs = make_inputs(workload, seed)
    setup = set_up(workload, inputs)
    window = run_window(setup, inputs.timed, workload.timed_calls, seconds)
    delays = answer_delays(window, setup.handles, setup.engine.config.hop_delay)
    check = check_answers(workload, inputs, setup, window)
    detail = _detail(workload, seed, setup, window)
    setup.engine.close()
    # The further set-ups come last, so that the memory high-water mark read
    # at the floor is that of one engine.
    setups = [setup]
    while len(setups) < SETUPS:
        setups.append(set_up(workload, inputs))
        setups[-1].engine.close()

    tuples = window.calls * workload.burst
    publish_s = window.timeline.reference_seconds()
    metrics = {
        "tuples_per_s": tuples / sum(publish_s),
        "publish_p50_ms": median(publish_s) * 1e3,
        "publish_p95_ms": percentile(publish_s, 0.95) * 1e3,
        "msgs_per_tuple": (window.at_floor.messages - window.before.messages)
            / (workload.timed_calls * workload.burst),
        "answer_delay_mean_hops": fmean(delays) if delays else 0.0,
        "answer_delay_p95_hops": binned_percentile(delays, 0.95) if delays else 0.0,
        "qpl_max_over_mean": window.at_floor.qpl_max_over_mean,
        "peak_rss_mb": window.at_floor.peak_rss_mb,
        "setup_s": median(each.part_s("all") for each in setups),
        "answer_correct_share": check.correct_share,
    }
    raw_s = window.timeline.seconds
    detail.update(
        _verdict(check), **_host(window.timeline), timed_calls=window.calls,
        raw={"tuples_per_s": tuples / sum(raw_s),
             "publish_p50_ms": median(raw_s) * 1e3,
             "publish_p95_ms": percentile(raw_s, 0.95) * 1e3,
             "setup_s": median(sum(each.timeline.seconds) for each in setups)},
    )
    return Result(metrics, check, detail)


@dataclass
class _Pass:
    """One pass over the floor (untraced or traced) and what it left behind."""

    #: Reference seconds of the set-up's ``construct`` / ``submit`` / ``warmup``.
    setup_parts: Dict[str, float]
    window: Window
    check: Check
    detail: Dict[str, object]
    setup_spans: Dict[str, List[float]] = field(default_factory=dict)
    #: Host speed of the set-up / ``REFERENCE_OPS_PER_S``, for ``setup_spans``.
    setup_to_reference: float = 1.0
    spans: Dict[str, List[float]] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    records: List[tuple] = field(default_factory=list)
    resident_tuples: int = 0
    dropped: int = 0


def _floor_pass(workload: Workload, seed: int, inputs: Inputs,
                recorder: Optional[tracing.Recorder]) -> _Pass:
    """Set up and publish exactly the floor; under wrappers if ``recorder``."""

    def choose_records(index: int) -> None:
        recorder.keep_for = index if index % RECORD_EVERY == 0 else None

    undo = [] if recorder is None else tracing.install(
        recorder, workload.runtime, workload.store_backend)
    try:
        setup = set_up(workload, inputs)
        setup_spans = recorder.reset()[0] if recorder else {}
        window = run_window(setup, inputs.timed, workload.timed_calls, 0.0,
                            choose_records if recorder else None)
        parts = {part: setup.part_s(part) for part in ("construct", "submit", "warmup")}
        done = _Pass(parts, window, check_answers(workload, inputs, setup, window),
                     _detail(workload, seed, setup, window), setup_spans,
                     setup.timeline.host_ops_per_s / REFERENCE_OPS_PER_S)
        if recorder is not None:
            recorder.keep_for = None
            done.spans, done.counters = recorder.reset()
            done.records, recorder.records = recorder.records, []
            done.resident_tuples = sum(
                node.stored_tuples for node in setup.engine.nodes.values())
            done.dropped = setup.engine.api.dropped_messages
        setup.engine.close()
    finally:
        tracing.uninstall(undo)
    return done


def measure_per_layer(workload: Workload, seed: int,
                      spans_path: Optional[str] = None) -> Result:
    """The traced run: an untraced and a traced pass over the same floor.

    Both publish exactly the floor of an untraced run, whatever
    ``--seconds`` says, so that self times add up to one window of known
    work.  The traced pass must reproduce the untraced one's answer digest
    and counts; its timings feed only the per-layer metrics.
    """
    inputs = make_inputs(workload, seed)
    untraced = _floor_pass(workload, seed, inputs, None)
    done = _floor_pass(workload, seed, inputs, tracing.Recorder())
    if spans_path is not None:
        tracing.write_spans(done.records, spans_path)

    check = done.check
    if not untraced.check.correct:
        check.raised = check.raised or (
            f"the untraced pass failed the oracle: {untraced.check.missing} missing, "
            f"{untraced.check.spurious} spurious, raised {untraced.check.raised}")
    check.raised = check.raised or facts_mismatch(untraced.detail, done.detail)
    check.calls += untraced.check.calls
    check.failed_calls += untraced.check.failed_calls

    plain, traced = untraced.window, done.window
    setup_parts, setup_spans = untraced.setup_parts, done.setup_spans
    spans, counters, detail = done.spans, done.counters, done.detail
    tuples = workload.timed_calls * workload.burst
    # Span clocks are raw; the traced window's host speed makes them reference
    # seconds, like every other time reported.
    to_reference = traced.timeline.host_ops_per_s / REFERENCE_OPS_PER_S

    def calls(*names: str) -> float:
        return float(sum(spans[name][0] for name in names if name in spans))

    def self_s(*names: str) -> float:
        return to_reference * sum(spans[name][2] for name in names if name in spans)

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    engine_spans = ("core.engine.publish", "core.engine.run", "core.engine.submit")
    node_spans = ("core.node.handle", "core.node.publish", "core.node.submit",
                  "core.node.gc")
    altt_spans = ("core.altt.add", "core.altt.find", "core.altt.expire")
    api_spans = ("dht.api.send", "dht.api.multi_send", "dht.api.send_direct")
    deliveries = plain.at_floor.deliveries - plain.before.deliveries
    metrics = {
        "bench.construct_s": setup_parts["construct"],
        "bench.submit_s": setup_parts["submit"],
        "bench.warmup_s": setup_parts["warmup"],
        "bench.calib_ops_per_s": plain.timeline.host_ops_per_s,
        "bench.trace_overhead_ratio": traced.wall_s / plain.wall_s,
        "bench.self_time_coverage":
            share(sum(entry[2] for entry in spans.values()), sum(traced.timeline.seconds)),
        "sql.parse_calls": float(setup_spans["sql.parse"][0]),
        "sql.parse_s": setup_spans["sql.parse"][2] * done.setup_to_reference,
        "core.engine.publish_calls": calls("core.engine.publish"),
        "core.engine.self_s": self_s(*engine_spans),
        "core.engine.answers_collected": calls("core.engine.answer_collect"),
        "core.engine.answer_collect_s": self_s("core.engine.answer_collect"),
        "core.engine.answers_per_s":
            (plain.at_floor.answers - plain.before.answers) / plain.wall_s,
        "core.node.handle_calls": calls("core.node.handle"),
        "core.node.self_s": self_s(*node_spans),
        "core.node.qtable_probe_calls": calls("core.node.qtable_probe"),
        "core.node.qtable_probe_s": self_s("core.node.qtable_probe"),
        "core.node.qtable_add_calls": calls("core.node.qtable_add"),
        "core.node.qtable_add_s": self_s("core.node.qtable_add"),
        "core.rewriting.rewrite_calls": calls("core.rewriting.rewrite"),
        "core.rewriting.rewrite_s": self_s("core.rewriting.rewrite"),
        "core.rewriting.alive_share": share(
            counters.get("core.rewriting.alive", 0), calls("core.rewriting.rewrite")),
        "core.strategy.choose_calls": calls("core.strategy.choose"),
        "core.strategy.choose_s": self_s("core.strategy.choose"),
        "core.ric.lookup_calls": calls("core.ric.lookup"),
        "core.ric.hit_share": share(
            counters.get("core.ric.hits", 0), calls("core.ric.lookup")),
        "core.ric.msgs_per_tuple":
            (plain.at_floor.ric_messages - plain.before.ric_messages) / tuples,
        "core.altt.add_calls": calls("core.altt.add"),
        "core.altt.find_calls": calls("core.altt.find"),
        "core.altt.self_s": self_s(*altt_spans),
        "data.add_calls": calls("data.add"),
        "data.add_s": self_s("data.add"),
        "data.probe_calls": calls("data.probe"),
        "data.probe_s": self_s("data.probe"),
        "data.probe_hit_share": share(
            counters.get("data.probe_hits", 0), counters.get("data.probes", 0)),
        "data.expire_calls": calls("data.expire"),
        "data.expire_s": self_s("data.expire"),
        "data.flush_s": self_s("data.flush"),
        "data.resident_tuples": float(done.resident_tuples),
        "dht.api.send_calls": calls("dht.api.send"),
        "dht.api.multi_send_calls": calls("dht.api.multi_send"),
        "dht.api.send_direct_calls": calls("dht.api.send_direct"),
        "dht.api.self_s": self_s(*api_spans),
        "dht.api.hops_per_send": share(
            counters.get("dht.api.hops", 0), counters.get("dht.api.envelopes", 0)),
        "dht.api.dropped": float(done.dropped),
        "dht.chord.route_path_calls": calls("dht.chord.route_path"),
        "dht.chord.route_path_s": self_s("dht.chord.route_path"),
        "dht.hashing.hash_calls": calls("dht.hashing.hash"),
        "dht.hashing.hash_s": self_s("dht.hashing.hash"),
        "net.post_calls": calls("net.post"),
        "net.post_s": self_s("net.post"),
        "net.drain_calls": calls("net.drain"),
        "net.drain_self_s": self_s("net.drain"),
        "net.deliveries_per_tuple": deliveries / tuples,
        "net.deliveries_per_s": deliveries / plain.wall_s,
        "net.pending_max": float(counters.get("net.pending_max", 0)),
    }
    detail.update(
        _verdict(check),
        **_host(plain.timeline),
        timed_calls=traced.calls,
        traced_wall_s=traced.wall_s,
        untraced_wall_s=plain.wall_s,
        sampled_spans=len(done.records),
        self_s_by_span={name: to_reference * entry[2]
                        for name, entry in sorted(spans.items())},
    )
    return Result(metrics, check, detail)
