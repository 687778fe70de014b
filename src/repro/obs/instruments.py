"""Metrics instruments: counters, gauges and mergeable histograms.

The registry is the quantitative half of the observability layer: while
:mod:`repro.obs.trace` follows *individual* operations, the instruments
aggregate — latency distributions, per-node and per-key load counters,
inbox depth.  Histograms use fixed bucket boundaries so two registries
(e.g. from different worker processes) merge by adding bucket counts, and
percentile estimates are deterministic functions of the recorded values.

Every histogram the layer records into is declared up front in
:data:`HISTOGRAMS`, and each surfaces as ``{name}_p50`` / ``{name}_p95``
/ ``{name}_p99`` in ``RJoinEngine.metrics_summary``;
``tests/analysis/test_schema_sync.py`` pins those keys against
``SUMMARY_SCHEMA``, so adding an instrument without extending the result
schema fails a test instead of shipping silent zeros.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ObservabilityError

#: Geometric bucket ladder for logical-time latencies (hop_delay defaults
#: to 1.0, so end-to-end latencies live in the low hundreds):
#: 0.5, 1, 2, ... 1024.
_LATENCY_BUCKETS: Tuple[float, ...] = tuple(0.5 * 2.0**exp for exp in range(12))

#: Wall-clock service times in microseconds (asyncio runtime only):
#: 10us doubling up to ~0.16s.
_WALL_US_BUCKETS: Tuple[float, ...] = tuple(10.0 * 2.0**exp for exp in range(15))

#: Small-count ladder (queue depths, batch sizes): 0, 1, 2, 4, ... 4096.
_COUNT_BUCKETS: Tuple[float, ...] = (0.0,) + tuple(2.0**exp for exp in range(13))


@dataclass(frozen=True)
class HistogramSpec:
    """Declaration of one fixed-bucket histogram instrument."""

    name: str
    buckets: Tuple[float, ...]
    unit: str
    description: str


#: The declared histogram instruments.  Each name must surface as
#: percentile keys in ``SUMMARY_SCHEMA``, folded into ``metrics_summary`` via
#: :func:`histogram_percentiles` (checked by
#: ``tests/analysis/test_schema_sync.py``).
HISTOGRAMS: Tuple[HistogramSpec, ...] = (
    HistogramSpec(
        name="answer_latency",
        buckets=_LATENCY_BUCKETS,
        unit="logical",
        description="publish/submit to answer-delivery latency",
    ),
    HistogramSpec(
        name="hop_delay",
        buckets=_LATENCY_BUCKETS,
        unit="logical",
        description="per-message transit delay (send to delivery)",
    ),
    HistogramSpec(
        name="handler_service_time_us",
        buckets=_WALL_US_BUCKETS,
        unit="us",
        description="wall-clock handler service time (asyncio runtime)",
    ),
    HistogramSpec(
        name="inbox_depth",
        buckets=_COUNT_BUCKETS,
        unit="events",
        description="pending transport events observed at each delivery",
    ),
    HistogramSpec(
        name="store_probe_batch",
        buckets=_COUNT_BUCKETS,
        unit="tuples",
        description="result sizes of set-at-a-time store batch probes",
    ),
)

#: Percentile points folded into the metrics summary per histogram.
PERCENTILE_POINTS: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
)


class Histogram:
    """A fixed-bucket histogram; mergeable, with deterministic percentiles.

    ``buckets`` are inclusive upper bounds; values above the last bound
    land in an overflow bucket whose percentile estimate is the observed
    maximum.  A percentile is the upper bound of the bucket containing the
    nearest-rank sample — a deterministic overestimate that never depends
    on recording order.
    """

    def __init__(self, spec: HistogramSpec) -> None:
        if not spec.buckets or list(spec.buckets) != sorted(set(spec.buckets)):
            raise ObservabilityError(
                f"histogram {spec.name!r} needs strictly increasing buckets"
            )
        self.spec = spec
        # Bucket bounds re-bound locally: ``record`` runs several times per
        # message delivery, and ``self._buckets`` is one attribute load
        # where ``self.spec.buckets`` is two.
        self._buckets = spec.buckets
        self._counts = [0] * (len(spec.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def record(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of one ``value``."""
        self._counts[bisect_left(self._buckets, value)] += count
        self.count += count
        self.total += value * count
        if value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram with identical buckets into this one."""
        if other.spec.buckets != self.spec.buckets:
            raise ObservabilityError(
                f"cannot merge histogram {other.spec.name!r} into "
                f"{self.spec.name!r}: bucket boundaries differ"
            )
        for index, count in enumerate(other._counts):
            self._counts[index] += count
        self.count += other.count
        self.total += other.total
        self.max = max(self.max, other.max)

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile estimate (0.0 on an empty histogram)."""
        if not 0 < fraction <= 1:
            raise ObservabilityError("percentile fraction must be in (0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, int(fraction * self.count + 0.999999))
        cumulative = 0
        for index, count in enumerate(self._counts):
            cumulative += count
            if cumulative >= rank:
                if index < len(self.spec.buckets):
                    return self.spec.buckets[index]
                return self.max
        return self.max

    @property
    def mean(self) -> float:
        """Mean of the recorded observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def bucket_counts(self) -> List[int]:
        """Per-bucket observation counts (last entry = overflow bucket)."""
        return list(self._counts)


class Counter:
    """A monotone counter with an optional bounded label dimension."""

    #: Once this many distinct labels exist, further labels collapse into
    #: one overflow bucket so hot-key floods cannot exhaust memory.
    OVERFLOW_LABEL = "__other__"

    def __init__(self, name: str, max_labels: int = 1024) -> None:
        if max_labels <= 0:
            raise ObservabilityError("max_labels must be positive")
        self.name = name
        self.max_labels = max_labels
        self.value = 0
        self.by_label: Dict[str, int] = {}

    def inc(self, label: Optional[str] = None, amount: int = 1) -> None:
        """Increment the counter (and the label's sub-counter, if given)."""
        self.value += amount
        if label is None:
            return
        by_label = self.by_label
        current = by_label.get(label)
        if current is None:
            if len(by_label) >= self.max_labels:
                label = self.OVERFLOW_LABEL
                current = by_label.get(label, 0)
            else:
                current = 0
        by_label[label] = current + amount

    def merge(self, other: "Counter") -> None:
        """Fold another counter's totals and labels into this one."""
        self.value += other.value
        for label, amount in other.by_label.items():
            if label not in self.by_label and len(self.by_label) >= self.max_labels:
                label = self.OVERFLOW_LABEL
            self.by_label[label] = self.by_label.get(label, 0) + amount


class Gauge:
    """A last-value instrument that also tracks its high-water mark."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.max = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value
        if value > self.max:
            self.max = value

    def merge(self, other: "Gauge") -> None:
        """Fold another gauge in (keeps the joint high-water mark)."""
        self.value = other.value
        self.max = max(self.max, other.max)


class MetricsRegistry:
    """All instruments of one engine (or one worker process).

    Histograms are created eagerly from :data:`HISTOGRAMS` — asking for an
    undeclared histogram raises, which keeps the declaration authoritative
    at runtime exactly as the analysis rule keeps it at lint time.
    Counters and gauges are created on demand.
    """

    def __init__(self) -> None:
        self._histograms = {spec.name: Histogram(spec) for spec in HISTOGRAMS}
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}

    def histogram(self, name: str) -> Histogram:
        """The declared histogram called ``name``."""
        try:
            return self._histograms[name]
        except KeyError:
            declared = ", ".join(sorted(self._histograms))
            raise ObservabilityError(
                f"histogram {name!r} is not declared in HISTOGRAMS "
                f"(declared: {declared}); declare it and extend "
                "SUMMARY_SCHEMA"
            ) from None

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (cross-process aggregation)."""
        for name, histogram in other._histograms.items():
            self._histograms[name].merge(histogram)
        for name, counter in other._counters.items():
            self.counter(name).merge(counter)
        for name, gauge in other._gauges.items():
            self.gauge(name).merge(gauge)

    def snapshot(self) -> Dict[str, object]:
        """A JSON-safe dump of every instrument (for debugging/export)."""
        return {
            "histograms": {
                name: {
                    "count": hist.count,
                    "mean": hist.mean,
                    "max": hist.max,
                    "buckets": list(hist.spec.buckets),
                    "counts": hist.bucket_counts(),
                }
                for name, hist in sorted(self._histograms.items())
            },
            "counters": {
                name: {"value": counter.value, "by_label": dict(counter.by_label)}
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: {"value": gauge.value, "max": gauge.max}
                for name, gauge in sorted(self._gauges.items())
            },
        }


def histogram_percentiles(
    registry: Optional[MetricsRegistry],
) -> Dict[str, float]:
    """The summary-schema fold: ``{name}_{p50,p95,p99}`` per declared histogram.

    With ``registry=None`` (observability off) every key is still present,
    as zero — the result schema does not depend on the observability mode.
    """
    folded: Dict[str, float] = {}
    for spec in HISTOGRAMS:
        histogram = None if registry is None else registry.histogram(spec.name)
        for suffix, fraction in PERCENTILE_POINTS:
            folded[f"{spec.name}_{suffix}"] = (
                0.0 if histogram is None else histogram.percentile(fraction)
            )
    return folded
