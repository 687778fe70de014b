"""Distributions: the declared fixed-bucket histograms.

While the spans of :mod:`repro.obs.trace` follow *individual* deliveries,
the histograms aggregate distributions — answer latency, per-hop delay,
handler service time, inbox depth, store probe sizes.  Counts are no
instrument of this layer: they are the engine's ``ChurnStats`` and per-node
counter fields, and per-delivery attribution sits on the spans.  Fixed
bucket boundaries make every percentile estimate a deterministic function of
the recorded values, independent of recording order.

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
from typing import Dict, Mapping, Optional, Tuple

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
    """A fixed-bucket histogram with deterministic percentiles.

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


def histogram_percentiles(
    histograms: Optional[Mapping[str, Histogram]],
) -> Dict[str, float]:
    """The summary-schema fold: ``{name}_{p50,p95,p99}`` per declared histogram.

    With ``histograms=None`` (observability off) every key is still present,
    as zero — the result schema does not depend on the observability mode.
    """
    folded: Dict[str, float] = {}
    for spec in HISTOGRAMS:
        histogram = None if histograms is None else histograms[spec.name]
        for suffix, fraction in PERCENTILE_POINTS:
            folded[f"{spec.name}_{suffix}"] = (
                0.0 if histogram is None else histogram.percentile(fraction)
            )
    return folded
