"""Unit contract of the declared histograms.

The histogram properties matter beyond unit hygiene: deterministic
percentiles are what makes ``metrics_summary`` reproducible across sim
reruns.
"""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.obs.context import Observability
from repro.obs.instruments import (
    HISTOGRAMS,
    PERCENTILE_POINTS,
    Histogram,
    HistogramSpec,
    histogram_percentiles,
)


def spec(buckets=(1.0, 2.0, 4.0), name="probe"):
    return HistogramSpec(
        name=name, buckets=buckets, unit="logical", description="test"
    )


class TestHistogram:
    def test_records_land_in_inclusive_upper_bound_buckets(self):
        hist = Histogram(spec())
        for value in (0.5, 1.0, 1.5, 2.0, 3.9, 100.0):
            hist.record(value)
        # buckets: <=1 holds 2, <=2 holds 2, <=4 holds 1, overflow holds 1
        assert hist.percentile(2 / 6) == 1.0
        assert hist.percentile(3 / 6) == 2.0
        assert hist.percentile(4 / 6) == 2.0
        assert hist.percentile(5 / 6) == 4.0
        assert hist.percentile(1.0) == 100.0
        assert hist.count == 6
        assert hist.max == 100.0
        assert hist.total == pytest.approx(sum((0.5, 1.0, 1.5, 2.0, 3.9, 100.0)))

    def test_percentile_is_bucket_upper_bound_nearest_rank(self):
        hist = Histogram(spec())
        for _ in range(99):
            hist.record(0.5)
        hist.record(3.0)
        assert hist.percentile(0.50) == 1.0
        assert hist.percentile(0.99) == 1.0
        assert hist.percentile(1.0) == 4.0

    def test_percentile_overflow_bucket_reports_observed_max(self):
        hist = Histogram(spec())
        hist.record(50.0)
        assert hist.percentile(0.5) == 50.0

    def test_empty_percentile_is_zero(self):
        assert Histogram(spec()).percentile(0.95) == 0.0

    def test_percentile_fraction_validated(self):
        hist = Histogram(spec())
        with pytest.raises(ObservabilityError):
            hist.percentile(0.0)
        with pytest.raises(ObservabilityError):
            hist.percentile(1.5)

    def test_a_counted_record_is_that_many_observations(self):
        counted, repeated = Histogram(spec()), Histogram(spec())
        counted.record(1.5, 3)
        counted.record(3.0)
        for value in (1.5, 1.5, 1.5, 3.0):
            repeated.record(value)
        assert (counted.count, counted.total, counted.max) == (4, 7.5, 3.0)
        for fraction in (0.25, 0.5, 0.75, 1.0):
            assert counted.percentile(fraction) == repeated.percentile(fraction)
        assert counted.percentile(0.75) == 2.0
        assert counted.percentile(1.0) == 4.0

    def test_buckets_must_be_strictly_increasing(self):
        with pytest.raises(ObservabilityError):
            Histogram(spec(buckets=(1.0, 1.0, 2.0)))
        with pytest.raises(ObservabilityError):
            Histogram(spec(buckets=()))


class TestDeclaredHistograms:
    def test_observability_holds_each_declared_histogram(self):
        obs = Observability(clock=lambda: 0.0)
        assert [h.spec for h in obs.histograms.values()] == list(HISTOGRAMS)


class TestHistogramPercentilesFold:
    def test_observability_off_yields_all_keys_as_zero(self):
        folded = histogram_percentiles(None)
        assert len(folded) == len(HISTOGRAMS) * len(PERCENTILE_POINTS)
        assert set(folded.values()) == {0.0}
        for declared in HISTOGRAMS:
            for suffix, _ in PERCENTILE_POINTS:
                assert f"{declared.name}_{suffix}" in folded

    def test_live_histograms_surface_recorded_percentiles(self):
        histograms = Observability(clock=lambda: 0.0).histograms
        for _ in range(100):
            histograms["answer_latency"].record(1.0)
        folded = histogram_percentiles(histograms)
        assert folded["answer_latency_p50"] == 1.0
        assert folded["answer_latency_p99"] == 1.0
        assert folded["hop_delay_p50"] == 0.0
