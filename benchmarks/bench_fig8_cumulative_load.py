"""Figure 8 — cumulative load created with each new tuple per window size.

Regenerates the cumulative query-processing-load and storage-load curves,
one per sliding-window size, sampled after every published tuple.

Expected shape (paper): every curve is non-decreasing; larger windows
accumulate load faster, so the curves are ordered by window size, and small
windows keep the final cumulative load substantially lower.
"""

import pytest

from repro.experiments.figures import figure


@pytest.mark.benchmark(group="figure8")
def test_figure8_cumulative_load(benchmark):
    result = benchmark.pedantic(figure, args=("fig8",), rounds=1, iterations=1)
    print()
    print(result.to_text())

    final_qpl = result.series["final_cumulative_qpl"]
    final_storage = result.series["final_cumulative_storage"]

    # Larger windows accumulate more load (compare the extremes).
    assert final_qpl[-1] > final_qpl[0]
    assert final_storage[-1] > final_storage[0]

    for label in result.labels:
        qpl_curve = result.distributions[f"cumulative_qpl_{label}"]
        storage_curve = result.distributions[f"cumulative_storage_{label}"]
        # Cumulative curves are non-decreasing and have one point per tuple.
        assert qpl_curve == sorted(qpl_curve)
        assert storage_curve == sorted(storage_curve)
        assert len(qpl_curve) == len(storage_curve)
