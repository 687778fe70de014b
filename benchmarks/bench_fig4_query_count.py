"""Figure 4 — effect of increasing the number of indexed queries.

Regenerates the per-tuple traffic cost and the ranked-node QPL / storage
distributions as the number of indexed continuous queries grows.

Expected shape (paper): more indexed queries mean more triggered rewrites and
therefore more load, but the ranked-node distribution keeps the same pattern
(the extra load is shared by many nodes).
"""

import pytest

from repro.experiments.figures import figure
from repro.metrics.report import load_imbalance


@pytest.mark.benchmark(group="figure4")
def test_figure4_query_count(benchmark):
    result = benchmark.pedantic(figure, args=("fig4",), rounds=1, iterations=1)
    print()
    print(result.to_text())

    counts = result.labels
    qpl_totals = [sum(result.distributions[f"qpl_ranked_{c}"]) for c in counts]
    storage_totals = [sum(result.distributions[f"storage_ranked_{c}"]) for c in counts]

    # More indexed queries -> more total QPL and storage load.
    assert qpl_totals == sorted(qpl_totals)
    assert storage_totals[-1] >= storage_totals[0]
    # Per-tuple traffic grows with the number of waiting queries.
    traffic = result.series["messages_per_node_per_tuple"]
    assert traffic[-1] >= traffic[0]
    # The distribution pattern stays comparable: the load imbalance of the
    # largest workload stays within an order of magnitude of the smallest.
    smallest = load_imbalance(result.distributions[f"qpl_ranked_{counts[0]}"])
    largest = load_imbalance(result.distributions[f"qpl_ranked_{counts[-1]}"])
    assert largest <= smallest * 10 + 10
