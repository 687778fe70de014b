"""Figure 6 — effect of query complexity (4-, 6- and 8-way joins).

Regenerates the per-tuple traffic cost and the ranked-node QPL / storage
distributions for increasing join arity.

Expected shape (paper): more complex queries (longer join paths) need more
network traffic, more query-processing load and more storage, while the extra
load keeps being shared among the nodes in a similar pattern.
"""

import pytest

from repro.experiments.figures import figure


@pytest.mark.benchmark(group="figure6")
def test_figure6_join_arity(benchmark):
    result = benchmark.pedantic(figure, args=("fig6",), rounds=1, iterations=1)
    print()
    print(result.to_text())

    arities = result.labels
    qpl_totals = [sum(result.distributions[f"qpl_ranked_{a}"]) for a in arities]
    storage_totals = [sum(result.distributions[f"storage_ranked_{a}"]) for a in arities]

    # Longer join paths cost more processing and storage.
    assert qpl_totals[-1] >= qpl_totals[0]
    assert storage_totals[-1] >= storage_totals[0]
    assert result.series["qpl_per_node"][-1] >= result.series["qpl_per_node"][0]
    # Load keeps being spread over many nodes even for 8-way joins.
    eight_way = result.distributions[f"qpl_ranked_{arities[-1]}"]
    assert sum(1 for load in eight_way if load > 0) > len(eight_way) * 0.3
