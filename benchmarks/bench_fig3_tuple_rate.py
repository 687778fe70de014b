"""Figure 3 — effect of increasing the number of incoming tuples.

Regenerates the per-tuple traffic cost (total vs RIC-request), and the
ranked-node query-processing / storage load distributions of RJoin as the
number of incoming tuples grows.

Expected shape (paper): the per-tuple cost grows slowly (RIC information is
cached and piggy-backed, so its share shrinks), and more nodes participate in
query processing as more distinct values spread rewritten queries around the
network.
"""

import pytest

from repro.experiments.figures import figure


@pytest.mark.benchmark(group="figure3")
def test_figure3_tuple_rate(benchmark):
    result = benchmark.pedantic(figure, args=("fig3",), rounds=1, iterations=1)
    print()
    print(result.to_text())

    smallest, largest = result.labels[0], result.labels[-1]

    # Total load grows with the number of tuples.
    assert sum(result.distributions[f"qpl_ranked_{largest}"]) >= sum(
        result.distributions[f"qpl_ranked_{smallest}"]
    )
    assert sum(result.distributions[f"storage_ranked_{largest}"]) >= sum(
        result.distributions[f"storage_ranked_{smallest}"]
    )
    # More tuples -> more participating nodes (the distribution flattens).
    participation = result.series["participating_nodes"]
    assert participation[-1] >= participation[0]
    # RIC traffic is only a part of the total per-tuple traffic.
    for total, ric in zip(
        result.series["messages_per_node_per_tuple"],
        result.series["ric_messages_per_node_per_tuple"],
    ):
        assert ric <= total
