"""Figure 2 — effect of taking RIC information into account.

Regenerates the three panels of Figure 2: total messages per node (with the
"Request RIC" series — the RIC questions actually sent: one per key in
flight per node), query-processing load per node and storage load per
node, for the Worst / Random / RJoin indexing strategies, after increasing
numbers of incoming tuples.

Expected shape (paper): Worst ≫ Random ≫ RJoin on every metric, with the
RIC-request traffic being only a part of RJoin's total.  Set
``REPRO_FULL_SCALE=1`` for the paper-scale run (10³ nodes, 2·10⁴ queries).
"""

import pytest

from repro.experiments.figures import figure


@pytest.mark.benchmark(group="figure2")
def test_figure2_ric_effect(benchmark):
    result = benchmark.pedantic(figure, args=("fig2",), rounds=1, iterations=1)
    print()
    print(result.to_text())

    last = -1
    # Panel (a): traffic per node — the bad plans cost more, and RJoin's RIC
    # requests are only a fraction of its total traffic.
    assert (
        result.series["worst_messages_per_node"][last]
        > result.series["rjoin_messages_per_node"][last]
    )
    assert (
        result.series["rjoin_ric_messages_per_node"][last]
        <= result.series["rjoin_messages_per_node"][last]
    )
    # Panel (b): query processing load ordering Worst >= Random >= RJoin.
    assert (
        result.series["worst_qpl_per_node"][last]
        >= result.series["random_qpl_per_node"][last]
        >= result.series["rjoin_qpl_per_node"][last]
    )
    # Panel (c): storage load ordering Worst >= Random >= RJoin.
    assert (
        result.series["worst_storage_per_node"][last]
        >= result.series["random_storage_per_node"][last]
        >= result.series["rjoin_storage_per_node"][last]
    )
    # Load grows with the number of incoming tuples for every strategy.
    for name in ("worst_qpl_per_node", "random_qpl_per_node", "rjoin_qpl_per_node"):
        series = result.series[name]
        assert series == sorted(series)
