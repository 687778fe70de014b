"""Figure 9 — using lower-level interfaces (id-movement load balancing).

Regenerates the ranked-node query-processing and storage load distributions
of RJoin with and without the id-movement load balancing of Karger & Ruhl
plugged in underneath.

Expected shape (paper): id movement removes load from the most loaded nodes
(the paper reports roughly a 2× reduction of the peak) and lets more nodes
participate in query processing.
"""

import pytest

from repro.experiments.figures import figure


@pytest.mark.benchmark(group="figure9")
def test_figure9_id_movement(benchmark):
    result = benchmark.pedantic(figure, args=("fig9",), rounds=1, iterations=1)
    print()
    print(result.to_text())

    max_storage_without, max_storage_with = result.series["max_storage"]
    participating_without, participating_with = result.series["participating_nodes"]

    # Id movement must not make the peak storage worse, and should help.
    assert max_storage_with <= max_storage_without
    # At least as many nodes participate in query processing.
    assert participating_with >= participating_without
    # The full ranked distributions are reported for both configurations.
    assert len(result.distributions["storage_ranked_with"]) == len(
        result.distributions["storage_ranked_without"]
    )
