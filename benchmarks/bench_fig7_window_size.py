"""Figure 7 — effect of the sliding-window size (W).

Regenerates the per-tuple traffic cost and the ranked-node QPL / storage
distributions for sliding-window joins with increasing window sizes.

Expected shape (paper): larger windows keep more combinations alive, so
traffic, query-processing load and storage all grow with W; small windows
garbage-collect rewritten queries early and keep the state small.
"""

import pytest

from repro.experiments.figures import figure


@pytest.mark.benchmark(group="figure7")
def test_figure7_window_size(benchmark):
    result = benchmark.pedantic(figure, args=("fig7",), rounds=1, iterations=1)
    print()
    print(result.to_text())

    qpl = result.series["qpl_per_node"]
    storage = result.series["total_current_storage"]
    traffic = result.series["messages_per_node_per_tuple"]

    # Larger windows -> more query processing, more live state, more traffic.
    assert qpl[-1] > qpl[0]
    assert storage[-1] > storage[0]
    assert traffic[-1] >= traffic[0]
    # The ranked distributions keep the same pattern: every window size keeps
    # a comparable share of nodes involved.
    small = result.distributions[f"qpl_ranked_{result.labels[0]}"]
    large = result.distributions[f"qpl_ranked_{result.labels[-1]}"]
    assert sum(1 for v in large if v > 0) >= sum(1 for v in small if v > 0)
