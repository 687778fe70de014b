"""Self-tests of the benchmark: ``python -m pytest benchmarks/e2e/tests``."""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
for path in (E2E, E2E.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from workloads import BY_NAME  # noqa: E402


@pytest.fixture
def small_flood():
    """answer_flood at smoke size (same traffic shape, a third of the network)."""
    return replace(BY_NAME["answer_flood"], num_nodes=8, num_queries=6, warmup_calls=40,
                   timed_calls=60)


@pytest.fixture
def small_batch():
    """batch_ingest_sqlite at smoke size.

    A burst of 20 is a fifth of this window (a twenty-fifth of the real one),
    so the known ``publish_batch`` finding costs a larger share of the answers.
    """
    return replace(BY_NAME["batch_ingest_sqlite"], num_nodes=8, num_queries=8,
                   value_domain=12, window=100, warmup_calls=5, timed_calls=30,
                   tolerated_missing_share=0.2)
