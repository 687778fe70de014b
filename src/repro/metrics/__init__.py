"""Load metrics and reporting.

The experimental section measures three quantities per node (Section 8):

* **network traffic** — messages sent or routed (see
  :class:`repro.net.stats.TrafficStats`),
* **query processing load (QPL)** — rewritten queries received to search for
  locally stored tuples plus tuples received to search for locally stored
  queries,
* **storage load (SL)** — rewritten queries plus tuples stored locally.

:class:`~repro.metrics.collectors.LoadTracker` maintains QPL/SL per node;
:mod:`repro.metrics.report` provides the load-imbalance ratio and the
text-table rendering used by the figures, the CLI and the benchmark harness.
"""

from repro.metrics.collectors import (
    ChurnStats,
    LoadTracker,
    NodeLoad,
)
from repro.metrics.report import format_table

__all__ = [
    "ChurnStats",
    "LoadTracker",
    "NodeLoad",
    "format_table",
]
