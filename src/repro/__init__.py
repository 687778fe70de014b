"""RJoin — continuous multi-way equi-joins over Distributed Hash Tables.

A faithful, fully simulated reproduction of *Continuous Multi-Way Joins over
Distributed Hash Tables* (Idreos, Liarou, Koubarakis — EDBT 2008): the RJoin
algorithm, the Chord substrate it runs on, the sliding-window / DISTINCT /
RIC extensions, the baselines it is compared against, and the complete
experiment harness of the paper's Section 8.

Typical usage::

    from repro import RJoinConfig, RJoinEngine, WindowSpec

    engine = RJoinEngine(RJoinConfig(num_nodes=32, seed=1))
    engine.register_relation("R", ["a", "b"])
    engine.register_relation("S", ["c", "d"])

    handle = engine.submit("SELECT R.a, S.d FROM R, S WHERE R.b = S.c")
    engine.publish("R", (1, 10))
    engine.publish("S", (10, 99))
    print(handle.values())           # [(1, 99)]

The engine runs on a selectable node runtime (``RJoinConfig(runtime=...)``):
the deterministic discrete-event kernel (``sim``) or the concurrent
actor-per-node ``asyncio`` runtime; see :mod:`repro.net.runtime`.

The experiment harness is importable from the package root too — those
names resolve lazily (via :pep:`562`) so ``import repro`` stays light::

    from repro import ExperimentConfig, run_experiment, run_grid, get_scenario

See ``examples/`` for richer scenarios, ``benchmarks/`` for the harness that
regenerates every figure of the paper, and ``python -m repro`` for the
command-line entry points.
"""

from typing import Any

from repro.core.answers import Answer, QueryHandle
from repro.core.config import RJoinConfig
from repro.core.engine import RJoinEngine
from repro.core.reference import ReferenceEngine
from repro.core.strategy import available_strategies, make_strategy
from repro.data.backends import BACKEND_NAMES, make_store
from repro.data.schema import AttributeRef, Catalog, RelationSchema
from repro.data.tuples import Tuple
from repro.errors import ReproError
from repro.net.runtime import TRANSPORT_NAMES, Transport, make_transport
from repro.net.simulator import SimulationKernel
from repro.sql.ast import (
    Constant,
    JoinPredicate,
    Query,
    SelectionPredicate,
    WindowSpec,
)
from repro.sql.parser import parse_query
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

__version__ = "1.1.0"

__all__ = [
    "Answer",
    "AttributeRef",
    "BACKEND_NAMES",
    "Catalog",
    "ChurnSpec",
    "Constant",
    "ExperimentConfig",
    "JoinPredicate",
    "Query",
    "QueryChurnSpec",
    "QueryHandle",
    "ReferenceEngine",
    "RelationSchema",
    "ReproError",
    "RJoinConfig",
    "RJoinEngine",
    "SelectionPredicate",
    "SimulationKernel",
    "TRANSPORT_NAMES",
    "Transport",
    "Tuple",
    "WindowSpec",
    "WorkloadGenerator",
    "WorkloadSpec",
    "available_strategies",
    "get_scenario",
    "make_store",
    "make_strategy",
    "make_transport",
    "parse_query",
    "run_experiment",
    "run_grid",
    "__version__",
]

#: Experiment-harness entry points, resolved lazily on first attribute access
#: so that ``import repro`` does not pay for the grid runner (multiprocessing,
#: scenario registry, figure machinery).
_LAZY_EXPORTS = {
    "ChurnSpec": ("repro.experiments.config", "ChurnSpec"),
    "ExperimentConfig": ("repro.experiments.config", "ExperimentConfig"),
    "QueryChurnSpec": ("repro.experiments.config", "QueryChurnSpec"),
    "get_scenario": ("repro.experiments.scenarios", "get_scenario"),
    "run_experiment": ("repro.experiments.runner", "run_experiment"),
    "run_grid": ("repro.experiments.parallel", "run_grid"),
}


def __getattr__(name: str) -> Any:
    """:pep:`562` hook: the lazy experiment exports."""
    import importlib

    if name in _LAZY_EXPORTS:
        module_name, attribute = _LAZY_EXPORTS[name]
        value = getattr(importlib.import_module(module_name), attribute)
        globals()[name] = value  # cache: subsequent lookups skip this hook
        return value
    # PEP 562 requires AttributeError here: hasattr()/getattr() probing
    # depends on it, so the exception-discipline rule exempts it.
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
