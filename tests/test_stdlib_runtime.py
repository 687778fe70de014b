"""The runtime needs nothing beyond Python's standard library.

Every process that imports ``repro`` pays the resident memory of what the
import pulls in (numpy alone is ~14 MB), so the package, the workload
generator and an engine on either store backend must load no third-party
module.  The check runs in a fresh interpreter: the modules loaded before
the first ``repro`` import (``site`` hooks such as ``_distutils_hack``) are
the baseline and do not count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import json, sys

before = set(sys.modules)

import repro
import repro.workload
from repro import RJoinConfig, RJoinEngine, WorkloadGenerator, WorkloadSpec

generator = WorkloadGenerator(WorkloadSpec(num_relations=3, join_arity=2, seed=5))
queries = generator.generate_queries(4)
tuples = [(t.relation, t.values) for t in generator.generate_tuples(30)]
for store in ("memory", "sqlite"):
    engine = RJoinEngine(RJoinConfig(num_nodes=8, seed=3, store_backend=store))
    engine.register_catalog(generator.catalog)
    for query in queries:
        engine.submit(query)
    engine.publish_batch(tuples)
    engine.close()

loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(
    name for name in loaded
    if name != "repro" and name not in sys.stdlib_module_names
)))
"""


def test_importing_and_running_loads_only_the_standard_library():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
