"""The package's public face: ``repro`` exports, shims and the umbrella CLI.

The API redesign promises three things at the package root:

* every name in ``repro.__all__`` resolves (eagerly or lazily via
  :pep:`562`), and the documented quickstart import works,
* the deprecation shims of the transport extraction (``repro.EventHandle``,
  ``simulator.EventHandle``, ``DHTMessagingService.kernel``) have been
  removed, and the kernel a service defaults to *is* its transport,
* ``python -m repro`` dispatches to the sub-CLIs while the historical
  direct invocations stay untouched.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

import repro
from repro.__main__ import main as umbrella_main


class TestPublicExports:
    def test_every_name_in_all_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_lazy_exports_are_cached_after_first_access(self):
        value = repro.ExperimentConfig
        assert "ExperimentConfig" in vars(repro)
        assert repro.ExperimentConfig is value

    def test_lazy_exports_point_at_their_home_modules(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_experiment

        assert repro.ExperimentConfig is ExperimentConfig
        assert repro.run_experiment is run_experiment

    def test_dir_lists_the_public_api(self):
        listing = dir(repro)
        for name in ("RJoinEngine", "run_grid", "make_transport"):
            assert name in listing

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.does_not_exist
        assert not hasattr(repro, "does_not_exist")

    def test_documented_quickstart_works(self):
        engine = repro.RJoinEngine(repro.RJoinConfig(num_nodes=8, seed=1))
        engine.register_relation("R", ["a", "b"])
        engine.register_relation("S", ["c", "d"])
        handle = engine.submit("SELECT R.a, S.d FROM R, S WHERE R.b = S.c")
        engine.publish("R", (1, 10))
        engine.publish("S", (10, 99))
        assert handle.values() == [(1, 99)]
        engine.close()


class TestDeprecationShimsAreGone:
    def test_package_event_handle_is_gone(self):
        with pytest.raises(AttributeError, match="no attribute 'EventHandle'"):
            repro.EventHandle

    def test_simulator_event_handle_is_gone(self):
        import repro.net.simulator as simulator

        with pytest.raises(AttributeError, match="EventHandle"):
            simulator.EventHandle

    def test_messaging_kernel_property_and_bare_kernel_argument_are_gone(self):
        from repro.dht.api import DHTMessagingService
        from repro.dht.chord import ChordRing
        from repro.dht.hashing import IdentifierSpace
        from repro.net.simulator import SimulationKernel

        ring = ChordRing.create_network(4, space=IdentifierSpace(16), seed=1)
        service = DHTMessagingService(ring)
        with pytest.raises(AttributeError, match="kernel"):
            service.kernel
        # The bare-kernel argument is a transport now: there is no wrapper
        # and no ``Transport.kernel`` to reach through.
        assert isinstance(service.transport, SimulationKernel)
        assert not hasattr(service.transport, "kernel")


class TestUmbrellaCli:
    def test_help_exits_zero(self, capsys):
        assert umbrella_main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "experiments" in out and "analysis" in out

    def test_no_arguments_prints_usage_and_fails(self, capsys):
        assert umbrella_main([]) == 2
        assert "usage:" in capsys.readouterr().out

    def test_unknown_command_fails_with_usage(self, capsys):
        assert umbrella_main(["teleport"]) == 2
        err = capsys.readouterr().err
        assert "unknown command 'teleport'" in err
        assert "usage:" in err

    def test_experiments_subcommand_forwards(self, capsys):
        assert umbrella_main(["experiments", "list"]) == 0
        assert "baseline" in capsys.readouterr().out

    def test_analysis_subcommand_forwards(self, capsys):
        assert umbrella_main(["analysis", "list"]) == 0
        assert "determinism-purity" in capsys.readouterr().out

    def test_module_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "experiments", "list"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "baseline" in proc.stdout

    def test_direct_invocations_still_work(self):
        for module in ("repro.experiments", "repro.analysis"):
            proc = subprocess.run(
                [sys.executable, "-m", module, "--help"],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
