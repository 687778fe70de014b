"""Smoke tests for the figure harness (tiny overrides, qualitative assertions)."""

import importlib.util
from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.experiments.figures import FIGURES, figure
from repro.experiments.scenarios import sweep, window_sweep

_RUN_ALL_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "run_all.py"


def _smoke_figures():
    """``benchmarks/run_all.py``'s smoke arguments, one entry per figure."""
    spec = importlib.util.spec_from_file_location("bench_run_all", _RUN_ALL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.SMOKE_FIGURES)


SMOKE_FIGURES = _smoke_figures()


class TestEveryFigure:
    def test_smoke_sizes_cover_every_figure(self):
        assert sorted(SMOKE_FIGURES) == sorted(FIGURES)

    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_series_and_distributions_are_well_formed(self, name):
        fig = figure(name, **SMOKE_FIGURES[name])
        for series, values in fig.series.items():
            assert len(values) == len(fig.x_values), series
        for key in fig.distributions:
            assert any(key.endswith(f"_{label}") for label in fig.labels), key

    def test_unknown_figure_is_refused(self):
        with pytest.raises(ExperimentError, match="unknown figure 'fig1'"):
            figure("fig1")


class TestFigure2:
    def test_strategy_ordering_holds(self):
        fig = figure(
            "fig2", num_nodes=24, num_queries=40, num_tuples=40, checkpoints=[20, 40]
        )
        last = -1
        worst = fig.series["worst_qpl_per_node"][last]
        random_ = fig.series["random_qpl_per_node"][last]
        rjoin = fig.series["rjoin_qpl_per_node"][last]
        assert worst >= random_ >= rjoin
        assert (
            fig.series["worst_storage_per_node"][last]
            >= fig.series["rjoin_storage_per_node"][last]
        )
        # RIC traffic is only a part of RJoin's total traffic.
        assert (
            fig.series["rjoin_ric_messages_per_node"][last]
            <= fig.series["rjoin_messages_per_node"][last]
        )
        text = fig.to_text()
        assert "Figure 2" in text and "worst_qpl_per_node" in text


    @pytest.mark.parametrize("seed", [42, 43, 44])
    def test_traffic_ordering_holds(self, seed):
        """Paper claim (Fig. 2, its headline metric): choosing by RIC
        information costs less traffic than choosing at random, asking
        included, and that less than the worst choice."""
        fig = figure(
            "fig2",
            seed=seed,
            num_nodes=24,
            num_queries=40,
            num_tuples=40,
            checkpoints=[20, 40],
        )
        worst, random_, rjoin = (
            fig.series[f"{strategy}_messages_per_node"][-1]
            for strategy in ("worst", "random", "rjoin")
        )
        assert worst >= random_ >= rjoin

    @pytest.mark.parametrize("seed", [42, 43, 44])
    def test_request_ric_share_of_rjoin_traffic(self, seed):
        """Characterisation, not a paper claim (the repo records no number
        for it): asking is 30-38 % of what RJoin sends by the last checkpoint
        at this size, and a smaller part of it than at the first — the
        candidate tables fill, with rates and with the arcs to ask on.

        Re-pinned from 24-30 %: tuples and queries travel on the cached arcs
        too now, and a routed message is answered with the arcs its owner
        knows, so RJoin's total traffic more than halved here (156 -> 69,
        130 -> 50, 139 -> 55 messages per node on seeds 42-44) and the
        asking fell with it, by less (47 -> 26, 31 -> 15, 36 -> 18) — the
        share rose because its denominator shrank faster.

        Read again when a decision stopped asking what cannot change it and
        a query stopped carrying its ancestors' entries, and left where it
        was: 4 of this cell's 220 decisions have a lone candidate and 2
        questions are spared, and entries are read again at their 8th use
        on seed 42 alone (+0.3 RIC messages per node), so the share reads 0.381 / 0.302 / 0.328 at
        the last checkpoint (0.382 / 0.302 / 0.330 before), RIC 26.3 / 15.0 /
        17.8 of 69.0 / 49.8 / 54.3 messages per node (26.4 / 15.0 / 18.0 of
        69.2 / 49.8 / 54.5), and 0.438 / 0.426 / 0.442 at the first."""
        fig = figure(
            "fig2",
            seed=seed,
            num_nodes=24,
            num_queries=40,
            num_tuples=40,
            checkpoints=[20, 40],
        )
        first, last = (
            ric / total
            for ric, total in zip(
                fig.series["rjoin_ric_messages_per_node"],
                fig.series["rjoin_messages_per_node"],
            )
        )
        assert 0.26 <= last <= 0.42
        assert last < first


class TestFigure3:
    def test_load_grows_with_tuples(self):
        fig = figure(
            "fig3",
            num_nodes=24,
            num_queries=40,
            variants=sweep("num_tuples", [10, 30]),
        )
        qpl_small = sum(fig.distributions["qpl_ranked_num_tuples=10"])
        qpl_large = sum(fig.distributions["qpl_ranked_num_tuples=30"])
        assert qpl_large >= qpl_small
        assert (
            fig.series["participating_nodes"][1]
            >= fig.series["participating_nodes"][0]
        )


class TestFigure7:
    def test_larger_windows_cost_more(self):
        fig = figure(
            "fig7",
            num_nodes=24,
            num_queries=40,
            num_tuples=60,
            variants=window_sweep([10, 40]),
        )
        qpl = fig.series["qpl_per_node"]
        storage = fig.series["total_current_storage"]
        assert qpl[1] >= qpl[0]
        assert storage[1] >= storage[0]


class TestFigure9:
    def test_id_movement_does_not_increase_peak_load(self):
        fig = figure("fig9", num_nodes=24, num_queries=60, num_tuples=60)
        max_without, max_with = fig.series["max_storage"]
        assert max_with <= max_without
        participating_without, participating_with = fig.series["participating_nodes"]
        assert participating_with >= participating_without
