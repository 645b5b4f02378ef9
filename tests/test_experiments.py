"""Tests for the experiment harness, reporting, workloads, and registry."""

from __future__ import annotations

import pytest

from repro.analysis.fitting import fit_cost_exponent
from repro.experiments import (
    ExperimentResult,
    ExperimentSettings,
    render_result,
    render_table,
)
from repro.experiments import (
    exp_adversary_ablation,
    exp_cost_scaling,
    exp_mobile_jammer,
    exp_tournament,
)
from repro.experiments.registry import EXPERIMENTS, experiment_ids, run_experiment
from repro.experiments.reporting import format_value
from repro.experiments.workloads import blocking_adversary, saturation_spend, spend_sweep
from repro.simulation import PhaseContext, PhaseKind, PhasePlan, PhaseRoles, SimulationConfig
from repro.simulation.errors import ConfigurationError


class TestExperimentSettings:
    def test_trial_seeds_are_deterministic_and_distinct(self):
        settings = ExperimentSettings(seed=5)
        assert settings.trial_seed("E1", 0) == settings.trial_seed("E1", 0)
        assert settings.trial_seed("E1", 0) != settings.trial_seed("E1", 1)
        assert settings.trial_seed("E1", 0) != settings.trial_seed("E2", 0)

    def test_with_copies(self):
        settings = ExperimentSettings(n=512)
        assert settings.with_(n=128).n == 128
        assert settings.n == 512

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"n": 1}, "n"),
            ({"n": 2.5}, "n"),
            ({"trials": 0}, "trials"),
            ({"seed": "2012"}, "seed"),
            ({"trials": True}, "trials"),
            ({"seed": False}, "seed"),
            ({"jobs": True}, "jobs"),
        ],
    )
    def test_degenerate_settings_rejected(self, kwargs, field):
        # Error messages name the offending field and echo the received value.
        value = repr(kwargs[field])
        with pytest.raises(ConfigurationError, match=f"ExperimentSettings.{field}") as info:
            ExperimentSettings(**kwargs)
        assert value in str(info.value)


class TestExperimentResult:
    def test_add_row_and_column_values(self):
        result = ExperimentResult("EX", "title", "claim", columns=["a", "b"])
        result.add_row(a=1.0, b="x")
        result.add_row(a=2.0, b="y")
        assert result.column_values("a") == [1.0, 2.0]
        assert result.column_values("b") == []

    def test_notes_and_summaries(self):
        result = ExperimentResult("EX", "title", "claim", columns=["a"])
        result.add_note("hello")
        result.summaries["metric"] = 1.5
        text = render_result(result)
        assert "hello" in text and "metric" in text and "claim" in text


class TestAcceptanceClaims:
    """The named claims fail on tables that break them, not only pass on the docs panel."""

    @staticmethod
    def _panel(*rows):
        result = ExperimentResult("EX", "title", "claim", columns=sorted(rows[0]))
        for row in rows:
            result.add_row(**row)
        return [result]

    @pytest.mark.parametrize(
        "reactive, holds", [(0.343, True), (0.425, False), (0.5, False)]
    )
    def test_reactive_below_static_is_strict(self, reactive, holds):
        claim = exp_mobile_jammer.CHECKS["reactive_below_static_per_spend"]
        panel = self._panel(
            {"scenario": "static disk", "delivery_per_mspend": 0.425},
            {"scenario": "patrol", "delivery_per_mspend": 0.1},
            {"scenario": "reactive disk", "delivery_per_mspend": reactive},
        )
        assert claim(panel) is holds

    @staticmethod
    def _cell(flag="ok", node_exponent=1.2, ci_low=1.0, ci_high=1.4):
        return {
            "flag": flag,
            "node_exponent": node_exponent,
            "ci_low": ci_low,
            "ci_high": ci_high,
        }

    @pytest.mark.parametrize("flag", sorted(exp_tournament.CELL_FLAGS - {"ok"}))
    def test_sentinel_cells_pass_without_an_exponent(self, flag):
        claim = exp_tournament.CHECKS["cells_fitted_or_flagged"]
        sentinel = self._cell(flag, node_exponent="—", ci_low="—", ci_high="—")
        assert claim(self._panel(self._cell(), sentinel))

    def test_unknown_flag_fails(self):
        claim = exp_tournament.CHECKS["cells_fitted_or_flagged"]
        assert not claim(self._panel(self._cell(), self._cell("diverged")))

    @pytest.mark.parametrize("column", ["node_exponent", "ci_low", "ci_high"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "—"], ids=repr)
    def test_ok_cell_without_a_finite_fit_fails(self, column, value):
        claim = exp_tournament.CHECKS["cells_fitted_or_flagged"]
        assert not claim(self._panel(self._cell(), self._cell(**{column: value})))


class TestReporting:
    def test_format_value_variants(self):
        assert format_value(True) == "yes"
        assert format_value(0.0) == "0"
        assert format_value(123456.0) == "1.23e+05"
        assert format_value(12.34) == "12.3"
        assert format_value(0.5) == "0.500"
        assert format_value("text") == "text"

    def test_render_table_alignment(self):
        table = render_table(["col", "value"], [{"col": "a", "value": 1.0}, {"col": "bb", "value": 22.0}])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("col")
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_render_table_handles_missing_cells(self):
        table = render_table(["a", "b"], [{"a": 1.0}])
        assert "1.000" in table


class TestWorkloads:
    def test_spend_sweep_is_increasing_and_within_budget(self):
        config = SimulationConfig(n=256, f=1.0)
        sweep = spend_sweep(config, points=5, quick=False)
        assert sweep == sorted(sweep)
        assert sweep[-1] <= config.adversary_total_budget
        assert len(sweep) == 5

    def test_saturation_spend_positive(self):
        config = SimulationConfig(n=256)
        assert saturation_spend(config) > 0

    def test_blocking_adversary_targets_inform_only(self):
        adversary = blocking_adversary(1000)
        assert adversary.max_total_spend == 1000
        config = SimulationConfig(n=64)
        for kind in PhaseKind:
            plan = PhasePlan(name=kind.value, kind=kind, round_index=3, num_slots=100)
            context = PhaseContext(plan=plan, roles=PhaseRoles(range(64)), config=config)
            jam = adversary.plan_phase(context)
            assert jam.num_jam_slots == (100 if kind is PhaseKind.INFORM else 0), kind

    def test_ablation_roster_contents(self):
        strategies = exp_adversary_ablation.STRATEGIES
        assert {"none", "continuous", "phase_blocker", "reactive"} <= set(strategies)
        adversary = strategies["continuous"](1000)
        assert adversary.max_total_spend == 1000


class TestRegistry:
    def test_all_experiments_registered(self):
        assert experiment_ids() == [f"E{i}" for i in range(1, 15)]
        for spec in EXPERIMENTS.values():
            assert spec.title and spec.claim

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    def test_delivery_experiment_runs_end_to_end(self):
        settings = ExperimentSettings(n=96, trials=1, quick=True, seed=3)
        result = run_experiment("E2", settings)
        assert result.experiment_id == "E2"
        assert result.rows
        assert all("delivery_fraction" in row for row in result.rows)
        # The no-attack scenario always informs everyone.
        assert result.rows[0]["delivery_fraction"] == pytest.approx(1.0)

    def test_cost_scaling_fits_every_trial_above_saturation(self, monkeypatch):
        fits = []

        def recording_fit(spends, costs, **kwargs):
            fits.append(fit_cost_exponent(spends, costs, **kwargs))
            return fits[-1]

        monkeypatch.setattr(exp_cost_scaling, "fit_cost_exponent", recording_fit)
        settings = ExperimentSettings(n=256, trials=3, quick=True, seed=2012, cache_dir="")
        result = run_experiment("E1", settings)

        config = SimulationConfig(n=settings.n, k=2, f=1.0, seed=settings.seed)
        above = [cap for cap in spend_sweep(config, points=6) if cap >= saturation_spend(config)]
        alice_fit, node_fit = fits
        assert node_fit.ok and alice_fit.ok
        assert node_fit.n_points == settings.trials * len(above)
        assert alice_fit.n_points == node_fit.n_points
        assert result.summaries["node_exponent"] == node_fit.exponent

    def test_spoofing_experiment_runs_end_to_end(self):
        settings = ExperimentSettings(n=96, trials=1, quick=True, seed=3)
        result = run_experiment("E10", settings)
        assert result.experiment_id == "E10"
        assert len(result.rows) >= 3
        assert all(row["delivery_fraction"] == pytest.approx(1.0) for row in result.rows)

    def test_quiet_rule_ablation_runs_end_to_end(self):
        settings = ExperimentSettings(n=96, trials=1, quick=True, seed=2012)
        result = run_experiment("E13", settings)
        assert result.experiment_id == "E13"
        rules = {row["rule"] for row in result.rows}
        assert {"paper", "constant R=6", "degree hops=1", "degree-aware (default)"} == rules
        # Paired seeds: every rule sees the same realised graphs, so the
        # reachable fraction is constant within a scenario.
        for scenario in {row["scenario"] for row in result.rows}:
            fractions = {
                row["reachable_fraction"]
                for row in result.rows
                if row["scenario"] == scenario
            }
            assert len(fractions) == 1
        # The E13 acceptance summaries guard both misfire directions.
        assert result.summaries["sub_cost_degree_vs_constant"] <= 2.0
        assert result.summaries["near_dvr_degree"] >= 0.97

    def test_mobile_jammer_experiment_runs_end_to_end(self):
        settings = ExperimentSettings(n=128, trials=2, quick=True, seed=3)
        result = run_experiment("E12", settings)
        assert result.experiment_id == "E12"
        rows = {row["scenario"]: row for row in result.rows}
        assert {"static disk", "patrol", "orbit", "random walk",
                "multi-disk k=3", "reactive disk"} == set(rows)
        # Every scenario spends the same cap (equal-budget comparison).
        spends = {round(row["carol_spend"], 6) for row in result.rows}
        assert len(spends) == 1
        # The E12 acceptance ordering: the adaptive disk drives the network's
        # delivery per unit budget strictly below the static disk's, and
        # strands more of its victims per unit budget.
        static, reactive = rows["static disk"], rows["reactive disk"]
        assert reactive["delivery_per_mspend"] < static["delivery_per_mspend"]
        assert reactive["stranded_per_mspend"] > static["stranded_per_mspend"]
        # Mobility buys coverage: every moving scenario covers more nodes
        # than the static disk.
        for scenario in ("patrol", "orbit", "reactive disk"):
            assert rows[scenario]["coverage_fraction"] > static["coverage_fraction"]

    def test_rendering_a_real_result(self):
        settings = ExperimentSettings(n=96, trials=1, quick=True, seed=3)
        result = run_experiment("E4", settings)
        text = render_result(result)
        assert "E4" in text and "load" in text.lower()
