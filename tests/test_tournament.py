"""Tournament harness tests: golden parallel/cache identity, exponent-fitter
properties, optimiser process-stability and bounds, and roster-wide parameter
introspection conformance.

The golden tests mirror ``tests/test_parallel_runner.py``: a tournament grid
run with ``jobs=4`` must reproduce the ``jobs=1`` result field-for-field, and
a warm ``TrialCache`` re-run must serve every trial without executing one.
Comparisons go through ``repr`` because flagged cells legitimately carry NaN
confidence intervals, and ``nan != nan`` would flag identical runs.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st

from repro.adversary import ParamSpec
from repro.analysis.competitiveness import ExponentFit, fit_cell_exponent
from repro.experiments import ExperimentSettings
from repro.experiments.runner import track_stats
from repro.simulation.errors import ConfigurationError
from repro.tournament import (
    TournamentCell,
    adversary_roster,
    adversary_supports_topology,
    build_adversary,
    optimise_cell,
    protocol_roster,
    run_tournament,
    topology_grid,
    tournament_cells,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")

GOLDEN_GRID = dict(
    adversaries=["budget_blocker", "sybil", "static_disk"],
    protocols=["eps-broadcast", "mh-sequential"],
    topologies=["single-hop", "gilbert-sub"],
)
GOLDEN_FRACTIONS = (0.1, 0.4, 0.9)
GOLDEN_SETTINGS = dict(n=48, trials=2, quick=True, seed=5)


def run_golden(**overrides):
    settings = ExperimentSettings(**{**GOLDEN_SETTINGS, "cache_dir": "", **overrides})
    return run_tournament(
        settings,
        cells=tournament_cells(**GOLDEN_GRID),
        spend_fractions=GOLDEN_FRACTIONS,
    )


class TestTournamentGolden:
    def test_grid_respects_compatibility_filters(self):
        cells = tournament_cells(**GOLDEN_GRID)
        # single-hop: the disk jammer needs geometry, so only the two channel
        # adversaries run there; gilbert-sub takes all three on mh-sequential.
        assert len(cells) == 5
        for cell in cells:
            kind = topology_grid()[cell.topology].kind
            assert kind in protocol_roster()[cell.protocol].topology_kinds
            assert adversary_supports_topology(cell.adversary, kind)

    def test_jobs4_bit_identical_to_jobs1(self):
        serial = run_golden(jobs=1)
        parallel = run_golden(jobs=4)
        assert repr(parallel) == repr(serial)

    def test_warm_cache_identical_without_recomputing(self, tmp_path):
        cache_dir = str(tmp_path / "trial-cache")
        cold = run_golden(jobs=1, cache_dir=cache_dir)

        with track_stats() as delta:
            warm = run_golden(jobs=1, cache_dir=cache_dir)

        assert delta.executed == 0, "warm re-run recomputed trials"
        assert delta.cache_hits > 0
        assert repr(warm) == repr(cold)

    def test_every_cell_fitted_or_flagged(self):
        result = run_golden(jobs=1)
        assert len(result.cells) == 5
        for cell_result in result.cells:
            fit = cell_result.node_fit
            if fit.flagged:
                assert fit.reason in {
                    "flat-cost",
                    "degenerate-spend-range",
                    "insufficient-points",
                    "zero-cost",
                }
            else:
                assert math.isfinite(fit.exponent)
                assert fit.ci_low <= fit.exponent <= fit.ci_high


class TestExponentFitProperties:
    @given(
        rho=st.floats(min_value=0.05, max_value=1.5),
        scale=st.floats(min_value=0.5, max_value=50.0),
        base=st.floats(min_value=2.0, max_value=50.0),
    )
    @hyp_settings(max_examples=100, deadline=None)
    def test_recovers_planted_exponent(self, rho, scale, base):
        spends = [base * (3.0**i) for i in range(5)]
        costs = [scale * spend**rho for spend in spends]
        fit = fit_cell_exponent(spends, costs)
        assert fit.ok
        assert fit.exponent == pytest.approx(rho, abs=1e-6)
        assert fit.ci_low - 1e-6 <= rho <= fit.ci_high + 1e-6
        assert fit.r_squared == pytest.approx(1.0)

    @given(
        cost=st.floats(min_value=0.5, max_value=1e6),
        n_points=st.integers(min_value=2, max_value=8),
    )
    @hyp_settings(max_examples=100, deadline=None)
    def test_flat_cost_is_flagged_zero_exponent(self, cost, n_points):
        spends = [10.0 * (2.0**i) for i in range(n_points)]
        fit = fit_cell_exponent(spends, [cost] * n_points)
        assert fit.flagged and fit.reason == "flat-cost"
        assert fit.exponent == 0.0

    @given(n_points=st.integers(min_value=1, max_value=6))
    @hyp_settings(max_examples=50, deadline=None)
    def test_zero_cost_is_flagged(self, n_points):
        spends = [10.0 * (2.0**i) for i in range(n_points)]
        fit = fit_cell_exponent(spends, [0.0] * n_points)
        assert fit.flagged and fit.reason == "zero-cost"

    @given(
        spread=st.floats(min_value=1.0, max_value=1.9),
        costs=st.lists(
            st.floats(min_value=1.0, max_value=1e3), min_size=2, max_size=2
        ),
    )
    @hyp_settings(max_examples=50, deadline=None)
    def test_narrow_spend_range_is_flagged(self, spread, costs):
        fit = fit_cell_exponent([10.0, 10.0 * spread], costs)
        assert fit.flagged and fit.reason == "degenerate-spend-range"

    @given(
        points=st.lists(
            st.tuples(
                st.floats(allow_nan=True, allow_infinity=True),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
            max_size=10,
        )
    )
    @hyp_settings(max_examples=200, deadline=None)
    def test_never_raises_on_arbitrary_series(self, points):
        spends = [p[0] for p in points]
        costs = [p[1] for p in points]
        fit = fit_cell_exponent(spends, costs)
        assert isinstance(fit, ExponentFit)
        if not fit.flagged:
            assert math.isfinite(fit.exponent)


OPT_CELL = TournamentCell("bursty", "eps-broadcast", "single-hop")
OPT_KWARGS = dict(spend_fraction=0.4, rounds=1, grid_points=2)
OPT_SETTINGS = dict(n=48, trials=1, quick=True, seed=11, cache_dir="")


def optimiser_payload():
    settings = ExperimentSettings(**OPT_SETTINGS)
    result = optimise_cell(OPT_CELL, settings, **OPT_KWARGS)
    return {
        "baseline_params": result.baseline_params,
        "baseline_score": result.baseline_score,
        "best_params": result.best_params,
        "best_score": result.best_score,
        "evaluations": result.evaluations,
        "history": result.history,
    }


class TestOptimiser:
    def test_argmax_stable_across_processes(self):
        """A fresh interpreter must reproduce the search bit-for-bit."""

        script = textwrap.dedent(
            """
            import json
            import test_tournament

            print(json.dumps(test_tournament.optimiser_payload()))
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            SRC
            + os.pathsep
            + str(Path(__file__).resolve().parent)
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        env.pop("REPRO_JOBS", None)
        env.pop("REPRO_CACHE_DIR", None)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        remote = json.loads(proc.stdout)
        local = json.loads(json.dumps(optimiser_payload()))  # tuples -> lists
        assert remote == local

    def test_never_proposes_out_of_bounds_parameters(self):
        settings = ExperimentSettings(n=48, trials=1, quick=True, seed=11, cache_dir="")
        cell = TournamentCell("static_disk", "mh-sequential", "gilbert-sub")
        result = optimise_cell(cell, settings, rounds=2, grid_points=3)
        specs = adversary_roster()[cell.adversary](None).tunable_parameters()
        assert result.evaluations == len(result.history) > 0
        for params, score in result.history:
            assert math.isfinite(score)
            for name, value in params:
                assert specs[name].contains(value), f"{name}={value} out of bounds"
        assert result.beats_hand_picked()
        assert dict(result.best_params) in [dict(p) for p, _ in result.history]


class TestRosterParameterConformance:
    """Satellite: every roster adversary exposes a sound introspection surface."""

    def roster(self):
        return adversary_roster()

    def test_roster_is_complete(self):
        assert sorted(self.roster()) == [
            "budget_blocker",
            "bursty",
            "composite",
            "mobile_disk",
            "multi_disk",
            "reactive",
            "reactive_disk",
            "request_spoofer",
            "round_switch",
            "static_disk",
            "sybil",
        ]

    def test_every_adversary_declares_in_bounds_tunables(self):
        for name, factory in self.roster().items():
            adversary = factory(1000.0)
            specs = adversary.tunable_parameters()
            assert specs, f"{name} declares no tunable parameters"
            for pname, spec in specs.items():
                assert isinstance(spec, ParamSpec)
                value = adversary.get_parameter(pname)
                assert spec.contains(value), f"{name}.{pname} default out of bounds"

    def test_with_parameters_round_trips_without_mutating(self):
        for name, factory in self.roster().items():
            adversary = factory(1000.0)
            for pname, spec in adversary.tunable_parameters().items():
                original = adversary.get_parameter(pname)
                for candidate in spec.grid(3):
                    try:
                        clone = adversary.with_parameters(**{pname: candidate})
                    except ConfigurationError:
                        # Cross-field constraints (e.g. bursty's period >=
                        # burst_length) may reject an in-bounds single move.
                        continue
                    assert clone is not adversary
                    assert clone.get_parameter(pname) == candidate
                    assert adversary.get_parameter(pname) == original, (
                        f"{name}.{pname}: with_parameters mutated the original"
                    )

    def test_unknown_and_out_of_range_parameters_raise(self):
        for name, factory in self.roster().items():
            adversary = factory(1000.0)
            with pytest.raises(ConfigurationError):
                adversary.with_parameters(no_such_parameter=1.0)
            with pytest.raises(ConfigurationError):
                adversary.get_parameter("no_such_parameter")
            for pname, spec in adversary.tunable_parameters().items():
                with pytest.raises(ConfigurationError):
                    adversary.with_parameters(**{pname: spec.high + spec.span()})
                with pytest.raises(ConfigurationError):
                    adversary.with_parameters(**{pname: spec.low - spec.span()})

    def test_composites_route_prefixed_parameters(self):
        composite = self.roster()["composite"](1000.0)
        names = set(composite.tunable_parameters())
        assert any(pname.startswith("s0.") for pname in names)
        assert any(pname.startswith("s1.") for pname in names)

        switcher = self.roster()["round_switch"](1000.0)
        names = set(switcher.tunable_parameters())
        assert "switch_round" in names
        assert any(pname.startswith("early.") for pname in names)
        assert any(pname.startswith("late.") for pname in names)
        moved = switcher.with_parameters(switch_round=9)
        assert moved.get_parameter("switch_round") == 9

    def test_build_adversary_applies_parameters(self):
        adversary = build_adversary(
            "bursty", 500.0, params=(("burst_length", 8), ("period", 32))
        )
        assert adversary.get_parameter("burst_length") == 8
        assert adversary.get_parameter("period") == 32
