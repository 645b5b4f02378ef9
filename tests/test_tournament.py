"""Tournament harness tests: golden parallel/cache identity, optimiser
process-stability and bounds, and roster-wide parameter introspection
conformance.

The golden tests mirror ``tests/test_parallel_runner.py``: a tournament grid
run with ``jobs=4`` must reproduce the ``jobs=1`` result field-for-field, and
a warm ``TrialCache`` re-run must serve every trial without executing one.
Comparisons go through ``repr`` because flagged cells legitimately carry NaN
confidence intervals, and ``nan != nan`` would flag identical runs.
"""

from __future__ import annotations

import ast
import enum
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.adversary import ParamSpec
from repro.analysis import fit_cost_exponent
from repro.experiments import (
    ExperimentSettings,
    exp_adversary_ablation,
    exp_baseline_compare,
    exp_mobile_jammer,
    exp_multihop,
    exp_quiet_rule,
    exp_reactive,
    exp_spoofing,
)
from repro.experiments.runner import track_stats
from repro.simulation import SimulationConfig
from repro.simulation.errors import ConfigurationError
from repro.tournament import (
    CellResult,
    TournamentCell,
    TournamentResult,
    adversary_roster,
    adversary_supports_topology,
    build_adversary,
    optimise_cell,
    protocol_roster,
    run_tournament,
    topology_grid,
    tournament_cells,
)
from repro.tournament import roster

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

    def test_ranking_reads_the_interval_not_the_point_estimate(self):
        def cell(adversary, costs):
            return CellResult(
                cell=TournamentCell(adversary, "mh-paper", "gilbert-sub"),
                spend_fractions=(0.1, 0.4, 0.9),
                spends=(100.0, 400.0, 900.0),
                node_max_costs=(costs[0], costs[1], costs[1]),
                node_mean_costs=(costs[0], costs[1], costs[1]),
                alice_costs=(1.0, 1.0, 1.0),
                delivery_min=1.0,
                node_fit=fit_cost_exponent([100.0, 400.0, 900.0] * 2, costs),
                alice_fit=fit_cost_exponent([], []),
            )

        steady = cell("steady", [100.0, 200.0, 300.0, 110.0, 190.0, 310.0])
        noisy = cell("noisy", [73.0, 4.0, 902.0, 625.0, 365.0, 99.0])
        flat = cell("flat", [500.0] * 6)
        assert noisy.node_fit.exponent > steady.node_fit.exponent
        assert noisy.node_fit.ci_low < steady.node_fit.ci_low
        ranked = TournamentResult(cells=(flat, noisy, steady)).by_protocol()["mh-paper"]
        assert [result.cell.adversary for result in ranked] == ["steady", "noisy", "flat"]


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

    # gilbert-near at n=64, seed 2012 is E12's hand-picked static disk where
    # the spend cap binds: the search must beat it there too.
    @pytest.mark.parametrize(
        "topology, n, seed", [("gilbert-sub", 48, 11), ("gilbert-near", 64, 2012)]
    )
    def test_never_proposes_out_of_bounds_parameters(self, topology, n, seed):
        settings = ExperimentSettings(n=n, trials=1, quick=True, seed=seed, cache_dir="")
        cell = TournamentCell("static_disk", "mh-sequential", topology)
        result = optimise_cell(cell, settings)
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


def _state(value):
    """``vars()`` all the way down, so nested trajectories and arrays compare by content."""

    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.tolist())
    if isinstance(value, np.random.Generator):
        return ("generator", repr(value.bit_generator.state))
    if isinstance(value, dict):
        return {key: _state(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_state(item) for item in value])
    if hasattr(value, "__dict__") and not isinstance(value, (type, enum.Enum)):
        return (type(value), _state(vars(value)))
    return value


def assert_same_strategy(built, name, cap):
    expected = build_adversary(name, cap)
    assert type(built) is type(expected)
    assert _state(built) == _state(expected)


class _Built(Exception):
    """Raised by a stand-in protocol once it has seen the trial's adversary."""


def trial_adversary(monkeypatch, module, protocol, trial, **params):
    """The adversary (and protocol keywords) one experiment trial builds."""

    seen = {}

    def stand_in(*args, **kwargs):
        seen.update(kwargs)
        raise _Built

    monkeypatch.setattr(module, protocol, stand_in)
    with pytest.raises(_Built):
        trial(seed=3, **params)
    return seen["adversary"], seen


class TestSharedCast:
    """The experiments attack with the roster's own entries, not copies."""

    CAPS = (None, 0.0, 250.0, 4096.0)

    @pytest.mark.parametrize(
        "label, name",
        [
            ("bursty", "bursty"),
            ("phase_blocker", "budget_blocker"),
            ("request_spoofer", "request_spoofer"),
            ("spoofing", "sybil"),
            ("reactive", "reactive"),
        ],
    )
    def test_e9_strategies_are_roster_entries(self, label, name):
        for cap in self.CAPS:
            assert_same_strategy(exp_adversary_ablation.STRATEGIES[label](cap), name, cap)

    @pytest.mark.parametrize(
        "label, name",
        [
            ("static disk", "static_disk"),
            ("patrol", "mobile_disk"),
            ("multi-disk k=3", "multi_disk"),
            ("reactive disk", "reactive_disk"),
        ],
    )
    def test_e12_scenarios_are_roster_entries(self, label, name):
        for cap in self.CAPS:
            assert_same_strategy(exp_mobile_jammer.scenario_roster(seed=7)[label](cap), name, cap)

    @pytest.mark.parametrize("n", [64, 128])
    def test_e12_trial_caps_the_roster_disk_at_half_the_budget(self, monkeypatch, n):
        cap = 0.5 * SimulationConfig(n=n).adversary_total_budget
        adversary, kwargs = trial_adversary(
            monkeypatch, exp_mobile_jammer, "MultiHopBroadcast", exp_mobile_jammer._trial,
            n=n, scenario="reactive disk", roster_seed=7,
        )
        assert_same_strategy(adversary, "reactive_disk", cap)
        assert kwargs["quiet_rule"].retries == roster.QUIET_RETRIES

    def test_e7_attacks_with_the_roster_reactive_jammer(self, monkeypatch):
        adversary, _ = trial_adversary(
            monkeypatch, exp_reactive, "run_broadcast", exp_reactive._trial,
            n=64, variant="epsilon-broadcast", f=1.0, attack=True,
        )
        assert_same_strategy(adversary, "reactive", None)

    @pytest.mark.parametrize("cap", [250.0, 4096.0])
    def test_e10_attacks_with_the_roster_request_spoofer(self, monkeypatch, cap):
        adversary, _ = trial_adversary(
            monkeypatch, exp_spoofing, "run_broadcast", exp_spoofing._trial, n=64, cap=cap
        )
        assert_same_strategy(adversary, "request_spoofer", cap)

    def test_e11_disk_row_attacks_with_the_roster_static_disk(self, monkeypatch):
        adversary, _ = trial_adversary(
            monkeypatch, exp_multihop, "MultiHopBroadcast", exp_multihop._trial,
            n=64, kind="gilbert", radius=0.3, attack="spatial",
        )
        assert_same_strategy(adversary, "static_disk", None)

    def test_e5_protocols_are_roster_entries(self):
        assert set(exp_baseline_compare.PROTOCOLS.values()) <= set(protocol_roster())

    def test_e12_and_e13_hold_the_roster_constants(self):
        scenarios = exp_mobile_jammer.scenario_roster(seed=7)
        for label in ("orbit", "random walk"):
            assert scenarios[label](None).radius == roster.JAM_RADIUS
        assert scenarios["patrol"](None).trajectory.speed == roster.PATROL_SPEED
        rules = dict(exp_quiet_rule._rules())
        assert rules[exp_quiet_rule.CONSTANT].retries == roster.QUIET_RETRIES
        grid = topology_grid()
        assert exp_quiet_rule.SUB.endswith(f" {grid['gilbert-sub'].radius_multiplier:g}·r_c")
        assert exp_quiet_rule.NEAR.endswith(f" {grid['gilbert-near'].radius_multiplier:g}·r_c")

    def test_shared_constants_are_assigned_in_the_roster_only(self):
        names = {"JAM_RADIUS", "PATROL_SPEED", "QUIET_RETRIES"}
        homes = {}
        for path in sorted(Path(SRC, "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target] if isinstance(node, ast.AnnAssign)
                    else []
                )
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in names:
                        homes.setdefault(target.id, []).append(path.name)
        assert homes == {name: ["roster.py"] for name in names}
