"""E13 — quiet-rule ablation: termination policies on sparse Gilbert graphs.

The request-phase quiet rule of §2.2 was calibrated for one shared channel
and misfires in both directions on sparse topologies (the E11 findings): near
the connectivity threshold, locally quiet nodes inside Alice's component give
up before the relay frontier reaches them, while below it, Alice-less
components sustain each other's nacks all the way to the round cap.  This
experiment runs the same near- and sub-threshold Gilbert profiles under every
termination policy in :mod:`repro.core.quietrule` — the unmodified paper
rule, the uniform ``ConstantQuietRule`` retry cap, the plain-degree
(``hops=1``) budget form, and the default three-hop
:class:`~repro.core.quietrule.DegreeAwareQuietRule` — and quantifies the
trade every rule strikes between the two misfire directions.

Seeds are derived per scenario only (not per rule), so every rule runs on
the *same* realised graphs: the comparison is paired.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..analysis.stats import aggregate_records
from ..core.broadcast import MultiHopBroadcast
from ..core.quietrule import ConstantQuietRule, DegreeAwareQuietRule, PaperQuietRule, QuietRule
from ..simulation.config import SimulationConfig
from ..simulation.topology import TopologySpec, gilbert_connectivity_radius
from ..tournament.roster import QUIET_RETRIES, topology_grid
from .harness import Claim, ExperimentResult, ExperimentSettings
from .runner import TrialSpec, run_sweep

__all__ = ["run", "EXPERIMENT_ID", "TITLE", "CLAIM", "CHECKS"]

EXPERIMENT_ID = "E13"
TITLE = "Quiet-rule ablation: request-phase termination policies on sparse Gilbert graphs"
CLAIM = (
    "A per-node, degree-aware termination budget fixes both quiet-rule misfires at once: "
    "sub-threshold cost collapses to within ~2x of a uniform retry cap while near-threshold "
    "delivery_vs_reachable returns to ~1, which neither the paper rule nor any single "
    "global constant achieves"
)

# The roster's sub- and near-threshold radius multipliers.
_SUB_MULTIPLIER = topology_grid()["gilbert-sub"].radius_multiplier
_NEAR_MULTIPLIER = topology_grid()["gilbert-near"].radius_multiplier

SUB = f"sub-threshold {_SUB_MULTIPLIER:g}·r_c"
NEAR = f"near-threshold {_NEAR_MULTIPLIER:g}·r_c"
PAPER = "paper"
CONSTANT = f"constant R={QUIET_RETRIES}"
DEGREE = "degree-aware (default)"
DEGREE_HOPS_ONE = "degree hops=1"


def _rules() -> "list[tuple[str, QuietRule]]":
    return [
        (PAPER, PaperQuietRule()),
        (CONSTANT, ConstantQuietRule(retries=QUIET_RETRIES)),
        (DEGREE_HOPS_ONE, DegreeAwareQuietRule(hops=1)),
        (DEGREE, DegreeAwareQuietRule()),
    ]


def _trial(seed: int, n: int, radius: float, quiet_rule: QuietRule) -> dict:
    """One E13 trial: a multi-hop run under one termination policy."""

    config = SimulationConfig(
        n=n, k=2, f=1.0, seed=seed, topology=TopologySpec.gilbert(radius=radius)
    )
    protocol = MultiHopBroadcast(config, quiet_rule=quiet_rule)
    outcome = protocol.run()
    reachable = len(protocol.network.topology.reachable_from_alice())
    record = outcome.as_record()
    record["reachable_fraction"] = reachable / n
    record["delivery_vs_reachable"] = (
        outcome.delivery.informed / reachable if reachable else 1.0
    )
    return record


def run(settings: ExperimentSettings) -> ExperimentResult:
    n = settings.n
    r_c = gilbert_connectivity_radius(n)
    scenarios = [(SUB, _SUB_MULTIPLIER), (NEAR, _NEAR_MULTIPLIER)]
    rules = _rules()

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        columns=[
            "scenario",
            "rule",
            "reachable_fraction",
            "delivery_vs_reachable",
            "mean_node_cost",
            "slots",
        ],
    )

    # Seeds are derived from (experiment, scenario, trial) only — the rule is
    # a param, not a label — so all rules see identical realised graphs.
    specs = [
        TrialSpec.point(
            _trial,
            EXPERIMENT_ID,
            scenario_label,
            n=n,
            radius=multiplier * r_c,
            quiet_rule=rule,
        )
        for scenario_label, multiplier in scenarios
        for _, rule in rules
    ]
    per_point = run_sweep(specs, settings)

    cost = {}
    dvr = {}
    index = 0
    for scenario_label, _ in scenarios:
        for rule_label, _rule in rules:
            summary = aggregate_records(per_point[index])
            index += 1
            cost[(scenario_label, rule_label)] = summary["node_mean_cost"].mean
            dvr[(scenario_label, rule_label)] = summary["delivery_vs_reachable"].mean
            result.add_row(
                scenario=scenario_label,
                rule=rule_label,
                reachable_fraction=summary["reachable_fraction"].mean,
                delivery_vs_reachable=summary["delivery_vs_reachable"].mean,
                mean_node_cost=summary["node_mean_cost"].mean,
                slots=summary["slots"].mean,
            )

    result.summaries["sub_cost_degree_vs_constant"] = cost[(SUB, DEGREE)] / cost[(SUB, CONSTANT)]
    result.summaries["sub_cost_paper_vs_degree"] = cost[(SUB, PAPER)] / cost[(SUB, DEGREE)]
    result.summaries["near_dvr_paper"] = dvr[(NEAR, PAPER)]
    result.summaries["near_dvr_constant"] = dvr[(NEAR, CONSTANT)]
    result.summaries["near_dvr_degree"] = dvr[(NEAR, DEGREE)]

    result.add_note(
        "Both misfire directions, one table: the paper rule pays the sub-threshold blowup "
        "(Alice-less components run to the round cap) and still dips below 1 near the "
        "threshold (locally quiet nodes give up at the earliest reliable round, ahead of the "
        "relay frontier); the uniform retry cap fixes the cost but strands whoever it binds "
        "on (pipelined relay rounds shrank its near-threshold deficit to the odd node — fewer "
        "request phases elapse before the frontier arrives — and below the threshold it can "
        "still starve Alice's own small components); the degree-aware budgets fix the cost "
        "to within ~2x of the cap while returning delivery_vs_reachable to ~1."
    )
    result.add_note(
        "The hops=1 (plain-degree) budget row is why the rule derives budgets from the "
        "three-hop ball instead: sub- and near-threshold degree distributions overlap, so a "
        "budget keyed on degree alone must strand giant-component fringe nodes or overspend "
        "in sub-threshold fragments.  The three-hop ball separates the regimes — bounded by "
        "the component in a sub-critical fragment, ≈ deg × mean-deg² in the giant component "
        "(the local neighbourhood-count concentration of arXiv:1312.4861)."
    )
    result.add_note(
        "The residual sub-1 sliver near the threshold is the locally-undecidable class: a "
        "pendant chain of the giant component and the fringe of a large sub-critical "
        "fragment present identical local views, so every local rule prices one against "
        "the other."
    )
    return result


# Every check below reads rows pooled over a panel of paired seeds.  At one
# seed a single node stranded or spared by chance moves delivery-vs-reachable
# by about 0.01, so a one-seed comparison of two rules that both sit near 1
# is a coin flip.
PANEL_SEEDS = 12
"""Experiment seeds ``settings.seed + i`` pooled by every check."""


def pool(panel: Sequence[ExperimentResult], column: str) -> Dict[Tuple[str, str], float]:
    """Panel mean of one column per ``(scenario, rule)`` row."""

    values: Dict[Tuple[str, str], List[float]] = {}
    for result in panel:
        for row in result.rows:
            values.setdefault((row["scenario"], row["rule"]), []).append(row[column])
    return {key: float(np.mean(column_values)) for key, column_values in values.items()}


def delivery_gate(dvr: Dict[Tuple[str, str], float], rule: str) -> List[str]:
    """Why ``rule``'s pooled delivery rows fail the gate (empty when it passes).

    Near the threshold the rule must not trail the uniform cap by more than
    0.01, nor the paper rule by more than 0.03; below it, the reachable nodes
    of Alice's own small components must still be served (≥ 0.99).
    """

    failures = []
    if dvr[(NEAR, rule)] < dvr[(NEAR, CONSTANT)] - 0.01:
        failures.append(
            f"near: {dvr[(NEAR, rule)]:.4f} < constant {dvr[(NEAR, CONSTANT)]:.4f} - 0.01"
        )
    if dvr[(NEAR, rule)] < dvr[(NEAR, PAPER)] - 0.03:
        failures.append(f"near: {dvr[(NEAR, rule)]:.4f} < paper {dvr[(NEAR, PAPER)]:.4f} - 0.03")
    if dvr[(SUB, rule)] < 0.99:
        failures.append(f"sub: {dvr[(SUB, rule)]:.4f} < 0.99")
    return failures


def _cost(panel: Sequence[ExperimentResult]) -> Dict[Tuple[str, str], float]:
    return pool(panel, "mean_node_cost")


def _dvr(panel: Sequence[ExperimentResult]) -> Dict[Tuple[str, str], float]:
    return pool(panel, "delivery_vs_reachable")


CHECKS: Dict[str, Claim] = {
    # Direction 2 (sub-threshold blowup): no retry cap configured, yet the
    # degree-aware default lands within 2x of the constant-R reference and
    # multiples below the paper rule.
    "sub_cost_degree_within_2x_constant": lambda panel: _cost(panel)[(SUB, DEGREE)]
    <= 2.0 * _cost(panel)[(SUB, CONSTANT)],
    "sub_cost_paper_4x_degree": lambda panel: _cost(panel)[(SUB, PAPER)]
    >= 4.0 * _cost(panel)[(SUB, DEGREE)],
    # Direction 1 (near-threshold early give-up): delivery-vs-reachable stays
    # high under the degree-aware rule, level with the uniform cap and within
    # a hair of the paper rule.  Pipelined relay rounds closed most of the
    # constant rule's old near-threshold deficit (delivery now needs far
    # fewer request phases, so a uniform budget rarely binds before the
    # frontier arrives), which is why the degree-vs-constant gate is a small
    # tolerance rather than a margin.
    "near_dvr_degree": lambda panel: _dvr(panel)[(NEAR, DEGREE)] >= 0.85,
    "degree_delivery_gate": lambda panel: delivery_gate(_dvr(panel), DEGREE) == [],
    # The gate still catches the misfire it was written for: the plain-degree
    # budget strands giant-component fringe nodes near the threshold.
    "hops_one_fails_delivery_gate": lambda panel: delivery_gate(_dvr(panel), DEGREE_HOPS_ONE)
    != [],
}
