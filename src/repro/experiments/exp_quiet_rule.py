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

from ..analysis.stats import aggregate_records
from ..core.broadcast import MultiHopBroadcast
from ..core.quietrule import ConstantQuietRule, DegreeAwareQuietRule, PaperQuietRule, QuietRule
from ..simulation.config import SimulationConfig
from ..simulation.topology import TopologySpec, gilbert_connectivity_radius
from .harness import ExperimentResult, ExperimentSettings
from .runner import TrialSpec, run_sweep

__all__ = ["run", "EXPERIMENT_ID", "TITLE", "CLAIM", "BASELINE_RETRIES"]

EXPERIMENT_ID = "E13"
TITLE = "Quiet-rule ablation: request-phase termination policies on sparse Gilbert graphs"
CLAIM = (
    "A per-node, degree-aware termination budget fixes both quiet-rule misfires at once: "
    "sub-threshold cost collapses to within ~2x of a uniform retry cap while near-threshold "
    "delivery_vs_reachable returns to ~1, which neither the paper rule nor any single "
    "global constant achieves"
)

BASELINE_RETRIES = 6
"""The reference ``ConstantQuietRule`` horizon (the repo's E12 convention)."""


def _rules() -> "list[tuple[str, QuietRule]]":
    return [
        ("paper", PaperQuietRule()),
        (f"constant R={BASELINE_RETRIES}", ConstantQuietRule(retries=BASELINE_RETRIES)),
        ("degree hops=1", DegreeAwareQuietRule(hops=1)),
        ("degree-aware (default)", DegreeAwareQuietRule()),
    ]


def _trial(seed: int, n: int, engine: str, radius: float, quiet_rule: QuietRule) -> dict:
    """One E13 trial: a multi-hop run under one termination policy."""

    config = SimulationConfig(
        n=n, k=2, f=1.0, seed=seed, topology=TopologySpec.gilbert(radius=radius)
    )
    protocol = MultiHopBroadcast(config, engine=engine, quiet_rule=quiet_rule)
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
    scenarios = [("sub-threshold 0.6·r_c", 0.6), ("near-threshold 1.3·r_c", 1.3)]
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
            engine=settings.engine,
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

    sub, near = scenarios[0][0], scenarios[1][0]
    constant_label = f"constant R={BASELINE_RETRIES}"
    degree_label = "degree-aware (default)"
    result.summaries["sub_cost_degree_vs_constant"] = (
        cost[(sub, degree_label)] / cost[(sub, constant_label)]
    )
    result.summaries["sub_cost_paper_vs_degree"] = (
        cost[(sub, "paper")] / cost[(sub, degree_label)]
    )
    result.summaries["near_dvr_paper"] = dvr[(near, "paper")]
    result.summaries["near_dvr_constant"] = dvr[(near, constant_label)]
    result.summaries["near_dvr_degree"] = dvr[(near, degree_label)]

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
