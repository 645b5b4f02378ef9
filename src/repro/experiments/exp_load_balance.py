"""E4 — load balance: Alice and the nodes pay asymptotically equal costs (§1, Lemma 11).

One of the two design goals (alongside resource competitiveness) is that no
participant — in particular not Alice — carries a disproportionate share of
the cost: the derivation ``a = 1/k``, ``b = 1`` equalises the worst-case
exponents so Alice's cost exceeds a node's by at most polylogarithmic factors.
The experiment measures the Alice/mean-node and Alice/max-node cost ratios
across attack scenarios and checks they stay within a polylog envelope, in
contrast to the KSY-style baseline where receivers pay polynomially more than
the sender.
"""

from __future__ import annotations

import math

from typing import Dict, Optional

from ..analysis.stats import aggregate_records
from ..core.api import run_broadcast
from ..simulation.config import SimulationConfig
from ..tournament.roster import budget_blocker, build_protocol
from .harness import Claim, ExperimentResult, ExperimentSettings
from .runner import TrialSpec, run_sweep

__all__ = ["run", "EXPERIMENT_ID", "TITLE", "CLAIM", "CHECKS"]

EXPERIMENT_ID = "E4"
TITLE = "Load balance: Alice cost vs per-node cost"
CLAIM = "Alice and each correct node incur asymptotically equal costs, up to logarithmic factors (load balancing, §1 / Lemma 11)"


def _trial(seed: int, n: int, cap: Optional[float]) -> dict:
    """One ε-Broadcast E4 trial against a blocker capped at ``cap`` (None = no attack)."""

    adversary = budget_blocker(cap) if cap is not None else "none"
    outcome = run_broadcast(n=n, k=2, f=1.0, seed=seed, adversary=adversary)
    return outcome.as_record()


def _ksy_trial(seed: int, n: int, cap: float) -> dict:
    """The KSY-style contrast run: explicitly *not* load balanced."""

    config_trial = SimulationConfig(n=n, k=2, f=1.0, seed=seed)
    outcome = build_protocol("ksy", config_trial, budget_blocker(cap)).run()
    return outcome.as_record()


def run(settings: ExperimentSettings) -> ExperimentResult:
    config = SimulationConfig(n=settings.n, k=2, f=1.0, seed=settings.seed)
    budget = config.adversary_total_budget
    scenarios = [
        ("no jamming", None),
        ("blocker T≈budget/8", budget / 8.0),
        ("blocker T≈budget/2", budget / 2.0),
    ]
    if settings.quick:
        scenarios = scenarios[:3]

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        columns=[
            "scenario",
            "protocol",
            "alice_cost",
            "node_mean_cost",
            "node_max_cost",
            "alice_over_mean",
            "alice_over_max",
        ],
    )

    polylog_envelope = math.log(settings.n) ** 3

    specs = [
        TrialSpec.point(_trial, EXPERIMENT_ID, label, n=settings.n, cap=cap)
        for label, cap in scenarios
    ]
    specs.append(
        TrialSpec.point(
            _ksy_trial,
            EXPERIMENT_ID,
            "ksy",
            n=settings.n,
            cap=budget / 2.0,
        )
    )
    per_point = run_sweep(specs, settings)

    for (label, _cap), records in zip(scenarios, per_point):
        summary = aggregate_records(records)
        alice = summary["alice_cost"].mean
        mean_cost = summary["node_mean_cost"].mean
        max_cost = summary["node_max_cost"].mean
        result.add_row(
            scenario=label,
            protocol="epsilon-broadcast",
            alice_cost=alice,
            node_mean_cost=mean_cost,
            node_max_cost=max_cost,
            alice_over_mean=alice / mean_cost if mean_cost else float("inf"),
            alice_over_max=alice / max_cost if max_cost else float("inf"),
        )

    # Contrast: the KSY-style baseline is explicitly *not* load balanced.
    summary = aggregate_records(per_point[-1])
    alice = summary["alice_cost"].mean
    mean_cost = summary["node_mean_cost"].mean
    max_cost = summary["node_max_cost"].mean
    result.add_row(
        scenario="blocker T≈budget/2",
        protocol="ksy-style baseline",
        alice_cost=alice,
        node_mean_cost=mean_cost,
        node_max_cost=max_cost,
        alice_over_mean=alice / mean_cost if mean_cost else float("inf"),
        alice_over_max=alice / max_cost if max_cost else float("inf"),
    )

    result.summaries["polylog_envelope_log3n"] = polylog_envelope
    result.add_note(
        "For ε-Broadcast under jamming the Alice/node ratios stay within a polylog envelope "
        "(and usually below 1: nodes shoulder the listening); the KSY-style baseline shows the "
        "opposite imbalance the paper criticises — receivers pay Θ(T) while the sender pays T^0.62."
    )
    result.add_note(
        "The unjammed row shows Alice paying more than the (tiny) node costs because she alone "
        "must keep executing until her termination round — the polylog-vs-polylog regime of Lemma 9."
    )
    return result


CHECKS: Dict[str, Claim] = {
    # Under jamming Alice never pays more than a small polylog multiple of a
    # node's cost (in practice she pays less: nodes shoulder the listening).
    "alice_within_polylog_under_jamming": lambda panel: all(
        row["alice_over_max"] < 50
        for row in panel[0].rows
        if row["protocol"] == "epsilon-broadcast" and row["scenario"] != "no jamming"
    ),
    # The KSY-style baseline shows the imbalance the paper criticises.
    "ksy_imbalanced": lambda panel: all(
        row["alice_over_max"] < 0.2
        for row in panel[0].rows
        if row["protocol"] == "ksy-style baseline"
    ),
}
