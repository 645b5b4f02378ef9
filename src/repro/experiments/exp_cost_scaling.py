"""E1 — per-device cost versus adversary spend (Theorem 1 / Lemmas 10-11, k = 2).

The headline claim: if Carol's side jams for ``T`` slots, Alice and each
correct node spend only ``Õ(T^{1/3} + 1)`` (for ``k = 2``).  The experiment
sweeps Carol's spend cap with the reference phase-blocking attacker, measures
the resulting costs, and fits cost exponents over every trial; the paper's
prediction is a node exponent near ``1/3`` (far below the naive strategy's
exponent of 1) and a sub-linear, roughly matching exponent for Alice (load
balance).
"""

from __future__ import annotations

from typing import Dict

from ..analysis.bounds import cost_exponent
from ..analysis.fitting import fit_cost_exponent
from ..analysis.stats import aggregate_records
from ..core.api import run_broadcast
from ..simulation.config import SimulationConfig
from ..tournament.roster import budget_blocker
from .harness import Claim, ExperimentResult, ExperimentSettings
from .runner import TrialSpec, run_sweep
from .workloads import saturation_spend, spend_sweep

__all__ = ["run", "EXPERIMENT_ID", "TITLE", "CLAIM", "CHECKS"]

EXPERIMENT_ID = "E1"
TITLE = "Per-device cost vs adversary spend T (k = 2)"
CLAIM = "Alice and each node pay Õ(T^(1/3) + 1) when Carol jams for T slots (Theorem 1, k = 2)"


def _trial(seed: int, n: int, cap: float) -> dict:
    """One E1 trial: ε-Broadcast against a phase blocker capped at ``cap``.

    Returns only the flat record: shipping the full ``BroadcastOutcome``
    (config + per-phase events) through the runner would bloat worker IPC
    and the trial cache for fields the analysis never reads.
    """

    outcome = run_broadcast(
        n=n,
        k=2,
        f=1.0,
        seed=seed,
        adversary=budget_blocker(cap),
    )
    return outcome.as_record()


def run(settings: ExperimentSettings) -> ExperimentResult:
    """Run the E1 sweep and return its table and fitted exponents."""

    config = SimulationConfig(n=settings.n, k=2, f=1.0, seed=settings.seed)
    sweep = spend_sweep(config, points=6, quick=settings.quick)

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        columns=[
            "T_cap",
            "T_spent",
            "alice_cost",
            "node_mean_cost",
            "node_max_cost",
            "delivery_fraction",
            "rounds",
        ],
    )

    specs = [
        TrialSpec.point(_trial, EXPERIMENT_ID, cap, n=settings.n, cap=cap)
        for cap in sweep
    ]
    per_point = run_sweep(specs, settings)

    spends, alice_costs, node_costs = [], [], []
    for cap, records in zip(sweep, per_point):
        spends += [record["adversary_spend"] for record in records]
        alice_costs += [record["alice_cost"] for record in records]
        node_costs += [record["node_max_cost"] for record in records]
        summary = aggregate_records(records)
        result.add_row(
            T_cap=cap,
            T_spent=summary["adversary_spend"].mean,
            alice_cost=summary["alice_cost"].mean,
            node_mean_cost=summary["node_mean_cost"].mean,
            node_max_cost=summary["node_max_cost"].mean,
            delivery_fraction=summary["delivery_fraction"].mean,
            rounds=summary["rounds"].mean,
        )

    threshold = saturation_spend(config)
    alice_fit = fit_cost_exponent(spends, alice_costs, min_spend=threshold)
    node_fit = fit_cost_exponent(spends, node_costs, min_spend=threshold)
    if alice_fit.ok:
        result.summaries["alice_exponent"] = alice_fit.exponent
    if node_fit.ok:
        result.summaries["node_exponent"] = node_fit.exponent
    predicted = cost_exponent(config.k)
    result.summaries["predicted_exponent"] = predicted
    result.add_note(
        "Exponents are fitted over every trial's (T, cost) point with spend above the finite-n "
        "saturation boundary (see workloads.saturation_spend) as cost ≈ c·T^α; the paper "
        f"predicts 1/(k+1) = {predicted:.3f} for both Alice and the nodes."
    )
    result.add_note(f"Alice cost vs T:    {alice_fit}")
    result.add_note(f"node max cost vs T: {node_fit}")
    return result


CHECKS: Dict[str, Claim] = {
    # Costs must respond strongly sublinearly to the adversary's spend; a
    # sweep that loses the fit fails rather than passes.
    "node_exponent": lambda panel: "node_exponent" in panel[0].summaries
    and panel[0].summaries["node_exponent"] < 0.9,
    # Delivery holds at every spend level in the sweep.
    "delivery_every_spend": lambda panel: all(
        row["delivery_fraction"] >= 0.9 for row in panel[0].rows
    ),
}
