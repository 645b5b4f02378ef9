"""E6 — the general-k protocol: exponent 1/(k+1), Θ(k) latency overhead (§3, §3.2).

Raising ``k`` buys a better resource-competitive exponent — ``T^{1/(k+1)}``
instead of ``T^{1/3}`` — at the price of ``k - 1`` propagation steps per round
(a ``Θ(k)`` factor in latency and in the no-jamming cost), and §3.2 shows the
trade stops working for ``k = ω(1)``.  The experiment runs ``k ∈ {2, 3, 4}``
through the same spend sweep, fits the per-k cost exponents, and reports the
per-k round length to exhibit the Θ(k) overhead.
"""

from __future__ import annotations

from typing import Dict, Sequence

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

EXPERIMENT_ID = "E6"
TITLE = "General k: cost exponent 1/(k+1) and Θ(k) latency overhead"
CLAIM = "For budget exponent k the per-device cost is Õ(T^{1/(k+1)}) while latency and overall cost grow by a Θ(k) factor (§3, §3.2)"


def _trial(seed: int, n: int, k: int, cap: float) -> dict:
    """One E6 trial: the general-k variant against a capped phase blocker."""

    outcome = run_broadcast(
        n=n,
        k=k,
        f=1.0,
        seed=seed,
        variant="general-k",
        adversary=budget_blocker(cap),
    )
    return outcome.as_record()


def run(settings: ExperimentSettings) -> ExperimentResult:
    ks = [2, 3, 4]
    if settings.quick:
        ks = [2, 3]

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        columns=[
            "k",
            "T_spent",
            "node_max_cost",
            "alice_cost",
            "slots",
            "delivery_fraction",
            "predicted_exponent",
        ],
    )

    sweeps = {
        k: spend_sweep(
            SimulationConfig(n=settings.n, k=k, f=1.0, seed=settings.seed),
            points=4,
            quick=settings.quick,
        )
        for k in ks
    }
    points = [(k, cap) for k in ks for cap in sweeps[k]]
    specs = [
        TrialSpec.point(_trial, EXPERIMENT_ID, k, cap, n=settings.n, k=k, cap=cap)
        for k, cap in points
    ]
    records_by_point = dict(zip(points, run_sweep(specs, settings)))

    for k in ks:
        config = SimulationConfig(n=settings.n, k=k, f=1.0, seed=settings.seed)
        sweep = sweeps[k]
        spends, node_costs = [], []
        for cap in sweep:
            records = records_by_point[(k, cap)]
            spends += [record["adversary_spend"] for record in records]
            node_costs += [record["node_max_cost"] for record in records]
            summary = aggregate_records(records)
            result.add_row(
                k=k,
                T_spent=summary["adversary_spend"].mean,
                node_max_cost=summary["node_max_cost"].mean,
                alice_cost=summary["alice_cost"].mean,
                slots=summary["slots"].mean,
                delivery_fraction=summary["delivery_fraction"].mean,
                predicted_exponent=cost_exponent(k),
            )
        # Fit only over spends past the finite-n saturation boundary, where
        # the asymptotic shape is observable (see workloads.saturation_spend).
        fit = fit_cost_exponent(spends, node_costs, min_spend=saturation_spend(config))
        if fit.ok:
            result.summaries[f"k{k}_node_exponent"] = fit.exponent
            result.summaries[f"k{k}_predicted"] = cost_exponent(k)

    result.add_note(
        "Larger k should yield a smaller fitted node-cost exponent (1/3, 1/4, 1/5 for k = 2, 3, 4); "
        "at laptop-scale n the separation is modest because budgets — and hence the reachable T range — "
        "shrink as n^{1/k}."
    )
    result.add_note(
        "The per-round slot counts grow by the extra propagation steps, the Θ(k) overhead of §3.2."
    )
    return result


def _node_below_spend_at_largest(panel: Sequence[ExperimentResult]) -> bool:
    rows = panel[0].rows
    for k in sorted({row["k"] for row in rows}):
        largest = max((row for row in rows if row["k"] == k), key=lambda row: row["T_spent"])
        if not largest["node_max_cost"] < largest["T_spent"]:
            return False
    return True


CHECKS: Dict[str, Claim] = {
    # Every (k, T) row still delivers the message.
    "delivery_every_k": lambda panel: all(
        row["delivery_fraction"] >= 0.9 for row in panel[0].rows
    ),
    # Resource competitiveness in absolute form, per k: at the largest spend
    # in its sweep a node pays less than Carol's total.  The per-k fitted
    # exponents are reported in the summary but not checked: the Figure-2
    # constants (which scale with 1/ε') keep quick-profile sweeps largely in
    # the saturated regime, so the k-dependence of the exponent only emerges
    # as a trend at larger n (see EXPERIMENTS.md).
    "node_below_spend_at_largest": _node_below_spend_at_largest,
}
