"""E8 — running with only a polynomial overestimate of n (§4.2).

Nodes need ``ln n`` and ``1/n`` to compute their probabilities.  §4.2 claims a
constant-factor approximation costs only a constant factor, and that even a
polynomial overestimate ``ν = n^{c'}`` works if the propagation steps sweep
the sending probability over ``1/2, 1/4, …, 1/ν`` — an ``O(log n)`` factor in
cost and latency.  The experiment compares exact-``n`` runs against
``ν ∈ {2n, n²}`` runs (no jamming and moderate blocking) and reports the
cost/latency inflation factors, which should be ≈ constant for ``ν = 2n`` and
≈ ``lg ν`` for ``ν = n²``.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from ..analysis.stats import aggregate_records
from ..core.api import run_broadcast
from ..simulation.config import SimulationConfig
from ..tournament.roster import budget_blocker
from .harness import Claim, ExperimentResult, ExperimentSettings
from .runner import TrialSpec, run_sweep

__all__ = ["run", "EXPERIMENT_ID", "TITLE", "CLAIM", "CHECKS", "predicted_factor"]

EXPERIMENT_ID = "E8"
TITLE = "Unknown n: polynomial overestimates cost only a logarithmic factor"
CLAIM = "ε-Broadcast still works when nodes share only a polynomial overestimate ν of n, at an O(lg ν) factor in cost and latency (§4.2)"


def predicted_factor(estimate: Optional[int], k: int = 2) -> float:
    """The latency factor §4.2 predicts for the estimate ``ν`` (1 for exact n).

    Sweeping the propagation steps over the unknown scale grows a round from
    ``k+1`` phases to ``2 + (k-1)·⌈lg ν⌉`` phases.
    """

    if estimate is None:
        return 1.0
    return (2.0 + (k - 1) * math.ceil(math.log2(estimate))) / (k + 1.0)


def _trial(seed: int, n: int, estimate: Optional[int], cap: Optional[float]) -> dict:
    """One E8 trial: exact-n or size-estimate variant, clean or blocked."""

    adversary = budget_blocker(cap) if cap is not None else "none"
    if estimate is None:
        outcome = run_broadcast(n=n, k=2, f=1.0, seed=seed, adversary=adversary)
    else:
        outcome = run_broadcast(
            n=n,
            k=2,
            f=1.0,
            seed=seed,
            adversary=adversary,
            variant="size-estimate",
            size_estimate=estimate,
        )
    return outcome.as_record()


def run(settings: ExperimentSettings) -> ExperimentResult:
    n = settings.n
    config = SimulationConfig(n=n, k=2, f=1.0, seed=settings.seed)
    moderate_T = config.adversary_total_budget / 8.0

    estimates = [("exact n", None), ("nu = 2n", 2 * n), ("nu = n^2", n * n)]
    attacks = [("no jamming", None)] if settings.quick else [("no jamming", None), ("blocker", moderate_T)]

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        columns=[
            "scenario",
            "estimate",
            "delivery_fraction",
            "node_max_cost",
            "alice_cost",
            "slots",
            "latency_inflation",
            "predicted_factor",
        ],
    )

    points = [
        (attack_label, cap, est_label, estimate)
        for attack_label, cap in attacks
        for est_label, estimate in estimates
    ]
    specs = [
        TrialSpec.point(
            _trial,
            EXPERIMENT_ID,
            attack_label,
            est_label,
            n=n,
            estimate=estimate,
            cap=cap,
        )
        for attack_label, cap, est_label, estimate in points
    ]
    per_point = iter(run_sweep(specs, settings))

    for attack_label, cap in attacks:
        baseline_slots = None
        for est_label, estimate in estimates:
            records = next(per_point)
            summary = aggregate_records(records)
            slots = summary["slots"].mean
            if baseline_slots is None:
                baseline_slots = max(slots, 1.0)
            result.add_row(
                scenario=attack_label,
                estimate=est_label,
                delivery_fraction=summary["delivery_fraction"].mean,
                node_max_cost=summary["node_max_cost"].mean,
                alice_cost=summary["alice_cost"].mean,
                slots=slots,
                latency_inflation=slots / baseline_slots,
                predicted_factor=predicted_factor(estimate),
            )

    result.add_note(
        "latency_inflation compares each estimate's slots-to-termination against the exact-n run of "
        "the same scenario; §4.2 predicts an O(lg ν) factor, concretely (2 + (k-1)·lg ν)/(k+1) from "
        "the swept propagation repetitions, and a constant factor for constant-factor estimates of ln n."
    )
    result.add_note(
        "Delivery should remain ≈ 1.0 in every row: the sweep guarantees one repetition whose sending "
        "probability is within a factor two of the true 1/n."
    )
    return result


CHECKS: Dict[str, Claim] = {
    # Delivery is preserved under every estimate.
    "delivery_every_estimate": lambda panel: all(
        row["delivery_fraction"] >= 0.99 for row in panel[0].rows
    ),
    # The measured latency inflation tracks the predicted O(lg ν) factor.
    "latency_inflation_tracks_lg_nu": lambda panel: all(
        row["latency_inflation"] <= 2.0 * row["predicted_factor"] + 0.5 for row in panel[0].rows
    ),
}
