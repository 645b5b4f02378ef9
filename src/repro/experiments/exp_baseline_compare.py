"""E5 — ε-Broadcast versus the prior art and the naive strategy (§1, §1.2).

The paper motivates itself against two reference points: the naive
keep-retransmitting strategy, whose per-device cost tracks Carol's spend
one-for-one, and the King–Saia–Young protocol, which achieves ``O(T^{0.62})``
for the sender but leaves each receiver paying ``Θ(T)`` (and is therefore not
load balanced).  The experiment runs all four protocols — naive, KSY-style,
a balanced epoch-backoff strawman, and ε-Broadcast — against the same
phase-blocking attacker at increasing spend caps, and reports per-device costs
and fitted exponents.  The expected ordering of node-cost exponents is
``naive ≈ ksy ≈ 1 > backoff ≈ 0.5 > ε-broadcast ≈ 1/3``.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..analysis.fitting import fit_cost_exponent
from ..analysis.stats import aggregate_records
from ..simulation.config import SimulationConfig
from ..tournament.roster import budget_blocker, build_protocol
from .harness import Claim, ExperimentResult, ExperimentSettings
from .runner import TrialSpec, run_sweep
from .workloads import spend_sweep

__all__ = ["run", "EXPERIMENT_ID", "TITLE", "CLAIM", "CHECKS"]

EXPERIMENT_ID = "E5"
TITLE = "ε-Broadcast vs naive, KSY-style, and balanced-backoff baselines"
CLAIM = "ε-Broadcast's per-device cost exponent (≈1/3 for k=2) beats the naive Θ(T) strategy and the KSY receiver cost Θ(T); its sender cost also beats KSY's T^0.62"

PROTOCOLS = {
    "epsilon-broadcast": "eps-broadcast",
    "naive": "naive",
    "ksy": "ksy",
    "balanced-backoff": "backoff",
}
"""Table label → roster protocol name, in table order."""


def _trial(seed: int, n: int, protocol: str, cap: float) -> dict:
    """One E5 trial: ``protocol`` against a fresh blocker with spend cap ``cap``."""

    config = SimulationConfig(n=n, k=2, f=1.0, seed=seed)
    protocol_variant = build_protocol(PROTOCOLS[protocol], config, budget_blocker(cap))
    return protocol_variant.run().as_record()


def run(settings: ExperimentSettings) -> ExperimentResult:
    config = SimulationConfig(n=settings.n, k=2, f=1.0, seed=settings.seed)
    sweep = spend_sweep(config, points=4, quick=settings.quick)

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        columns=[
            "protocol",
            "T_spent",
            "alice_cost",
            "node_mean_cost",
            "node_max_cost",
            "delivery_fraction",
        ],
    )

    points = [(cap, name) for cap in sweep for name in PROTOCOLS]
    specs = [
        TrialSpec.point(
            _trial,
            EXPERIMENT_ID,
            name,
            cap,
            n=settings.n,
            protocol=name,
            cap=cap,
        )
        for cap, name in points
    ]
    per_point = run_sweep(specs, settings)

    series: Dict[str, Dict[str, list]] = {name: {"T": [], "alice": [], "node": []} for name in PROTOCOLS}
    for (cap, name), records in zip(points, per_point):
        series[name]["T"] += [record["adversary_spend"] for record in records]
        series[name]["alice"] += [record["alice_cost"] for record in records]
        series[name]["node"] += [record["node_max_cost"] for record in records]
        summary = aggregate_records(records)
        result.add_row(
            protocol=name,
            T_spent=summary["adversary_spend"].mean,
            alice_cost=summary["alice_cost"].mean,
            node_mean_cost=summary["node_mean_cost"].mean,
            node_max_cost=summary["node_max_cost"].mean,
            delivery_fraction=summary["delivery_fraction"].mean,
        )

    for name, data in series.items():
        for side in ("node", "alice"):
            fit = fit_cost_exponent(data["T"], data[side])
            if fit.ok:
                result.summaries[f"{name}_{side}_exponent"] = fit.exponent

    result.add_note(
        "Expected node-cost exponents: naive ≈ 1, ksy ≈ 1, balanced-backoff ≈ 0.5, "
        "epsilon-broadcast ≈ 1/3; expected Alice exponents: naive ≈ 1, ksy ≈ 0.62, "
        "balanced-backoff ≈ 0.5, epsilon-broadcast ≈ 1/3."
    )
    result.add_note(
        "Absolute costs are not comparable to the paper's testbed-free theory; the ordering "
        "and the crossovers (who wins as T grows) are the reproduced quantities."
    )
    return result


def _at_largest_spend(panel: Sequence[ExperimentResult]) -> Dict[str, dict]:
    rows = panel[0].rows
    largest = max(row["T_spent"] for row in rows)
    return {row["protocol"]: row for row in rows if row["T_spent"] == largest}


# The naive strategy's node cost tracks T (exponent ≈ 1); ε-Broadcast's is
# much smaller; the prior art (KSY) protects only the sender.  At the largest
# adversary spend ε-Broadcast beats the naive strategy on both sides of the
# load: its receivers pay a fraction of naive's, and its sender pays no more
# than naive's sender.
CHECKS: Dict[str, Claim] = {
    "naive_node_exponent_linear": lambda panel: panel[0].summaries["naive_node_exponent"] > 0.85,
    "ksy_node_exponent_linear": lambda panel: panel[0].summaries["ksy_node_exponent"] > 0.85,
    "epsilon_node_exponent_below_naive": lambda panel: (
        panel[0].summaries["epsilon-broadcast_node_exponent"]
        < panel[0].summaries["naive_node_exponent"] - 0.2
    ),
    "epsilon_node_cost_below_naive_at_largest_spend": lambda panel: (
        _at_largest_spend(panel)["epsilon-broadcast"]["node_max_cost"]
        < 0.8 * _at_largest_spend(panel)["naive"]["node_max_cost"]
    ),
    "epsilon_alice_cost_below_naive_at_largest_spend": lambda panel: (
        _at_largest_spend(panel)["epsilon-broadcast"]["alice_cost"]
        < _at_largest_spend(panel)["naive"]["alice_cost"]
    ),
}
