"""E10 — request-phase spoofing / termination-delay attacks (§2.2, Lemmas 4-7).

Correct nodes cannot be authenticated, so Carol can inject spoofed nacks (or
jam) during the request phase to make the network sound busier than it is and
keep Alice — and the terminated-but-still-listening nodes — executing the
protocol.  Lemmas 4-7 bound the damage: delaying termination by one more round
costs Carol ``Ω(2^{(b/2+1)i})`` (geometric in the round index) while the extra
cost she inflicts grows only sub-linearly in her spend, and she can never
cause *premature* termination because silence cannot be forged.  The
experiment sweeps the spoofer's budget and measures Alice's extra cost and the
extra rounds bought per unit of Carol's spend.
"""

from __future__ import annotations

from typing import Dict

from ..analysis.fitting import fit_cost_exponent
from ..analysis.stats import aggregate_records
from ..core.api import run_broadcast
from ..simulation.config import SimulationConfig
from ..tournament.roster import request_spoofer
from .harness import Claim, ExperimentResult, ExperimentSettings
from .runner import TrialSpec, run_sweep

__all__ = ["run", "EXPERIMENT_ID", "TITLE", "CLAIM", "CHECKS"]

EXPERIMENT_ID = "E10"
TITLE = "Request-phase spoofing: the price of delaying termination"
CLAIM = "Keeping Alice executing past round i costs Carol Ω(2^{(b/2+1)i}) per extra round, while Alice's extra cost grows only as Õ(T^{a/(b/2+1)}) (§2.2, Lemma 10)"


def _trial(seed: int, n: int, cap: float) -> dict:
    """One E10 trial: the request-phase spoofer capped at ``cap`` (0 = no attack)."""

    adversary = request_spoofer(cap) if cap > 0 else "none"
    outcome = run_broadcast(n=n, k=2, f=1.0, seed=seed, adversary=adversary)
    record = outcome.as_record()
    record["alice_round"] = record.get("extra_alice_terminated_round", float("nan"))
    return record


def run(settings: ExperimentSettings) -> ExperimentResult:
    config = SimulationConfig(n=settings.n, k=2, f=1.0, seed=settings.seed)
    budget = config.adversary_total_budget
    fractions = [0.0, 0.05, 0.2, 0.5, 0.9]
    if settings.quick:
        fractions = [0.0, 0.1, 0.5]

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        columns=[
            "spoof_budget",
            "T_spent",
            "alice_terminated_round",
            "alice_cost",
            "delivery_fraction",
            "slots",
        ],
    )

    specs = [
        TrialSpec.point(
            _trial,
            EXPERIMENT_ID,
            fraction,
            n=settings.n,
            cap=fraction * budget,
        )
        for fraction in fractions
    ]
    per_point = run_sweep(specs, settings)

    spends, alice_costs = [], []
    for fraction, records in zip(fractions, per_point):
        spends += [record["adversary_spend"] for record in records]
        alice_costs += [record["alice_cost"] for record in records]
        summary = aggregate_records(records)
        result.add_row(
            spoof_budget=fraction * budget,
            T_spent=summary["adversary_spend"].mean,
            alice_terminated_round=summary["alice_round"].mean if "alice_round" in summary else float("nan"),
            alice_cost=summary["alice_cost"].mean,
            delivery_fraction=summary["delivery_fraction"].mean,
            slots=summary["slots"].mean,
        )

    # The unattacked point (spend 0) falls below ``min_spend`` and is left out.
    fit = fit_cost_exponent(spends, alice_costs)
    if fit.ok:
        result.summaries["alice_exponent_vs_spoof_spend"] = fit.exponent
    result.add_note(
        "Every extra round of delay forces Carol to fill a geometrically longer request phase with "
        "spoofed nacks, so alice_terminated_round grows only logarithmically in her spend while her "
        "spend grows geometrically — the cost asymmetry of Lemmas 4-7."
    )
    result.add_note(
        "Delivery stays at 1.0 throughout: spoofing can delay termination but never causes nodes to "
        "miss the message, because silence cannot be forged and m itself is authenticated."
    )
    return result


CHECKS: Dict[str, Claim] = {
    # Spoofing can delay termination but never prevents delivery.
    "delivery_every_spend": lambda panel: all(
        row["delivery_fraction"] >= 0.99 for row in panel[0].rows
    ),
    # Alice's cost grows only sublinearly in the spoofer's spend; a sweep that
    # loses the fit fails rather than passes.
    "alice_exponent_vs_spoof_spend": lambda panel: "alice_exponent_vs_spoof_spend"
    in panel[0].summaries
    and panel[0].summaries["alice_exponent_vs_spoof_spend"] < 0.8,
    # Delay (in rounds) grows with spend.
    "delay_grows_with_spend": lambda panel: [
        row["alice_terminated_round"] for row in panel[0].rows
    ]
    == sorted(row["alice_terminated_round"] for row in panel[0].rows),
}
