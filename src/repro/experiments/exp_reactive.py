"""E7 — reactive jamming and the decoy-traffic countermeasure (§4.1, Lemma 19).

A reactive Carol senses channel activity within the slot and only jams busy
slots.  Against the unmodified protocol this is devastating *and cheap*: the
only busy inform-phase slots are Alice's transmissions, so Carol kills every
copy of ``m`` while paying no more than Alice does.  §4.1's fix is for correct
nodes to transmit decoys that are indistinguishable at the RSSI level, forcing
Carol to jam a constant fraction of *all* slots.  The experiment runs the
plain and decoy variants against the same reactive jammer (and, for reference,
against no jamming) and reports delivery and the cost Carol had to sink to
have any effect.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..analysis.bounds import reactive_f_threshold
from ..analysis.stats import aggregate_records
from ..core.api import run_broadcast
from ..tournament.roster import reactive
from .harness import Claim, ExperimentResult, ExperimentSettings
from .runner import TrialSpec, run_sweep

__all__ = ["run", "EXPERIMENT_ID", "TITLE", "CLAIM", "CHECKS"]

EXPERIMENT_ID = "E7"
TITLE = "Reactive jamming vs the decoy-traffic variant"
CLAIM = "With decoy traffic the protocol stays resource-competitive against a reactive adversary for f < 1/24 (Lemma 19); without decoys a reactive jammer blocks m at cost comparable to Alice's"


def _trial(seed: int, n: int, variant: str, f: float, attack: bool) -> dict:
    """One E7 trial: ``variant`` at jam-rate ``f``, reactively jammed or clean."""

    outcome = run_broadcast(
        n=n,
        k=2,
        f=f,
        seed=seed,
        variant=variant,
        adversary=reactive(None) if attack else "none",
    )
    record = outcome.as_record()
    record["carol_over_alice"] = (
        outcome.adversary_spend / outcome.alice_cost if outcome.alice_cost else 0.0
    )
    return record


def run(settings: ExperimentSettings) -> ExperimentResult:
    f_values = [1.0 / 48.0, 1.0 / 24.0]
    if not settings.quick:
        f_values.append(1.0 / 6.0)

    scenarios = []
    for f in f_values:
        scenarios.append(("plain + reactive", "epsilon-broadcast", f, True))
        scenarios.append(("decoy + reactive", "decoy", f, True))
    scenarios.append(("decoy, no attack", "decoy", 1.0 / 24.0, False))

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        columns=[
            "scenario",
            "f",
            "delivery_fraction",
            "carol_spend",
            "alice_cost",
            "node_max_cost",
            "carol_over_alice",
        ],
    )

    specs = [
        TrialSpec.point(
            _trial,
            EXPERIMENT_ID,
            label,
            f,
            n=settings.n,
            variant=variant,
            f=f,
            attack=attack,
        )
        for label, variant, f, attack in scenarios
    ]
    per_point = run_sweep(specs, settings)

    for (label, _variant, f, _attack), records in zip(scenarios, per_point):
        summary = aggregate_records(records)
        result.add_row(
            scenario=label,
            f=f,
            delivery_fraction=summary["delivery_fraction"].mean,
            carol_spend=summary["adversary_spend"].mean,
            alice_cost=summary["alice_cost"].mean,
            node_max_cost=summary["node_max_cost"].mean,
            carol_over_alice=summary["carol_over_alice"].mean,
        )

    result.summaries["f_threshold"] = reactive_f_threshold()
    result.add_note(
        "Against the plain protocol the reactive jammer suppresses delivery until her budget dies "
        "while spending little per round (carol_over_alice stays small); with decoys she must jam a "
        "constant fraction of all busy slots, so her spend per round of delay explodes and delivery "
        "recovers — the 'make your own noise' effect of §4.1."
    )
    result.add_note(
        f"The paper proves the decoy guarantee for f < 1/24 ≈ {reactive_f_threshold():.4f}; larger f "
        "gives Carol enough aggregate budget to outlast the decoy traffic."
    )
    return result


def _rows(panel: Sequence[ExperimentResult], prefix: str) -> List[dict]:
    return [row for row in panel[0].rows if row["scenario"].startswith(prefix)]


CHECKS: Dict[str, Claim] = {
    # Without decoys the reactive jammer suppresses delivery whenever her
    # budget suffices (the f = 1/24 row; at this profile the f = 1/48 budget
    # is too small to outlast Alice, which is itself on-message).
    "plain_suppressed": lambda panel: any(
        row["delivery_fraction"] < 0.5 for row in _rows(panel, "plain")
    ),
    # With decoys delivery recovers and Carol pays a multiple of Alice's cost,
    # whereas against the plain protocol she pays less than Alice does.
    "decoy_delivers": lambda panel: all(
        row["delivery_fraction"] >= 0.9 for row in _rows(panel, "decoy + reactive")
    ),
    "decoy_carol_outspends_alice": lambda panel: all(
        row["carol_over_alice"] > 1.0 for row in _rows(panel, "decoy + reactive")
    ),
    "decoy_raises_carol_cost": lambda panel: max(
        row["carol_over_alice"] for row in _rows(panel, "plain")
    )
    < min(row["carol_over_alice"] for row in _rows(panel, "decoy + reactive")),
}
