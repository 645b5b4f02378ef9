"""E3 — latency scaling: termination within O(n^{1+1/k}) slots (Theorem 1, Corollary 1).

Against a maximal jammer the protocol cannot finish before Carol's
``Θ(n^{1+1/k})`` budget is gone (she can silence the channel for that long),
and the theorem says it finishes within a constant factor of that — i.e. the
latency is asymptotically optimal.  The experiment sweeps ``n`` against a
full-budget continuous jammer, fits ``slots = c·n^α``, and checks ``α`` lands
near ``1 + 1/k = 1.5`` for ``k = 2``; the unjammed latency (a much smaller
polylog-driven quantity) is reported alongside for contrast.
"""

from __future__ import annotations

from typing import Dict

from ..adversary import ContinuousJammer
from ..analysis.fitting import fit_power_law
from ..analysis.stats import aggregate_records
from ..core.api import run_broadcast
from .harness import Claim, ExperimentResult, ExperimentSettings
from .runner import TrialSpec, run_sweep

__all__ = ["run", "EXPERIMENT_ID", "TITLE", "CLAIM", "CHECKS"]

EXPERIMENT_ID = "E3"
TITLE = "Latency vs network size under maximal jamming"
CLAIM = "All correct participants terminate within O(n^{1+1/k}) slots, which is asymptotically optimal (Corollary 1)"


def _trial(seed: int, n: int) -> dict:
    """One E3 trial: a jammed and an unjammed run of the same size ``n``."""

    jammed = run_broadcast(
        n=n,
        k=2,
        f=1.0,
        seed=seed,
        adversary=ContinuousJammer(),
    )
    clean = run_broadcast(n=n, k=2, f=1.0, seed=seed + 1, adversary="none")
    return {
        "slots_jammed": float(jammed.slots_elapsed),
        "slots_clean": float(clean.slots_elapsed),
        "delivery": jammed.delivery_fraction,
    }


def run(settings: ExperimentSettings) -> ExperimentResult:
    sizes = [128, 256, 512, 1024]
    if settings.quick:
        sizes = [128, 256, 512]

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        columns=[
            "n",
            "slots_jammed_run",
            "slots_unjammed_run",
            "n_pow_1_5",
            "slots_over_bound",
            "delivery_fraction",
        ],
    )

    specs = [TrialSpec.point(_trial, EXPERIMENT_ID, n, n=n) for n in sizes]
    per_point = run_sweep(specs, settings)

    jammed_latencies = []
    for n, records in zip(sizes, per_point):
        summary = aggregate_records(records)
        bound = float(n) ** 1.5
        jammed_latencies.append((n, summary["slots_jammed"].mean))
        result.add_row(
            n=n,
            slots_jammed_run=summary["slots_jammed"].mean,
            slots_unjammed_run=summary["slots_clean"].mean,
            n_pow_1_5=bound,
            slots_over_bound=summary["slots_jammed"].mean / bound,
            delivery_fraction=summary["delivery"].mean,
        )

    fit = fit_power_law([n for n, _ in jammed_latencies], [s for _, s in jammed_latencies])
    result.summaries["latency_exponent"] = fit.exponent
    result.summaries["predicted_exponent"] = 1.5
    result.add_note(
        f"Fitted latency exponent {fit.exponent:.3f} vs predicted 1 + 1/k = 1.5 "
        f"(fit: {fit})."
    )
    result.add_note(
        "The jammed-run latency tracks Carol's Θ(n^{3/2}) aggregate budget, the unjammed "
        "latency is dominated by the fixed 3·lg ln n warm-up rounds — both as the paper predicts."
    )
    return result


CHECKS: Dict[str, Claim] = {
    # The fitted latency exponent should straddle the predicted 1 + 1/k = 1.5.
    "latency_exponent_band": lambda panel: 1.3 <= panel[0].summaries["latency_exponent"] <= 1.7,
    "delivery_every_size": lambda panel: all(
        row["delivery_fraction"] >= 0.9 for row in panel[0].rows
    ),
}
