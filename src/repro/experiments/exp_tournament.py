"""E14 — the adversary–protocol tournament's competitiveness exponents.

The E-numbered experiments each pit one hand-picked adversary against one
protocol; E14 runs the round-robin grid of :mod:`repro.tournament` —
every roster adversary × every compatible protocol variant × a topology
grid straddling the Gilbert connectivity threshold — at matched budget
fractions, and fits each cell's resource-competitiveness exponent
(``node cost ≈ c · T^ρ``, over every trial) with a confidence interval
or a flagged degenerate-cell sentinel.

Theorem 1 predicts ``ρ ≤ 1/(k+1) = 1/3`` for ε-Broadcast on the shared
channel up to polylog factors; the tournament measures where each attack
actually lands, which adversary drives the steepest growth per protocol,
and how the multi-hop quiet-rule variants shift the picture.  The full
grid (204 cells) is the LEADERBOARD.md sweep
(``tools/generate_leaderboard_md.py``); quick mode runs a representative
sub-grid so the registry stays cheap.
"""

from __future__ import annotations

import math
from typing import Dict

from ..tournament import run_tournament, tournament_cells
from .harness import Claim, ExperimentResult, ExperimentSettings

__all__ = ["run", "EXPERIMENT_ID", "TITLE", "CLAIM", "CHECKS", "quick_grid"]

EXPERIMENT_ID = "E14"
TITLE = "Adversary-protocol tournament: fitted competitiveness exponents per cell"
CLAIM = (
    "Across the round-robin adversary x protocol x topology grid at matched budget "
    "fractions, every cell's fitted cost exponent (or flagged degenerate sentinel) "
    "stays consistent with Theorem 1's T^{1/(k+1)} resource-competitiveness bound, "
    "and the worst observed adversary per protocol is identified by exponent, not by "
    "hand-picking"
)

QUICK_FRACTIONS = (0.1, 0.4, 0.9)
"""Quick-mode spend sweep: 9x dynamic range in three points."""


def _num(value: float):
    """A finite float, or an em-dash placeholder for flagged cells.

    Rows must never carry NaN: the registry-wide golden tests compare rows
    with ``==``, and ``nan != nan`` would make bit-identical runs diverge.
    """

    return value if math.isfinite(value) else "—"


def quick_grid():
    """The representative sub-grid quick mode runs.

    One channel-attack column on the shared channel, the full default
    multi-hop variant on a near-threshold Gilbert graph — the two regimes
    the paper's claims (single-hop Theorem 1, multi-hop delivery) live in.
    """

    single_hop = tournament_cells(
        adversaries=["budget_blocker", "bursty", "request_spoofer"],
        protocols=["eps-broadcast"],
        topologies=["single-hop"],
    )
    spatial = tournament_cells(
        adversaries=["budget_blocker", "bursty", "request_spoofer", "reactive_disk"],
        protocols=["mh-degree-aware"],
        topologies=["gilbert-near"],
    )
    return single_hop + spatial


def run(settings: ExperimentSettings) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        columns=[
            "adversary",
            "protocol",
            "topology",
            "node_exponent",
            "ci_low",
            "ci_high",
            "r_squared",
            "flag",
            "carol_spend_max",
            "node_max_cost",
            "delivery_min",
        ],
    )

    if settings.quick:
        cells = quick_grid()
        fractions = QUICK_FRACTIONS
    else:
        from ..tournament import SPEND_FRACTIONS

        cells = tournament_cells()
        fractions = SPEND_FRACTIONS

    tournament = run_tournament(
        settings, cells=cells, spend_fractions=fractions, label=EXPERIMENT_ID
    )

    for cell_result in tournament.cells:
        fit = cell_result.node_fit
        result.add_row(
            adversary=cell_result.cell.adversary,
            protocol=cell_result.cell.protocol,
            topology=cell_result.cell.topology,
            node_exponent=_num(fit.exponent),
            ci_low=_num(fit.ci_low),
            ci_high=_num(fit.ci_high),
            r_squared=_num(fit.r_squared),
            flag=fit.reason if fit.flagged else "ok",
            carol_spend_max=max(cell_result.spends),
            node_max_cost=max(cell_result.node_max_costs),
            delivery_min=cell_result.delivery_min,
        )

    for protocol, worst in sorted(tournament.worst_per_protocol().items()):
        fit = worst.node_fit
        exponent = f"rho={fit.exponent:.3f}" if fit.ok else f"flagged ({fit.reason})"
        result.add_note(
            f"worst observed adversary for {protocol}: {worst.cell.adversary} "
            f"on {worst.cell.topology} ({exponent})"
        )
    result.add_note(
        "Budgets are matched as fractions of Carol's aggregate ledger budget; each cell "
        "fits max per-node cost against realised spend over every trial (fit_cost_exponent), "
        "and degenerate cells (saturated spend, flat cost, zero cost) carry a flagged "
        "sentinel instead of a spurious exponent."
    )
    result.add_note(
        "The full 204-cell grid with per-protocol rankings and the worst-case parameter "
        "search is LEADERBOARD.md (tools/generate_leaderboard_md.py); quick mode runs the "
        "representative single-hop and near-threshold columns."
    )
    return result


CELL_FLAGS = frozenset(
    {"ok", "flat-cost", "degenerate-spend-range", "insufficient-points", "zero-cost"}
)
"""Every ``flag`` a row may carry: ``ok`` or one of the fit's sentinels."""


def _fitted_or_flagged(row: dict) -> bool:
    if row["flag"] != "ok":
        return row["flag"] in CELL_FLAGS
    return all(
        isinstance(row[column], float) and math.isfinite(row[column])
        for column in ("node_exponent", "ci_low", "ci_high")
    )


CHECKS: Dict[str, Claim] = {
    # The cell contract: every cell carries a usable exponent with a finite
    # interval, or a known sentinel in place of a spurious one.
    "cells_fitted_or_flagged": lambda panel: all(
        _fitted_or_flagged(row) for row in panel[0].rows
    ),
}
