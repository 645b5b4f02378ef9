"""Deterministic worst-case adversary search per tournament cell.

The E-numbered experiments pit hand-picked adversary configurations against
the protocol; this module stress-tests those choices.  For one tournament
cell it runs a coordinate-wise grid refinement over the adversary's declared
parameter space (:meth:`~repro.adversary.base.Adversary.tunable_parameters`):
evaluate a small grid per knob, keep the argmax, shrink the window around it,
repeat.  Three properties matter more than search power:

* **Seeded by the hand-picked configuration.**  The roster defaults are the
  first candidate, so the search result is *never worse* than the E-numbered
  settings in its cell — the acceptance bar the leaderboard reports against.
* **Deterministic and process-stable.**  Candidates come from fixed grids
  (no RNG), every evaluation routes through ``run_sweep`` with seeds derived
  from the settings' label scheme, and ties keep the incumbent — re-running
  in another process reproduces the same argmax bit-for-bit (and a warm
  ``TrialCache`` serves the re-run without executing a trial).
* **Bounded.**  Candidates are generated by ``ParamSpec.grid``, which clips
  to the declared interval, so the optimiser cannot propose a configuration
  the adversary's constructor would reject.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..simulation.errors import ConfigurationError
from .harness import TournamentCell, tournament_trial

if TYPE_CHECKING:  # runtime import stays lazy: experiments imports tournament
    from ..experiments.harness import ExperimentSettings
from .roster import adversary_roster

__all__ = ["OptimisationResult", "optimise_cell"]

DEFAULT_SPEND_FRACTION = 0.4
"""Budget level the search evaluates at: high enough that jamming binds,
below the cap-saturation regime where every strategy looks alike."""


@dataclass(frozen=True)
class OptimisationResult:
    """Outcome of one cell's worst-case search."""

    cell: TournamentCell
    spend_fraction: float
    baseline_params: Tuple[Tuple[str, float], ...]
    baseline_score: float
    best_params: Tuple[Tuple[str, float], ...]
    best_score: float
    evaluations: int
    history: Tuple[Tuple[Tuple[Tuple[str, float], ...], float], ...]

    @property
    def improvement(self) -> float:
        """Best-over-baseline score ratio (≥ 1.0 by construction)."""

        if self.baseline_score <= 0:
            return 1.0 if self.best_score <= self.baseline_score else float("inf")
        return self.best_score / self.baseline_score

    def beats_hand_picked(self) -> bool:
        """Whether the search matched or beat the roster's hand-picked cell."""

        return self.best_score >= self.baseline_score


def cell_score(records: Sequence[Mapping[str, float]]) -> float:
    """Damage metric: mean per-node energy the protocol burns in the cell.

    Theorem 1 bounds exactly this quantity against Carol's spend, so "most
    costly adversary" means "largest mean node cost at the matched budget".
    """

    return float(np.mean([record["node_mean_cost"] for record in records]))


def optimise_cell(
    cell: TournamentCell,
    settings: ExperimentSettings,
    *,
    spend_fraction: float = DEFAULT_SPEND_FRACTION,
    rounds: int = 2,
    grid_points: int = 3,
    label: str = "T-opt",
) -> OptimisationResult:
    """Coordinate grid refinement toward the cell's worst-case configuration.

    Every candidate is evaluated at the *same* derived trial seeds (labels
    carry the cell, not the parameters), so comparisons are paired and the
    argmax is stable across processes; the trial cache keys on the
    parameters, so repeated candidates cost nothing.
    """

    template = adversary_roster()[cell.adversary](None)
    specs = template.tunable_parameters()
    defaults: Dict[str, float] = {
        name: template.get_parameter(name) for name in sorted(specs)
    }

    def is_valid(params: Dict[str, float]) -> bool:
        # Per-knob bounds are guaranteed by ParamSpec.grid; cross-field
        # constraints (e.g. bursty period ≥ burst_length) are the class's
        # own _validate_parameters, exercised by a dry construction.
        try:
            template.with_parameters(**params)
        except ConfigurationError:
            return False
        return True

    evaluated: Dict[Tuple[Tuple[str, float], ...], float] = {}
    history: List[Tuple[Tuple[Tuple[str, float], ...], float]] = []

    def evaluate(params: Dict[str, float]) -> float:
        key = _freeze(params)
        if key not in evaluated:
            records = _run_candidate(cell, settings, key, spend_fraction, label)
            evaluated[key] = cell_score(records)
            history.append((key, evaluated[key]))
        return evaluated[key]

    best_params = dict(defaults)
    baseline_score = best_score = evaluate(best_params)

    for round_index in range(rounds):
        for name in sorted(specs):
            spec = specs[name]
            window = spec.span() / (2.0 ** round_index)
            center = best_params[name]
            candidates = spec.grid(
                grid_points, center - window / 2.0, center + window / 2.0
            )
            for value in candidates:
                if value == center:
                    continue
                candidate = {**best_params, name: value}
                if not is_valid(candidate):
                    continue
                score = evaluate(candidate)
                # Strict improvement only: ties keep the incumbent, which
                # pins the argmax regardless of evaluation order.
                if score > best_score:
                    best_score = score
                    best_params = {**best_params, name: value}

    return OptimisationResult(
        cell=cell,
        spend_fraction=spend_fraction,
        baseline_params=_freeze(defaults),
        baseline_score=baseline_score,
        best_params=_freeze(best_params),
        best_score=best_score,
        evaluations=len(evaluated),
        history=tuple(history),
    )


def _freeze(params: Dict[str, float]) -> Tuple[Tuple[str, float], ...]:
    return tuple(sorted(params.items()))


def _run_candidate(
    cell: TournamentCell,
    settings: ExperimentSettings,
    params: Tuple[Tuple[str, float], ...],
    spend_fraction: float,
    label: str,
):
    from ..experiments.runner import TrialSpec, run_sweep

    spec = TrialSpec.point(
        tournament_trial,
        label,
        cell.adversary,
        cell.protocol,
        cell.topology,
        f"{spend_fraction:g}",
        n=settings.n,
        adversary=cell.adversary,
        protocol=cell.protocol,
        topology=cell.topology,
        spend_fraction=float(spend_fraction),
        adversary_params=params,
    )
    return run_sweep([spec], settings)[0]
