"""Experiment registry.

Maps experiment ids (E1 … E14) to their runner functions and their named
claim checks, so the examples, EXPERIMENTS.md generation and the tier-1
claim tests can iterate over every reproduced claim uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping

from . import (
    exp_adversary_ablation,
    exp_baseline_compare,
    exp_cost_scaling,
    exp_delivery,
    exp_general_k,
    exp_latency,
    exp_load_balance,
    exp_mobile_jammer,
    exp_multihop,
    exp_quiet_rule,
    exp_reactive,
    exp_size_estimate,
    exp_spoofing,
    exp_tournament,
)
from .harness import Claim, ExperimentResult, ExperimentSettings

__all__ = [
    "ExperimentSpec",
    "EXPERIMENTS",
    "run_experiment",
    "run_panel",
    "run_all",
    "experiment_ids",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """Metadata, runner and claim checks for one registered experiment.

    ``checks`` names each predicate that must hold over the results of the
    experiment's seed panel (``panel_seeds`` runs, see :func:`run_panel`).
    Nothing here evaluates them: :func:`run_experiment` only runs.
    """

    experiment_id: str
    title: str
    claim: str
    runner: Callable[[ExperimentSettings], ExperimentResult]
    checks: Mapping[str, Claim]
    panel_seeds: int


_MODULES = [
    exp_cost_scaling,
    exp_delivery,
    exp_latency,
    exp_load_balance,
    exp_baseline_compare,
    exp_general_k,
    exp_reactive,
    exp_size_estimate,
    exp_adversary_ablation,
    exp_spoofing,
    exp_multihop,
    exp_mobile_jammer,
    exp_quiet_rule,
    exp_tournament,
]

EXPERIMENTS: Dict[str, ExperimentSpec] = {
    module.EXPERIMENT_ID: ExperimentSpec(
        experiment_id=module.EXPERIMENT_ID,
        title=module.TITLE,
        claim=module.CLAIM,
        runner=module.run,
        checks=module.CHECKS,
        panel_seeds=getattr(module, "PANEL_SEEDS", 1),
    )
    for module in _MODULES
}


def experiment_ids() -> List[str]:
    """All registered experiment ids, in numeric order."""

    return sorted(EXPERIMENTS, key=lambda eid: int(eid.lstrip("E")))


def run_experiment(experiment_id: str, settings: ExperimentSettings | None = None) -> ExperimentResult:
    """Run one experiment by id."""

    if experiment_id not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {experiment_id!r}; available: {experiment_ids()}")
    settings = settings if settings is not None else ExperimentSettings()
    return EXPERIMENTS[experiment_id].runner(settings)


def run_panel(experiment_id: str, settings: ExperimentSettings) -> List[ExperimentResult]:
    """The experiment's seed panel: one run per seed ``settings.seed + i``.

    The first member is :func:`run_experiment` at ``settings`` itself, so a
    panel run at the EXPERIMENTS.md profile also reproduces its table.
    """

    panel_seeds = EXPERIMENTS[experiment_id].panel_seeds
    return [
        run_experiment(experiment_id, replace(settings, seed=settings.seed + offset))
        for offset in range(panel_seeds)
    ]


def run_all(settings: ExperimentSettings | None = None) -> List[ExperimentResult]:
    """Run every registered experiment and return the results in order."""

    settings = settings if settings is not None else ExperimentSettings()
    return [run_experiment(eid, settings) for eid in experiment_ids()]
