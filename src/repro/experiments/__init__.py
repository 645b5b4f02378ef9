"""The experiment harness: one experiment per quantitative claim of the paper."""

from .cache import CACHE_VERSION, TrialCache, trial_key
from .faults import (
    DEFAULT_FAULT_POLICY,
    FaultInjector,
    FaultPolicy,
    QuarantineError,
    TrialFailure,
)
from .harness import DOCS_PROFILE, Claim, ExperimentResult, ExperimentSettings
from .reporting import render_result, render_results, render_table
from .runner import TrialSpec, run_sweep

__all__ = [
    "CACHE_VERSION",
    "Claim",
    "DEFAULT_FAULT_POLICY",
    "DOCS_PROFILE",
    "ExperimentResult",
    "ExperimentSettings",
    "FaultInjector",
    "FaultPolicy",
    "QuarantineError",
    "TrialCache",
    "TrialFailure",
    "TrialSpec",
    "render_result",
    "render_results",
    "render_table",
    "run_sweep",
    "trial_key",
]


def run_experiment(experiment_id, settings=None):
    """Run a registered experiment by id (lazy import to avoid cycles)."""

    from .registry import run_experiment as _run

    return _run(experiment_id, settings)


def run_all(settings=None):
    """Run every registered experiment (lazy import to avoid cycles)."""

    from .registry import run_all as _run_all

    return _run_all(settings)
