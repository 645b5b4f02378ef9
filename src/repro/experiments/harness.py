"""Experiment harness.

Every experiment in :mod:`repro.experiments` produces an
:class:`ExperimentResult`: a titled table of rows (one per configuration or
sweep point) plus free-form notes comparing the measurement against the
paper's claim.  :class:`ExperimentSettings` centralises the knobs that every
experiment shares — network size, number of repeated trials, base seed, and a
``quick`` flag that shrinks sweeps to keep runtimes sensible — and is the one
carrier of the trial runner's configuration: worker count, trial store, fault
policy and chaos injector.
:data:`DOCS_PROFILE` is the one profile EXPERIMENTS.md is generated (and its
claims checked) at, and a :data:`Claim` is one named check of an experiment's
claim over the results of its seed panel.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from numbers import Integral
from typing import Callable, Dict, List, Optional, Sequence

from ..simulation.errors import ConfigurationError
from ..simulation.rng import derive_seed
from .faults import DEFAULT_FAULT_POLICY, FaultInjector, FaultPolicy

__all__ = [
    "Claim",
    "DOCS_PROFILE",
    "ExperimentSettings",
    "ExperimentResult",
]


def _is_int(value: object) -> bool:
    """An integral value that is not a bool (``True`` is not a trial count)."""

    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentSettings:
    """Shared experiment knobs.

    Attributes
    ----------
    n:
        Number of correct nodes in each simulated network.
    trials:
        Number of independent seeds per sweep point.
    seed:
        Base seed; per-trial seeds are derived deterministically from it.
    quick:
        When ``True``, experiments shrink their sweeps (fewer points, smaller
        ``n``) so that the full benchmark suite completes in minutes.  The
        reproduced *shape* is unchanged; only statistical resolution drops.
    jobs:
        Worker-process count for the trial runner
        (:func:`repro.experiments.runner.run_sweep`).  ``None`` defers to the
        ``REPRO_JOBS`` environment variable, and absent that to ``1`` (the
        serial fallback).  Parallel runs are bit-identical to serial ones —
        seeds are derived per (labels, trial index), never per worker.
    cache_dir:
        Directory of the content-addressed trial store
        (:class:`repro.experiments.cache.TrialCache`).  ``None`` defers to
        ``REPRO_CACHE_DIR``; no directory from either source disables
        caching, as does the explicit empty string ``""`` (which also masks
        the environment variable).
    fault_policy:
        How the trial runner treats failing work
        (:class:`repro.experiments.faults.FaultPolicy`: chunk timeouts, retry
        and pool-respawn budgets, quarantine vs strict).  Defaults to
        :data:`repro.experiments.faults.DEFAULT_FAULT_POLICY`.
    fault_injector:
        Optional deterministic chaos harness
        (:class:`repro.experiments.faults.FaultInjector`) used by tests to
        crash workers, hang chunks, and corrupt cache entries at chosen
        coordinates.  ``None`` (the default, and the only sensible
        production value) injects nothing.
    """

    n: int = 512
    trials: int = 3
    seed: int = 2012
    quick: bool = True
    jobs: Optional[int] = None
    cache_dir: Optional[str] = None
    fault_policy: FaultPolicy = DEFAULT_FAULT_POLICY
    fault_injector: Optional[FaultInjector] = None

    def __post_init__(self) -> None:
        # Validation failures name the offending field and echo the received
        # value: a typo'd sweep setting would otherwise only surface deep
        # inside the first protocol run, far from the call that caused it.
        if not _is_int(self.n) or self.n < 2:
            raise ConfigurationError(
                f"ExperimentSettings.n must be an integer >= 2, got {self.n!r}"
            )
        if not _is_int(self.trials) or self.trials < 1:
            raise ConfigurationError(
                f"ExperimentSettings.trials must be an integer >= 1, got {self.trials!r}"
            )
        if not _is_int(self.seed):
            raise ConfigurationError(
                f"ExperimentSettings.seed must be an integer, got {self.seed!r}"
            )
        if self.jobs is not None and (not _is_int(self.jobs) or self.jobs < 1):
            raise ConfigurationError(
                f"ExperimentSettings.jobs must be a positive integer or None, "
                f"got {self.jobs!r}"
            )
        if self.cache_dir is not None and not isinstance(self.cache_dir, (str, os.PathLike)):
            raise ConfigurationError(
                f"ExperimentSettings.cache_dir must be a path or None, got {self.cache_dir!r}"
            )
        if not isinstance(self.fault_policy, FaultPolicy):
            raise ConfigurationError(
                f"ExperimentSettings.fault_policy must be a FaultPolicy, "
                f"got {self.fault_policy!r}"
            )
        if self.fault_injector is not None and not isinstance(self.fault_injector, FaultInjector):
            raise ConfigurationError(
                f"ExperimentSettings.fault_injector must be a FaultInjector or None, "
                f"got {self.fault_injector!r}"
            )

    @property
    def resolved_jobs(self) -> int:
        """The effective worker count: explicit ``jobs``, else ``REPRO_JOBS``, else 1.

        The environment value is validated here, when it is actually consulted
        — a bad ``REPRO_JOBS`` names itself instead of surfacing as a cryptic
        pool failure mid-sweep.
        """

        if self.jobs is not None:
            return int(self.jobs)
        env = os.environ.get("REPRO_JOBS")
        if env is None or env.strip() == "":
            return 1
        try:
            value = int(env)
        except ValueError:
            raise ConfigurationError(
                f"REPRO_JOBS must be a positive integer, got {env!r}"
            ) from None
        if value < 1:
            raise ConfigurationError(f"REPRO_JOBS must be a positive integer, got {env!r}")
        return value

    @property
    def resolved_cache_dir(self) -> Optional[str]:
        """The effective trial-store directory, or ``None`` when caching is off.

        The empty string is "explicitly disabled": it wins over a
        ``REPRO_CACHE_DIR`` set in the environment.
        """

        if self.cache_dir is not None:
            value = os.fspath(self.cache_dir)
            return value if value else None
        env = os.environ.get("REPRO_CACHE_DIR")
        if env is None or env.strip() == "":
            return None
        return env

    def trial_seed(self, *labels: object) -> int:
        """A deterministic seed for one trial of one sweep point."""

        return derive_seed(self.seed, *labels)

    def with_(self, **changes: object) -> "ExperimentSettings":
        return replace(self, **changes)


@dataclass
class ExperimentResult:
    """The output of one experiment: a table plus interpretation notes."""

    experiment_id: str
    title: str
    claim: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    summaries: Dict[str, float] = field(default_factory=dict)
    # Lazily-built numeric column index: (row count it was built at, values by
    # column).  Excluded from comparison/repr — it is a pure read cache.
    _numeric_index: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def add_row(self, **values: object) -> None:
        self.rows.append(dict(values))
        self._numeric_index = None

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column_values(self, column: str) -> List[float]:
        """All numeric values recorded for a column, in row order.

        The numeric index over every column is built once per result (and
        rebuilt whenever the row count changes), so repeated lookups cost
        O(1) per column instead of rescanning all rows on every call.

        ``rows`` is treated as **append-only**: adding rows (via ``add_row``
        or appending to the list directly) invalidates the index, but
        mutating an existing row's cells in place would not be noticed —
        append a corrected row instead of editing one.
        """

        if self._numeric_index is None or self._numeric_index[0] != len(self.rows):
            index: Dict[str, List[float]] = {}
            for row in self.rows:
                for key, value in row.items():
                    if isinstance(value, (int, float)):
                        index.setdefault(key, []).append(float(value))
            self._numeric_index = (len(self.rows), index)
        return list(self._numeric_index[1].get(column, ()))


DOCS_PROFILE = ExperimentSettings(n=256, trials=2, seed=2012, quick=True)
"""The profile EXPERIMENTS.md is generated at and every experiment's claims are checked at.

``jobs`` and ``cache_dir`` stay unset (resolved from ``REPRO_JOBS`` /
``REPRO_CACHE_DIR``): they never change a table, only how fast it is made.
"""

Claim = Callable[[Sequence[ExperimentResult]], bool]
"""One named check of an experiment's claim.

It receives the results of the experiment's seed panel — the run at the
profile's own seed first, then ``seed + 1``, ``seed + 2``, … — and returns
whether the claim holds.
"""
