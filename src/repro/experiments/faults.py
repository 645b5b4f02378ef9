"""Fault tolerance for sweep execution: policy, sentinel records, chaos injection.

The parallel trial runner (:func:`repro.experiments.runner.run_sweep`) fans
embarrassingly parallel Monte-Carlo grids across worker processes.  On a long
sweep, failure is not exceptional — a worker gets OOM-killed, a pathological
configuration hangs, a disk fills mid-run — and before this module existed any
of those killed the *whole* sweep.  This module makes failure a first-class,
deterministic input to the execution layer:

* :class:`FaultPolicy` — the per-sweep knobs: chunk ``timeout_s``,
  ``max_retries`` per trial (a failed unit is re-dispatched at once), the
  pool-respawn budget before degrading to serial execution, and ``strict``
  mode (re-raise instead of quarantining).  It reaches the runner only as
  :attr:`ExperimentSettings.fault_policy
  <repro.experiments.harness.ExperimentSettings.fault_policy>`.
* :class:`TrialFailure` — the quarantine sentinel.  A trial that keeps failing
  past its retry budget lands in the sweep's results as an explicit record of
  *what* failed and *why*, instead of killing the other 10,000 trials.
  Aggregation (:func:`repro.analysis.stats.aggregate_records`) skips these,
  and EXPERIMENTS.md generation surfaces them in an explicit footer note.
* :func:`fault_event` — the runner publishes one ``"fault"``
  :class:`~repro.observability.trace.TraceEvent` per fault-handling decision
  (``retry``, ``timeout``, ``worker-death``, ``quarantine``,
  ``cache-disabled``, ``pool-degraded``) to the sinks opened with
  :func:`repro.observability.trace.observe`; :func:`quarantine_note`
  summarises the quarantines among them.
* :class:`FaultInjector` — the deterministic chaos harness: crash a worker,
  hang a chunk, or corrupt a just-written cache entry at chosen
  ``(labels, trial)`` coordinates.  Injection decisions are pure functions of
  the coordinates and the dispatch attempt (crashes and hangs fire only on a
  unit's first dispatch), so an injected sweep *recovers* and its results
  are bit-identical to a fault-free run — the property
  ``tests/test_faults.py`` gates.

Everything here preserves the runner's core invariant: retries consume no
randomness (seeds are pure functions of ``(labels, trial_index)``), so a
recovered sweep is bit-identical to an undisturbed one.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import zlib
from dataclasses import dataclass
from numbers import Integral, Real
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from ..observability.trace import TraceEvent

if TYPE_CHECKING:  # runtime import stays lazy: cache imports faults
    from .cache import TrialCache
from ..simulation.errors import ConfigurationError

__all__ = [
    "FaultPolicy",
    "DEFAULT_FAULT_POLICY",
    "TrialFailure",
    "QuarantineError",
    "fault_event",
    "FaultInjector",
    "quarantine_note",
]


@dataclass(frozen=True)
class FaultPolicy:
    """How one sweep treats failing work.

    Attributes
    ----------
    timeout_s:
        Wall-clock budget for one dispatched chunk of trials.  A chunk that
        exceeds it is presumed hung: the worker pool is torn down (killing
        the hung worker), respawned, and every interrupted chunk is
        re-dispatched.  ``None`` (the default) disables the watchdog.  The
        watchdog needs a pool — the serial ``jobs=1`` path cannot interrupt
        synchronous execution and ignores it.
    max_retries:
        How many times one trial may be *re*-dispatched after its first
        attempt (so a trial runs at most ``max_retries + 1`` times) before it
        is quarantined into a :class:`TrialFailure`.  A retry is dispatched
        at once, on its own.
    max_pool_respawns:
        How many pool breakages (worker death or timeout kill) one sweep
        absorbs before giving up on parallelism: the next breakage degrades
        the rest of the sweep to in-process serial execution with a single
        warning, instead of thrashing a failing machine.
    strict:
        Opt-in fail-fast: the first quarantine raises :class:`QuarantineError`
        instead of recording a sentinel.  The default (``False``) lets the
        sweep complete around the failure.
    """

    timeout_s: Optional[float] = None
    max_retries: int = 2
    max_pool_respawns: int = 3
    strict: bool = False

    def __post_init__(self) -> None:
        if self.timeout_s is not None and (
            not isinstance(self.timeout_s, Real)
            or isinstance(self.timeout_s, bool)
            or float(self.timeout_s) <= 0.0
        ):
            raise ConfigurationError(
                f"FaultPolicy.timeout_s must be a positive number or None, "
                f"got {self.timeout_s!r}"
            )
        for name in ("max_retries", "max_pool_respawns"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
                raise ConfigurationError(
                    f"FaultPolicy.{name} must be a non-negative integer, got {value!r}"
                )
        if not isinstance(self.strict, bool):
            raise ConfigurationError(
                f"FaultPolicy.strict must be a bool, got {self.strict!r}"
            )


DEFAULT_FAULT_POLICY = FaultPolicy()
"""The default of ``ExperimentSettings.fault_policy``.

No timeout (a watchdog needs a per-workload budget to be meaningful), two
immediate retries, three pool respawns, quarantine instead of raising.  With
no faults occurring this policy is behaviourally invisible: no clock reads,
no extra RNG, bit-identical records.
"""


@dataclass(frozen=True)
class TrialFailure:
    """Quarantine sentinel: one trial that kept failing past its retry budget.

    Takes the place of the trial's record in ``run_sweep``'s results, so the
    sweep's shape (``results[spec][trial]``) is preserved and the failure is
    inspectable — labels, seed, the exception's type and message, how many
    attempts were burned, and the fault class (``"error"`` for an exception
    raised by the trial, ``"timeout"`` / ``"worker-death"`` when the retry
    budget was exhausted by infrastructure faults).

    Not a mapping on purpose: record aggregation
    (:func:`repro.analysis.stats.aggregate_records`) recognises and skips
    sentinels by exactly that distinction.
    """

    labels: Tuple[object, ...]
    trial_index: int
    seed: int
    kind: str
    error_type: str
    error_message: str
    attempts: int

    def describe(self) -> str:
        return (
            f"trial {self.trial_index} of {self.labels!r} quarantined after "
            f"{self.attempts} attempt(s): [{self.kind}] "
            f"{self.error_type}: {self.error_message}"
        )


class QuarantineError(RuntimeError):
    """Raised (strict mode only) when a trial exhausts its retry budget."""

    def __init__(self, failure: TrialFailure) -> None:
        super().__init__(failure.describe())
        self.failure = failure


def fault_event(
    kind: str,
    labels: Tuple[object, ...] = (),
    trial_index: int = -1,
    attempt: int = 0,
    detail: str = "",
) -> TraceEvent:
    """One fault-handling decision made by the runner, as a ``"fault"`` event.

    ``kind`` is one of ``"retry"`` (a unit re-dispatched), ``"timeout"`` (a chunk exceeded ``FaultPolicy.timeout_s`` and its
    pool was killed), ``"worker-death"`` (the process pool broke and was
    respawned), ``"quarantine"`` (a trial exhausted its retries),
    ``"cache-disabled"`` (the trial store hit a write failure and switched
    itself off for the rest of the run), or ``"pool-degraded"`` (breakage
    exceeded the respawn budget; the sweep finished serially).  It is stored
    as ``data["fault"]``.
    """

    return TraceEvent(
        kind="fault",
        data={
            "fault": kind,
            "labels": repr(labels),
            "trial_index": int(trial_index),
            "attempt": int(attempt),
            "detail": detail,
        },
    )


def quarantine_note(events: Sequence[TraceEvent]) -> Optional[str]:
    """A one-line human summary of a trace's quarantines, or ``None`` if clean.

    Used by ``tools/generate_experiments_md.py`` to surface failed trials in
    the generated document explicitly (count + first failing coordinates)
    instead of silently dropping them from the aggregated tables.
    """

    quarantined = [
        event
        for event in events
        if event.kind == "fault" and event.data.get("fault") == "quarantine"
    ]
    if not quarantined:
        return None
    first = quarantined[0].data
    return (
        f"{len(quarantined)} trial(s) quarantined; first failure at "
        f"labels={first['labels']} trial={first['trial_index']} ({first['detail']})"
    )


def _coordinate_set(
    coordinates: Sequence[Tuple[Sequence[object], int]]
) -> Tuple[Tuple[Tuple[object, ...], int], ...]:
    out = []
    for labels, trial_index in coordinates:
        if isinstance(labels, str):
            labels = (labels,)
        out.append((tuple(labels), int(trial_index)))
    return tuple(out)


@dataclass(frozen=True)
class FaultInjector:
    """Deterministic chaos: crash, hang, or corrupt at chosen coordinates.

    Coordinates are ``(labels, trial_index)`` pairs; ``labels`` may be a
    *prefix* of a spec's label tuple (``("E2",)`` matches every E2 sweep
    point), and a bare string is treated as a one-element prefix.  Crash and
    hang injections fire only on a unit's first dispatch (attempt ``0``), so
    the runner's retry machinery recovers and the sweep's results remain bit-identical to a
    fault-free run — which is exactly what the chaos tests assert.

    * **crashes** — the worker executing the unit calls ``os._exit``: the
      process dies mid-task and the pool breaks, exactly like an OOM kill.
      Never fires in the coordinating process (serial path ignores it).
    * **hangs** — the worker sleeps ``hang_s`` seconds before computing,
      long enough to trip any sane :attr:`FaultPolicy.timeout_s`.  Also
      worker-only.
    * **corruptions** — after the parent writes the unit's cache entry, the
      entry is truncated to a seed-derived torn prefix: the next warm read
      must degrade to a miss and recompute.

    The injector is plain frozen data: picklable (it crosses the process
    boundary with each chunk) and stable under equality, and every decision
    is a pure function of ``(labels, trial_index, attempt)``.
    """

    seed: int = 0
    crashes: Tuple[Tuple[Tuple[object, ...], int], ...] = ()
    hangs: Tuple[Tuple[Tuple[object, ...], int], ...] = ()
    corruptions: Tuple[Tuple[Tuple[object, ...], int], ...] = ()
    hang_s: float = 60.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", _coordinate_set(self.crashes))
        object.__setattr__(self, "hangs", _coordinate_set(self.hangs))
        object.__setattr__(self, "corruptions", _coordinate_set(self.corruptions))
        if not isinstance(self.hang_s, Real) or float(self.hang_s) <= 0:
            raise ConfigurationError(
                f"FaultInjector.hang_s must be a positive number, got {self.hang_s!r}"
            )

    @staticmethod
    def _matches(
        coordinates: Tuple[Tuple[Tuple[object, ...], int], ...],
        labels: Sequence[object],
        trial_index: int,
    ) -> bool:
        labels = tuple(labels)
        for coord_labels, coord_trial in coordinates:
            if coord_trial != trial_index:
                continue
            if len(coord_labels) <= len(labels) and labels[: len(coord_labels)] == coord_labels:
                return True
        return False

    def plans_crash(self, labels: Sequence[object], trial_index: int, attempt: int) -> bool:
        return attempt == 0 and self._matches(self.crashes, labels, trial_index)

    def plans_hang(self, labels: Sequence[object], trial_index: int, attempt: int) -> bool:
        return attempt == 0 and self._matches(self.hangs, labels, trial_index)

    def corrupts(self, labels: Sequence[object], trial_index: int) -> bool:
        return self._matches(self.corruptions, labels, trial_index)

    def apply_in_worker(self, labels: Sequence[object], trial_index: int, attempt: int) -> None:
        """Execute any planned crash/hang for this unit — worker processes only.

        Guarded on :func:`multiprocessing.parent_process`, so the serial path
        (and the degraded-to-serial path) can never kill or stall the
        coordinating process.
        """

        if multiprocessing.parent_process() is None:
            return
        if self.plans_crash(labels, trial_index, attempt):
            os._exit(86)
        if self.plans_hang(labels, trial_index, attempt):
            time.sleep(float(self.hang_s))

    def corrupt_entry(self, cache: TrialCache, key: str) -> None:
        """Tear a just-written cache entry: keep a seed-derived strict prefix."""

        path = cache.path_for(key)
        try:
            data = path.read_bytes()
            if len(data) < 2:
                return
            keep = 1 + zlib.crc32(f"{self.seed}:{key}".encode("utf-8")) % (len(data) - 1)
            path.write_bytes(data[:keep])
        except OSError:
            pass
