"""Live sweep progress: aggregation and CLI rendering of ``"progress"`` events.

The experiment runner (:func:`repro.experiments.runner.run_sweep`) completes
one *work unit* per (sweep point × trial) — served from the trial cache or
computed by a worker process — and, when an open sink wants them, publishes
one ``"progress"`` :class:`~repro.observability.trace.TraceEvent` per unit
**in the parent process**.  Nothing here runs in a worker, so progress
observation cannot perturb trial execution, and with no sink wanting
progress the runner does not even read the clock.

A progress event's ``data`` carries ``labels`` (the repr of the unit's
sweep-point labels), ``trial_index``, ``source`` (``"cache"`` when the trial
store served it, ``"run"`` when it was computed, ``"quarantine"`` when the
fault policy gave up on it), ``cache_miss`` (a store was consulted and
missed), ``completed`` / ``total`` (units done so far in this sweep,
including this one, and the sweep's ``len(specs) × trials``), and
``elapsed`` (parent-side seconds since the sweep started).

:class:`ProgressMonitor` folds the event stream into throughput / ETA /
cache-hit-rate aggregates; :class:`CliProgressRenderer` draws a throttled
single-line follower on a terminal stream (opt-in via ``--progress`` on the
generator tools and benchmarks — off by default, so generated documents and
benchmark output stay byte-identical).  Both are sinks for
:func:`~repro.observability.trace.observe`.
"""

from __future__ import annotations

import sys
import time
from typing import IO, Optional

from .trace import TraceEvent

__all__ = ["ProgressMonitor", "CliProgressRenderer"]


class ProgressMonitor:
    """Aggregate a ``"progress"`` event stream into rates and an ETA.

    A sink: open it with :func:`~repro.observability.trace.observe`, or feed
    it events via :meth:`record`.  Sweeps may arrive back to back — an
    experiment is often several nested ``run_sweep`` calls — so the monitor
    detects sweep boundaries (the per-event ``completed`` counter
    restarting, or the per-sweep ``total`` changing) and accumulates totals
    and wall-clock across them.
    """

    enabled = True
    kinds = frozenset({"progress"})

    def __init__(self) -> None:
        self.completed = 0
        self.cache_hits = 0
        self.executed = 0
        self.total = 0
        self._sweep_total: Optional[int] = None
        self._last_completed = 0
        self._banked_elapsed = 0.0
        self._current_elapsed = 0.0

    def record(self, event: TraceEvent) -> None:
        total = int(event.data["total"])
        completed = int(event.data["completed"])
        new_sweep = (
            self._sweep_total is None
            or total != self._sweep_total
            or completed <= self._last_completed
        )
        if new_sweep:
            self.total += total
            self._sweep_total = total
            self._banked_elapsed += self._current_elapsed
            self._current_elapsed = 0.0
        self._last_completed = completed
        self._current_elapsed = max(self._current_elapsed, float(event.data["elapsed"]))
        self.completed += 1
        if event.data["source"] == "cache":
            self.cache_hits += 1
        else:
            self.executed += 1

    @property
    def elapsed(self) -> float:
        """Wall-clock seconds across all observed sweeps."""

        return self._banked_elapsed + self._current_elapsed

    @property
    def remaining(self) -> int:
        return max(self.total - self.completed, 0)

    @property
    def throughput(self) -> float:
        """Completed units per second of sweep wall-clock (0 before any time passes)."""

        if self.elapsed <= 0.0:
            return 0.0
        return self.completed / self.elapsed

    @property
    def eta_seconds(self) -> Optional[float]:
        """Estimated seconds to finish the current totals, or ``None`` pre-throughput."""

        rate = self.throughput
        if rate <= 0.0:
            return None
        return self.remaining / rate

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of completed units served by the trial store."""

        if self.completed == 0:
            return 0.0
        return self.cache_hits / self.completed

    def status_line(self) -> str:
        """A compact human-readable one-liner of the current aggregates."""

        eta = self.eta_seconds
        eta_text = f"{eta:.0f}s" if eta is not None else "—"
        return (
            f"{self.completed}/{self.total} units  "
            f"{self.throughput:.1f}/s  eta {eta_text}  "
            f"cache {self.cache_hit_rate * 100.0:.0f}%"
        )


class CliProgressRenderer:
    """Throttled single-line CLI follower over a :class:`ProgressMonitor`.

    A sink like the monitor it wraps (open it with
    :func:`~repro.observability.trace.observe`); call :meth:`finish` when
    the followed task completes to seal the line with a newline.  Rendering
    goes to ``stream`` (stderr by default) so stdout and generated artefacts
    stay byte-identical whether or not a follower is attached.
    """

    enabled = True
    kinds = ProgressMonitor.kinds

    def __init__(
        self,
        label: str = "",
        stream: Optional[IO[str]] = None,
        min_interval: float = 0.2,
    ) -> None:
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.monitor = ProgressMonitor()
        self._last_render = 0.0
        self._rendered_any = False

    def record(self, event: TraceEvent) -> None:
        self.monitor.record(event)
        now = time.monotonic()
        if (
            event.data["completed"] == event.data["total"]
            or now - self._last_render >= self.min_interval
        ):
            self._last_render = now
            self._render()

    def _render(self, end: str = "\r") -> None:
        prefix = f"{self.label}: " if self.label else ""
        self.stream.write(f"\r{prefix}{self.monitor.status_line()}{end}")
        self.stream.flush()
        self._rendered_any = True

    def finish(self) -> None:
        """Seal the follower line (newline) after the followed task completes."""

        if self._rendered_any:
            self._render(end="\n")
