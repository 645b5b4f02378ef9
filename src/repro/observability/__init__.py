"""Run-trace telemetry and live sweep progress.

Three coordinated layers:

* :mod:`repro.observability.trace` — phase-level run tracing: the
  :class:`TraceRecorder` sink the orchestrators' phase driver feeds,
  with the hard guarantee that recording never perturbs a run (traced runs
  are bit-identical to untraced ones), plus JSONL export/import.  Its
  :func:`observe` scope is where the trial runner publishes its
  ``"progress"``, ``"fault"`` and ``"span"`` events.
* :mod:`repro.observability.progress` — sinks that fold the runner's
  per-work-unit ``"progress"`` events into throughput/ETA/cache-hit rates
  and render them as an opt-in CLI follower.
* :mod:`repro.observability.report` — summarise one trace or diff two
  (``tools/trace_report.py`` is the CLI).
"""

from .progress import CliProgressRenderer, ProgressMonitor
from .report import diff_phase_events, diff_traces, round_rows, summarise_trace
from .trace import (
    NULL_RECORDER,
    NullRecorder,
    TraceCollector,
    TraceEvent,
    TraceRecorder,
    observe,
    read_jsonl,
    write_jsonl,
)

__all__ = [
    "CliProgressRenderer",
    "NULL_RECORDER",
    "NullRecorder",
    "ProgressMonitor",
    "TraceCollector",
    "TraceEvent",
    "TraceRecorder",
    "diff_phase_events",
    "diff_traces",
    "observe",
    "read_jsonl",
    "round_rows",
    "summarise_trace",
    "write_jsonl",
]
