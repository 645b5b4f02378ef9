"""Phase-level run tracing.

The paper analyses the protocol through per-phase quantities — how many slots
were noisy, how fast the informed set grows, what each side spent — but the
simulator's default outputs are end-of-run aggregates.  This module adds the
missing middle layer: a :class:`TraceRecorder` sink that the orchestrators'
shared phase driver feeds with structured :class:`TraceEvent` records while a
run unfolds.  The engines do not trace: each
:class:`~repro.simulation.phaseplan.PhaseResult` names the code path that
produced it, and the driver's ``"phase"`` event carries it.

The one hard rule of the recording layer: **observing a run must never change
it**.  Every producer only *reads* values the run has already computed (state
counts, ledger totals, sampled tallies) — no recorder call touches an RNG
stream, a schedule decision, or any mutable protocol state — so a traced run
is bit-identical to an untraced one.  ``tests/test_observability.py`` pins
that guarantee with exact golden equality on all three engine paths.

The default sink is :data:`NULL_RECORDER`, whose :attr:`~TraceRecorder.enabled`
flag is ``False``; producers check the flag before building an event, so an
untraced emit costs one attribute read.  The driver still builds each phase's
event when the outcome keeps it (``record_events``, on by default); with
``record_events=False`` and no recorder, a run builds no phase event at all.

The trial runner publishes its events — per-unit ``"progress"``, fault
handling ``"fault"``, stage ``"span"`` — to the sinks opened with
:func:`observe`.  A sink may declare the kinds it wants in a ``kinds`` set
(absent or ``None`` means every kind); the runner asks :func:`observers`
once per sweep, so an unobserved sweep builds no event and reads no clock.

Events serialise to JSONL (one event per line) via :func:`write_jsonl` /
:func:`read_jsonl`; ``tools/trace_report.py`` summarises one trace or diffs
two.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Union,
    runtime_checkable,
)

__all__ = [
    "TraceEvent",
    "TraceRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "TraceCollector",
    "observe",
    "observers",
    "write_jsonl",
    "read_jsonl",
]

Scalar = Union[str, int, float, bool]


@dataclass(frozen=True)
class TraceEvent:
    """One structured telemetry record emitted during a run.

    Attributes
    ----------
    kind:
        Event type.  The producers in this repository emit:

        * ``"run-start"`` / ``"run-end"`` — orchestrator run boundaries;
        * ``"phase"`` — one executed phase, post-state-transition: the run's
          only per-phase record (the per-round trace the report tooling
          aggregates, and the outcome's ``events``).  ``data["path"]`` names
          the engine code path (``"single-hop"``, ``"multihop-sparse"``,
          ``"slot"``, or ``"empty"`` for a phase with no slots);
        * ``"quiet-expire"`` — a request-phase quiet-rule budget expiry
          cohort (multi-hop only);
        * ``"truncate"`` — a cap-aware truncation decision (multi-hop only);
        * ``"cap"`` — the safety-cap finalisation of a run that never
          terminated on its own;
        * ``"progress"`` — one completed work unit of a trial-runner sweep
          (see ``repro.experiments.runner.run_sweep``);
        * ``"span"`` — a named wall-clock span (runner-stage profiling);
        * ``"fault"`` — one fault-handling decision by the trial runner
          (retry / timeout / worker-death / quarantine / cache-disabled /
          pool-degraded; see ``repro.experiments.faults.fault_event``).
    round_index:
        Protocol round the event belongs to; ``-1`` for run-level events.
    phase:
        Phase name (``"inform"``, ``"propagation:1"``, ``"request"`` …) for
        phase-scoped events, ``""`` otherwise.
    data:
        Flat scalar payload.  Keys are stable per kind; values are JSON
        scalars (non-finite floats survive the JSONL round trip).
    """

    kind: str
    round_index: int = -1
    phase: str = ""
    data: Dict[str, Scalar] = field(default_factory=dict)


@runtime_checkable
class TraceRecorder(Protocol):
    """Structural interface of a trace sink.

    ``enabled`` is the producers' fast-path guard: when ``False`` they skip
    event construction entirely, so a disabled recorder costs one attribute
    read per phase.  Implementations must treat :meth:`record` as read-only
    with respect to the run — a recorder that mutated protocol state or drew
    randomness would void the traced-equals-untraced guarantee.
    """

    enabled: bool

    def record(self, event: TraceEvent) -> None:
        """Receive one event."""


_SINKS: List[TraceRecorder] = []


@contextmanager
def observe(sink: Optional[TraceRecorder]) -> Iterator[Optional[TraceRecorder]]:
    """Open ``sink`` to the trial runner's events while the scope is open.

    ::

        with observe(TraceCollector()) as trace:
            run_experiment("E11", settings)
        faults = trace.of_kind("fault")

    A sink that declares ``kinds`` receives only events of those kinds.
    Scopes nest — every open sink receives every event it wants.
    ``observe(None)`` opens nothing, so optional sinks need no branch.
    """

    if sink is None:
        yield None
        return
    _SINKS.append(sink)
    try:
        yield sink
    finally:
        _SINKS.remove(sink)


def observers(kind: str) -> List[TraceRecorder]:
    """The open, enabled sinks that want events of ``kind``."""

    wanted: List[TraceRecorder] = []
    for sink in _SINKS:
        kinds = getattr(sink, "kinds", None)
        if sink.enabled and (kinds is None or kind in kinds):
            wanted.append(sink)
    return wanted


class NullRecorder:
    """The default sink: discards everything, advertises ``enabled = False``."""

    enabled = False

    def record(self, event: TraceEvent) -> None:  # pragma: no cover - guarded out
        pass


NULL_RECORDER = NullRecorder()
"""Shared default instance; producers fall back to it when no recorder is given."""


class TraceCollector:
    """In-memory recorder: appends every event to :attr:`events`.

    The reference implementation for tests, notebooks, and the report
    tooling; export with :func:`write_jsonl`.
    """

    enabled = True

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def record(self, event: TraceEvent) -> None:
        self.events.append(event)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """Convenience filter: all recorded events of one kind, in order."""

        return [event for event in self.events if event.kind == kind]

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceCollector(events={len(self.events)})"


# --------------------------------------------------------------------------- #
# JSONL export / import                                                       #
# --------------------------------------------------------------------------- #


def _encode_scalar(value: Scalar) -> Scalar:
    """Make one payload value JSON-safe (JSON has no inf/nan literals)."""

    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
    return value


_NON_FINITE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def _decode_scalar(value: Scalar) -> Scalar:
    if isinstance(value, str) and value in _NON_FINITE:
        return _NON_FINITE[value]
    return value


def write_jsonl(events: Iterable[TraceEvent], path: "str | os.PathLike") -> int:
    """Write events to ``path``, one JSON object per line; returns the count."""

    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            payload = {
                "kind": event.kind,
                "round": event.round_index,
                "phase": event.phase,
                "data": {key: _encode_scalar(val) for key, val in event.data.items()},
            }
            handle.write(json.dumps(payload, sort_keys=True) + "\n")
            count += 1
    return count


def read_jsonl(path: "str | os.PathLike") -> List[TraceEvent]:
    """Load a trace written by :func:`write_jsonl` (blank lines are skipped)."""

    events: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_number}: not valid JSON: {exc}") from None
            if not isinstance(payload, dict) or "kind" not in payload:
                raise ValueError(f"{path}:{line_number}: not a trace event object")
            events.append(
                TraceEvent(
                    kind=str(payload["kind"]),
                    round_index=int(payload.get("round", -1)),
                    phase=str(payload.get("phase", "")),
                    data={
                        str(key): _decode_scalar(val)
                        for key, val in dict(payload.get("data", {})).items()
                    },
                )
            )
    return events
