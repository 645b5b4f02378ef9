"""Trace analysis: summarise one run trace or diff two.

Works on the :class:`~repro.observability.trace.TraceEvent` streams produced
by the orchestrators (``kind="phase"`` / ``"quiet-expire"`` / ``"truncate"``
…; a run's ``outcome.events`` are its ``"phase"`` events), on runner-stage
``"span"`` events, and on the trial runner's ``"fault"`` events (retries, timeouts, worker deaths,
quarantines), whether collected in memory
(:class:`~repro.observability.trace.TraceCollector`) or loaded from JSONL.
``tools/trace_report.py`` is the CLI wrapper.

The diff is sequence-positional: two runs of the same configuration execute
the same schedule until something diverges, so phase events are aligned by
execution order and compared field by field — which is exactly how you show
*where* ``pipeline=True`` starts scheduling different phases than
``pipeline=False``, or which request phase a different quiet rule first
retires nodes in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .trace import TraceEvent

__all__ = [
    "phase_rows",
    "round_rows",
    "runner_spans",
    "fault_rows",
    "summarise_trace",
    "PhaseDivergence",
    "diff_phase_events",
    "diff_traces",
]

#: Phase-event payload fields compared by the diff, in report order.
DEFAULT_DIFF_FIELDS: Tuple[str, ...] = (
    "num_slots",
    "newly_informed",
    "informed_total",
    "active_uninformed",
    "frontier",
    "jammed_slots",
    "delivery_slots",
    "adversary_spend",
    "alice_cost",
    "nodes_cost",
)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _table(columns: Sequence[str], rows: Iterable[Dict[str, object]]) -> str:
    rows = list(rows)
    cells = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
        for i, col in enumerate(columns)
    ]
    lines = [
        "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns)),
        "  ".join("-" * widths[i] for i in range(len(columns))),
    ]
    lines += ["  ".join(r[i].ljust(widths[i]) for i in range(len(columns))) for r in cells]
    return "\n".join(lines)


def phase_rows(events: Sequence[TraceEvent]) -> List[TraceEvent]:
    """The ``"phase"`` events of a trace, in execution order."""

    return [event for event in events if event.kind == "phase"]


def round_rows(events: Sequence[TraceEvent]) -> List[Dict[str, object]]:
    """Aggregate a trace into one row per protocol round.

    Sums the per-phase tallies (slots, deliveries, jamming, energy deltas)
    and keeps the end-of-round population counts from the round's last phase,
    plus the round's quiet-rule expiries and truncation give-ups.
    """

    rows: Dict[int, Dict[str, object]] = {}
    order: List[int] = []
    for event in events:
        if event.kind not in ("phase", "quiet-expire", "truncate"):
            continue
        row = rows.get(event.round_index)
        if row is None:
            row = rows[event.round_index] = {
                "round": event.round_index,
                "phases": 0,
                "slots": 0,
                "newly_informed": 0,
                "jammed_slots": 0,
                "delivery_slots": 0,
                "adversary_spend": 0.0,
                "alice_cost": 0.0,
                "nodes_cost": 0.0,
                "quiet_expired": 0,
                "truncated": 0,
                "frontier_end": 0,
                "uninformed_end": 0,
            }
            order.append(event.round_index)
        if event.kind == "quiet-expire":
            row["quiet_expired"] += int(event.data.get("count", 0))
            continue
        if event.kind == "truncate":
            row["truncated"] += int(event.data.get("count", 0))
            continue
        data = event.data
        row["phases"] += 1
        row["slots"] += int(data.get("num_slots", 0))
        row["newly_informed"] += int(data.get("newly_informed", 0))
        row["jammed_slots"] += int(data.get("jammed_slots", 0))
        row["delivery_slots"] += int(data.get("delivery_slots", 0))
        row["adversary_spend"] += float(data.get("adversary_spend", 0.0))
        row["alice_cost"] += float(data.get("alice_cost", 0.0))
        row["nodes_cost"] += float(data.get("nodes_cost", 0.0))
        row["frontier_end"] = int(data.get("frontier", 0))
        row["uninformed_end"] = int(data.get("active_uninformed", 0))
    return [rows[r] for r in order]


def runner_spans(events: Sequence[TraceEvent]) -> List[Dict[str, object]]:
    """The ``"span"`` events as ``{"stage", "seconds"}`` rows, in order."""

    return [
        {"stage": event.phase, "seconds": float(event.data.get("seconds", 0.0))}
        for event in events
        if event.kind == "span"
    ]


def fault_rows(events: Sequence[TraceEvent]) -> List[Dict[str, object]]:
    """The ``"fault"`` events (runner fault handling) as table rows, in order.

    One row per fault-handling decision the trial runner recorded: retries,
    pool-level timeout / worker-death incidents,
    quarantines, cache-disable and pool-degradation notices.
    """

    return [
        {
            "fault": event.data.get("fault", ""),
            "labels": event.data.get("labels", ""),
            "trial": event.data.get("trial_index", ""),
            "attempt": event.data.get("attempt", ""),
            "detail": event.data.get("detail", ""),
        }
        for event in events
        if event.kind == "fault"
    ]


def summarise_trace(events: Sequence[TraceEvent]) -> str:
    """Human-readable summary of one trace: run header, per-round table, totals."""

    lines: List[str] = []
    for event in events:
        if event.kind == "run-start":
            meta = "  ".join(f"{key}={_fmt(val)}" for key, val in sorted(event.data.items()))
            lines.append(f"run-start: {meta}")
    rounds = round_rows(events)
    if rounds:
        lines.append("")
        lines.append(
            _table(
                [
                    "round",
                    "phases",
                    "slots",
                    "newly_informed",
                    "jammed_slots",
                    "adversary_spend",
                    "alice_cost",
                    "nodes_cost",
                    "quiet_expired",
                    "truncated",
                    "frontier_end",
                    "uninformed_end",
                ],
                rounds,
            )
        )
        lines.append("")
        lines.append(
            "totals: "
            + ", ".join(
                f"{key}={_fmt(sum(row[key] for row in rounds))}"
                for key in (
                    "phases",
                    "slots",
                    "newly_informed",
                    "jammed_slots",
                    "adversary_spend",
                    "quiet_expired",
                    "truncated",
                )
            )
        )
    for event in events:
        if event.kind == "cap":
            lines.append(f"terminated at the round cap (round {event.round_index})")
        if event.kind == "run-end":
            meta = "  ".join(f"{key}={_fmt(val)}" for key, val in sorted(event.data.items()))
            lines.append(f"run-end: {meta}")
    spans = runner_spans(events)
    if spans:
        lines.append("")
        lines.append("runner stages:")
        lines.append(_table(["stage", "seconds"], spans))
    faults = fault_rows(events)
    if faults:
        lines.append("")
        lines.append("runner faults:")
        lines.append(
            _table(["fault", "labels", "trial", "attempt", "detail"], faults)
        )
        counts: Dict[str, int] = {}
        for row in faults:
            counts[str(row["fault"])] = counts.get(str(row["fault"]), 0) + 1
        lines.append(
            "fault totals: "
            + ", ".join(f"{kind}={count}" for kind, count in sorted(counts.items()))
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class PhaseDivergence:
    """One position at which two traces' phase streams disagree.

    ``field`` is ``"<schedule>"`` when the phases themselves differ (different
    round/phase name at this position, or one trace ran out of phases) and a
    payload field name otherwise.
    """

    index: int
    round_index: int
    phase: str
    field: str
    left: object
    right: object


def diff_phase_events(
    left: Sequence[TraceEvent],
    right: Sequence[TraceEvent],
    fields: Optional[Sequence[str]] = None,
) -> List[PhaseDivergence]:
    """Positionally compare two traces' ``"phase"`` events.

    Returns every divergence, in execution order: schedule divergences (the
    two runs executed different phases at the same position) and payload
    divergences (same phase, different measured values for a compared field).
    """

    fields = tuple(fields) if fields is not None else DEFAULT_DIFF_FIELDS
    a, b = phase_rows(left), phase_rows(right)
    out: List[PhaseDivergence] = []
    for index in range(max(len(a), len(b))):
        if index >= len(a) or index >= len(b):
            present = a[index] if index < len(a) else b[index]
            out.append(
                PhaseDivergence(
                    index=index,
                    round_index=present.round_index,
                    phase=present.phase,
                    field="<schedule>",
                    left=f"{a[index].round_index}/{a[index].phase}" if index < len(a) else "<absent>",
                    right=f"{b[index].round_index}/{b[index].phase}" if index < len(b) else "<absent>",
                )
            )
            continue
        ea, eb = a[index], b[index]
        if (ea.round_index, ea.phase) != (eb.round_index, eb.phase):
            out.append(
                PhaseDivergence(
                    index=index,
                    round_index=ea.round_index,
                    phase=ea.phase,
                    field="<schedule>",
                    left=f"{ea.round_index}/{ea.phase}",
                    right=f"{eb.round_index}/{eb.phase}",
                )
            )
            continue
        for field in fields:
            va, vb = ea.data.get(field), eb.data.get(field)
            if va != vb:
                out.append(
                    PhaseDivergence(
                        index=index,
                        round_index=ea.round_index,
                        phase=ea.phase,
                        field=field,
                        left=va,
                        right=vb,
                    )
                )
    return out


def diff_traces(
    left: Sequence[TraceEvent],
    right: Sequence[TraceEvent],
    fields: Optional[Sequence[str]] = None,
    max_rows: int = 40,
) -> str:
    """Render a positional diff of two traces as text.

    Shows the first divergence prominently (the round/phase where the two
    runs stop agreeing), then up to ``max_rows`` divergence rows, then a
    per-trace totals line so gross differences (slots executed, rounds run)
    are visible even when the row list is truncated.
    """

    divergences = diff_phase_events(left, right, fields=fields)
    a, b = phase_rows(left), phase_rows(right)
    lines = [f"phases: left={len(a)} right={len(b)}"]
    if not divergences:
        lines.append("traces agree on every compared phase field")
        return "\n".join(lines)
    first = divergences[0]
    lines.append(
        f"first divergence: phase #{first.index} (round {first.round_index}, "
        f"{first.phase or '<schedule>'}) field {first.field}: "
        f"{_fmt(first.left)} vs {_fmt(first.right)}"
    )
    lines.append("")
    shown = divergences[:max_rows]
    lines.append(
        _table(
            ["index", "round", "phase", "field", "left", "right"],
            [
                {
                    "index": d.index,
                    "round": d.round_index,
                    "phase": d.phase,
                    "field": d.field,
                    "left": d.left,
                    "right": d.right,
                }
                for d in shown
            ],
        )
    )
    if len(divergences) > len(shown):
        lines.append(f"... {len(divergences) - len(shown)} further divergences")
    for name, events in (("left", left), ("right", right)):
        rounds = round_rows(events)
        total_slots = sum(int(row["slots"]) for row in rounds)
        lines.append(
            f"{name} totals: rounds={len(rounds)} slots={total_slots} "
            f"informed={sum(int(row['newly_informed']) for row in rounds)}"
        )
    return "\n".join(lines)
