"""Plain-text rendering of experiment results.

The paper has no numeric tables of its own (it is a theory paper), so the
experiment harness prints its regenerated claims in a consistent tabular format
that EXPERIMENTS.md mirrors: one table per experiment id, a "claim" line
quoting what the paper predicts, and notes interpreting the measured shape.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from .harness import ExperimentResult

__all__ = ["format_value", "render_table", "render_result", "render_results"]


def format_value(value: object) -> str:
    """Format one table cell compactly but readably."""

    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.01:
            return f"{value:.3g}"
        if magnitude >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def render_table(columns: Sequence[str], rows: Iterable[dict]) -> str:
    """Render rows as a fixed-width text table with the given column order."""

    rows = list(rows)
    rendered: List[List[str]] = [[format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), *(len(cells[idx]) for cells in rendered)) if rendered else len(str(col))
        for idx, col in enumerate(columns)
    ]
    header = "  ".join(str(col).ljust(widths[idx]) for idx, col in enumerate(columns))
    separator = "  ".join("-" * widths[idx] for idx in range(len(columns)))
    body = [
        "  ".join(cells[idx].ljust(widths[idx]) for idx in range(len(columns)))
        for cells in rendered
    ]
    return "\n".join([header, separator, *body])


def render_result(result: ExperimentResult) -> str:
    """Render one experiment result in the EXPERIMENTS.md style."""

    lines = [
        f"=== {result.experiment_id}: {result.title} ===",
        f"paper claim: {result.claim}",
        "",
        render_table(result.columns, result.rows),
    ]
    if result.summaries:
        lines.append("")
        lines.append("summary: " + ", ".join(f"{key}={format_value(value)}" for key, value in sorted(result.summaries.items())))
    if result.notes:
        lines.append("")
        lines.extend(f"note: {note}" for note in result.notes)
    return "\n".join(lines)


def render_results(results: Iterable[ExperimentResult]) -> str:
    """Render several experiment results separated by blank lines."""

    return "\n\n".join(render_result(result) for result in results)
