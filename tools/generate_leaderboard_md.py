#!/usr/bin/env python3
"""Regenerate LEADERBOARD.md: the adversary-protocol tournament rankings.

Usage::

    PYTHONPATH=src python tools/generate_leaderboard_md.py \
        [--n 96] [--trials 2] [--jobs 4] [--cache-dir .repro-cache] [--skip-search]

Runs the full round-robin tournament grid of ``repro.tournament`` — every
roster adversary × every compatible protocol variant × the sub-/near-/
super-threshold topology grid — at matched budget fractions, fits every
cell's resource-competitiveness exponent, and renders per-protocol rankings
plus the deterministic worst-case parameter search for the spatial family.

The document is **byte-identical across runs at fixed settings**: every
quantity in it derives from seeded trials and deterministic fits (no dates,
no wall-clock, no bootstrap RNG).  Timing and cache statistics go to stderr
only.  ``--jobs`` / ``--cache-dir`` (or ``REPRO_JOBS`` / ``REPRO_CACHE_DIR``)
parallelise and memoise the sweep without changing a byte of the output.
"""

from __future__ import annotations

import argparse
import sys
import time


from repro.experiments import ExperimentSettings
from repro.experiments.reporting import render_table
from repro.experiments.runner import track_stats
from repro.observability import CliProgressRenderer, observe
from repro.tournament import (
    SPEND_FRACTIONS,
    TournamentCell,
    optimise_cell,
    protocol_roster,
    run_tournament,
    topology_grid,
    tournament_cells,
)

SEARCH_CELLS = (
    TournamentCell("static_disk", "mh-sequential", "gilbert-near"),
    TournamentCell("mobile_disk", "mh-sequential", "gilbert-near"),
    TournamentCell("multi_disk", "mh-sequential", "gilbert-near"),
    TournamentCell("reactive_disk", "mh-sequential", "gilbert-near"),
    TournamentCell("bursty", "eps-broadcast", "single-hop"),
    TournamentCell("budget_blocker", "eps-broadcast", "single-hop"),
)
"""Cells the worst-case search runs on: the E12 spatial family on the
sequential multi-hop schedule (their hand-picked experiment regime, where
the budget binds) plus two channel attackers on the paper's protocol."""

PREAMBLE = """\
# LEADERBOARD — adversary-protocol tournament

Regenerate with `PYTHONPATH=src python tools/generate_leaderboard_md.py`
(output is byte-identical across runs at fixed settings; `--jobs`/`--cache-dir`
only change how fast it happens).

Every cell of the round-robin grid — adversary × protocol variant ×
topology — runs a sweep of Carol's self-imposed spend cap at matched
fractions of her aggregate budget, then fits `max node cost ≈ c·T^ρ` in
log-log space.  The fitted exponent ρ is the cell's empirical
resource-competitiveness: Theorem 1 bounds ρ by `1/(k+1) = 1/3` (up to
polylog factors) for ε-Broadcast on the shared channel, while a naive
protocol pays ρ ≈ 1.  Ranking adversaries by ρ per protocol answers *which
attack shape drives each protocol's cost growth hardest* — not just which
spends the most.

Degenerate cells carry a flagged sentinel instead of a spurious slope:
`flat-cost` (the protocol's cost demonstrably does not scale with Carol's
spend, reported as ρ = 0), `degenerate-spend-range` (Carol could not realise
enough spend spread, e.g. the run ends before her cap binds),
`insufficient-points` / `zero-cost` (not enough usable sweep points).
Confidence intervals are large-sample 95% bands from the log-log slope's
standard error — deterministic by construction.
"""


def _fmt(value: float, digits: int = 3) -> str:
    return f"{value:.{digits}f}"


def _cell_row(rank: int, result) -> dict:
    fit = result.node_fit
    return {
        "rank": rank,
        "adversary": result.cell.adversary,
        "topology": result.cell.topology,
        "rho (node)": _fmt(fit.exponent) if fit.ok or fit.reason == "flat-cost" else "—",
        "95% CI": f"[{_fmt(fit.ci_low, 2)}, {_fmt(fit.ci_high, 2)}]" if fit.ok else "—",
        "R^2": _fmt(fit.r_squared, 2) if fit.ok else "—",
        "flag": "ok" if fit.ok else fit.reason,
        "max node cost": _fmt(max(result.node_max_costs), 1),
        "delivery min": _fmt(result.delivery_min, 2),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=96)
    parser.add_argument("--trials", type=int, default=2)
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--output", default="LEADERBOARD.md")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the sweep (default: REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed trial store to reuse (default: REPRO_CACHE_DIR or off)",
    )
    parser.add_argument(
        "--skip-search",
        action="store_true",
        help="omit the worst-case parameter search section (faster)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="render a live progress line on stderr (off by default; the "
        "generated document is byte-identical either way)",
    )
    args = parser.parse_args()

    settings = ExperimentSettings(
        n=args.n,
        trials=args.trials,
        seed=args.seed,
        quick=True,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
    )

    renderer = CliProgressRenderer(label="tournament") if args.progress else None
    start = time.perf_counter()
    try:
        with observe(renderer), track_stats() as stats:
            tournament = run_tournament(settings, cells=tournament_cells())
    except KeyboardInterrupt:
        # run_sweep has already shut its pool down and printed the trial-level
        # partial-progress line; add the stage context and exit 130.
        print(
            "leaderboard generation interrupted during the tournament grid; "
            "finished trials are in the trial cache — rerun to resume warm",
            file=sys.stderr,
        )
        sys.exit(130)
    if renderer is not None:
        renderer.finish()
    print(
        f"tournament: {len(tournament.cells)} cells in {time.perf_counter() - start:.1f}s "
        f"({stats.executed} trials executed, {stats.cache_hits} cache hits)",
        file=sys.stderr,
    )

    lines = [PREAMBLE]
    lines.append(
        f"Profile: n = {settings.n}, trials = {settings.trials}, seed = {settings.seed}, "
        f"k = 2, spend fractions = {', '.join(f'{f:g}' for f in SPEND_FRACTIONS)} "
        f"of Carol's aggregate budget; {len(tournament.cells)} cells.\n"
    )

    protocols = protocol_roster()
    grouped = tournament.by_protocol()
    lines.append("## Rankings per protocol\n")
    lines.append(
        "Worst adversary first (descending fitted ρ; flagged cells sink to the "
        "bottom, tie-broken by observed damage).\n"
    )
    for name in sorted(grouped):
        entry = protocols[name]
        lines.append(f"### {name} — {entry.description}\n")
        rows = [_cell_row(rank, result) for rank, result in enumerate(grouped[name], start=1)]
        lines.append("```text")
        lines.append(
            render_table(
                [
                    "rank",
                    "adversary",
                    "topology",
                    "rho (node)",
                    "95% CI",
                    "R^2",
                    "flag",
                    "max node cost",
                    "delivery min",
                ],
                rows,
            )
        )
        lines.append("```\n")

    lines.append("## Worst observed adversary per protocol\n")
    worst_rows = []
    for name in sorted(grouped):
        worst = grouped[name][0]
        fit = worst.node_fit
        worst_rows.append(
            {
                "protocol": name,
                "worst adversary": worst.cell.adversary,
                "topology": worst.cell.topology,
                "rho (node)": _fmt(fit.exponent) if fit.ok else f"— ({fit.reason})",
                "max node cost": _fmt(max(worst.node_max_costs), 1),
                "delivery min": _fmt(worst.delivery_min, 2),
            }
        )
    lines.append("```text")
    lines.append(
        render_table(
            ["protocol", "worst adversary", "topology", "rho (node)", "max node cost", "delivery min"],
            worst_rows,
        )
    )
    lines.append("```\n")

    if not args.skip_search:
        renderer = CliProgressRenderer(label="search") if args.progress else None
        start = time.perf_counter()
        try:
            with observe(renderer), track_stats() as stats:
                searches = [optimise_cell(cell, settings) for cell in SEARCH_CELLS]
        except KeyboardInterrupt:
            print(
                "leaderboard generation interrupted during the worst-case search "
                "(the tournament grid had completed); finished trials are in the "
                "trial cache — rerun to resume warm",
                file=sys.stderr,
            )
            sys.exit(130)
        if renderer is not None:
            renderer.finish()
        print(
            f"search: {len(searches)} cells in {time.perf_counter() - start:.1f}s "
            f"({stats.executed} trials executed, {stats.cache_hits} cache hits)",
            file=sys.stderr,
        )
        lines.append("## Worst-case parameter search\n")
        lines.append(
            "Deterministic coordinate grid refinement over each adversary's declared "
            "parameter bounds, seeded by (and therefore never worse than) the "
            "hand-picked E-numbered configuration; scores are mean per-node cost at a "
            f"matched {searches[0].spend_fraction:g}-fraction budget.  A ratio of 1.00 "
            "means the hand-picked settings already sit at the searched optimum.\n"
        )
        search_rows = []
        for result in searches:
            moved = [
                f"{name}={value:g}"
                for (name, value), (_, default) in zip(result.best_params, result.baseline_params)
                if value != default
            ]
            search_rows.append(
                {
                    "cell": result.cell.key,
                    "hand-picked": _fmt(result.baseline_score, 1),
                    "optimised": _fmt(result.best_score, 1),
                    "ratio": _fmt(result.improvement, 2),
                    "evals": result.evaluations,
                    "moved parameters": "; ".join(moved) if moved else "(none)",
                }
            )
        lines.append("```text")
        lines.append(
            render_table(
                ["cell", "hand-picked", "optimised", "ratio", "evals", "moved parameters"],
                search_rows,
            )
        )
        lines.append("```\n")

    # Topology footnote keeps the grid's regime choices explicit.
    grid = topology_grid()
    lines.append("## Topology grid\n")
    lines.append("```text")
    lines.append(
        render_table(
            ["topology", "kind", "radius multiplier", "description"],
            [
                {
                    "topology": entry.name,
                    "kind": entry.kind,
                    "radius multiplier": (
                        f"{entry.radius_multiplier:g} x r_c"
                        if entry.radius_multiplier is not None
                        else "—"
                    ),
                    "description": entry.description,
                }
                for entry in (grid[name] for name in sorted(grid))
            ],
        )
    )
    lines.append("```\n")

    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))
    print(f"wrote {args.output}", file=sys.stderr)


if __name__ == "__main__":
    main()
