#!/usr/bin/env python3
"""Benchmark — the adversary-protocol tournament (E14) with acceptance checks.

Measures the tournament harness end to end and gates the properties the
leaderboard depends on:

1. **E14 at the docs profile** — run the registered experiment at
   ``repro.experiments.DOCS_PROFILE`` (``REPRO_JOBS`` / ``REPRO_CACHE_DIR``
   resolved exactly as ``tools/assert_warm_cache.py`` will re-resolve them),
   printing the per-cell exponent table.
2. **Cell contract** — every cell carries a fitted exponent (finite, with a
   finite confidence interval) or one of the known flagged sentinels; an
   unknown flag or a NaN exponent on an unflagged cell fails the run.
3. **Parallel bit-identity** — a small tournament grid at ``jobs = J`` must
   equal the ``jobs = 1`` grid field-for-field (cache off), mirroring the
   registry-wide guarantee of ``bench_parallel_harness.py``.
4. **Worst-case search acceptance** — the deterministic parameter search,
   seeded by the hand-picked roster configuration, must report a
   configuration at least as costly for the protocol as that hand-picked
   cell, with every proposed parameter inside its declared bounds.

Usage::

    PYTHONPATH=src python benchmarks/bench_tournament.py
    PYTHONPATH=src python benchmarks/bench_tournament.py --smoke    # CI-sized checks 3 and 4
    PYTHONPATH=src python benchmarks/bench_tournament.py --smoke --jobs 2
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time

from repro.experiments import DOCS_PROFILE, ExperimentSettings, render_result
from repro.experiments.registry import run_experiment
from repro.experiments.runner import track_stats
from repro.observability import CliProgressRenderer, observe
from repro.tournament import (
    TournamentCell,
    adversary_roster,
    optimise_cell,
    run_tournament,
    tournament_cells,
)

KNOWN_FLAGS = {"ok", "flat-cost", "degenerate-spend-range", "insufficient-points", "zero-cost"}

SEARCH_CELL = TournamentCell("static_disk", "mh-sequential", "gilbert-near")
"""The acceptance cell: E12's hand-picked static disk on the sequential
multi-hop schedule, where the spend cap binds."""


def check_cell_contract(result) -> int:
    """Every E14 row: a usable exponent or a known sentinel.  Returns failures."""

    failures = 0
    for row in result.rows:
        flag = row["flag"]
        if flag not in KNOWN_FLAGS:
            print(f"FAIL cell contract: unknown flag {flag!r} in {row['adversary']}")
            failures += 1
        elif flag == "ok" and not (
            math.isfinite(row["node_exponent"])
            and math.isfinite(row["ci_low"])
            and math.isfinite(row["ci_high"])
        ):
            print(
                f"FAIL cell contract: unflagged cell without a finite fit: "
                f"{row['adversary']} x {row['protocol']} x {row['topology']}"
            )
            failures += 1
    return failures


def check_parallel_identity(n: int, trials: int, jobs: int) -> int:
    """Small-grid tournament: jobs = J must equal jobs = 1 bit-for-bit."""

    grid = tournament_cells(
        adversaries=["budget_blocker", "bursty", "reactive_disk"],
        protocols=["eps-broadcast", "mh-degree-aware"],
        topologies=["single-hop", "gilbert-near"],
    )
    base = dict(n=n, trials=trials, quick=True, seed=7, cache_dir="")
    serial = run_tournament(ExperimentSettings(**base, jobs=1), cells=grid)
    parallel = run_tournament(ExperimentSettings(**base, jobs=jobs), cells=grid)
    # repr round-trips floats exactly and renders NaN (flagged fits) as a
    # comparable token, unlike ==, where nan != nan would flag identical runs.
    if repr(serial) != repr(parallel):
        print(f"FAIL parallel identity: jobs={jobs} tournament diverges from jobs=1")
        return 1
    print(f"parallel identity: jobs={jobs} grid of {len(grid)} cells matches jobs=1")
    return 0


def check_search_acceptance(n: int, trials: int) -> int:
    """The optimiser must match/beat the hand-picked cell, inside bounds."""

    failures = 0
    settings = ExperimentSettings(n=n, trials=trials, quick=True, seed=2012, cache_dir="")
    result = optimise_cell(SEARCH_CELL, settings)
    print(
        f"search {result.cell.key}: hand-picked {result.baseline_score:.1f} -> "
        f"optimised {result.best_score:.1f} ({result.evaluations} evaluations, "
        f"ratio {result.improvement:.2f})"
    )
    if not result.beats_hand_picked():
        print("FAIL search acceptance: optimised configuration scores below hand-picked")
        failures += 1
    specs = adversary_roster()[SEARCH_CELL.adversary](None).tunable_parameters()
    for params, _score in result.history:
        for name, value in params:
            if not specs[name].contains(value):
                print(f"FAIL search acceptance: proposed {name}={value} outside bounds")
                failures += 1
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized acceptance run")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the E14 run and the identity check (default: REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="render a live progress line on stderr during the E14 grid "
        "(off by default; acceptance output is unchanged either way)",
    )
    args = parser.parse_args()

    failures = 0

    # -- 1: E14 at the docs profile (fills REPRO_CACHE_DIR when set) -------
    settings = DOCS_PROFILE
    if args.jobs is not None:
        settings = dataclasses.replace(settings, jobs=args.jobs)
    renderer = CliProgressRenderer(label="E14") if args.progress else None
    start = time.perf_counter()
    with observe(renderer), track_stats() as stats:
        result = run_experiment("E14", settings)
    if renderer is not None:
        renderer.finish()
    elapsed = time.perf_counter() - start
    print(render_result(result))
    print(
        f"E14 (n={settings.n}, trials={settings.trials}, jobs={settings.resolved_jobs}): "
        f"{elapsed:.2f}s, {stats.executed} trials executed, {stats.cache_hits} cache hits"
    )

    # -- 2: cell contract ----------------------------------------------------
    failures += check_cell_contract(result)

    # -- 3 & 4: identity + search at a fixed small profile -------------------
    ident_n, ident_trials = (64, 1) if args.smoke else (96, 2)
    failures += check_parallel_identity(ident_n, ident_trials, jobs=args.jobs or 2)
    failures += check_search_acceptance(ident_n, ident_trials)

    if failures:
        print(f"bench_tournament: {failures} acceptance check(s) FAILED")
        return 1
    print("bench_tournament: all acceptance checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
