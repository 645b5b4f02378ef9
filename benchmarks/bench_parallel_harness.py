#!/usr/bin/env python3
"""Benchmark — parallel, cache-aware experiment execution (the runner itself).

Where every other ``bench_*.py`` measures one experiment, this one measures
the machinery that runs them all: the process-pool trial fan-out and the
content-addressed trial store of :mod:`repro.experiments.runner` /
:mod:`repro.experiments.cache`.

Three measurements over the **full quick registry** (E1 … E12):

1. **Speedup vs jobs** — total registry wall-clock at each worker count,
   with the trial cache off.  The workload is embarrassingly parallel
   (sweep point × trial grids of independent seeds), so wall-clock should
   fall roughly linearly until the sweep widths run out.
2. **Bit-identity** — every jobs level must reproduce the serial rows,
   summaries, and notes field-for-field; the script exits non-zero on any
   divergence (this is the acceptance criterion that makes the parallel
   path trustworthy).
3. **Cold vs warm cache** — one registry run against an empty store, then
   the same run again: the warm pass must execute **zero** trials (checked
   via the runner's execution counters) and beat the cold pass by a wide
   margin (≥ 5× on the full profile, ≥ 2× in ``--smoke``, where fixed
   per-experiment overhead dominates the tiny trial grid).

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_harness.py            # full (n = 256)
    PYTHONPATH=src python benchmarks/bench_parallel_harness.py --smoke    # CI-sized (n = 64)
    PYTHONPATH=src python benchmarks/bench_parallel_harness.py --jobs 1,2,4,8
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time

from repro.experiments import ExperimentSettings
from repro.experiments.registry import experiment_ids, run_experiment
from repro.experiments.runner import track_stats
from repro.observability import CliProgressRenderer, observe


def run_registry(settings: ExperimentSettings) -> dict:
    """Run every registered experiment; results keyed by experiment id."""

    return {eid: run_experiment(eid, settings) for eid in experiment_ids()}


def compare_registries(label: str, reference: dict, candidate: dict) -> int:
    """Field-for-field comparison; returns the number of diverging experiments."""

    failures = 0
    for eid in experiment_ids():
        ref, cand = reference[eid], candidate[eid]
        if (
            cand.rows != ref.rows
            or cand.summaries != ref.summaries
            or cand.notes != ref.notes
        ):
            print(f"FAIL {label}: {eid} diverges from the serial reference")
            failures += 1
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--n", type=int, default=None, help="network size per experiment")
    parser.add_argument("--trials", type=int, default=None, help="trials per sweep point")
    parser.add_argument(
        "--jobs",
        default=None,
        help="comma-separated worker counts for the speedup sweep (default 1,2,4)",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run: n = 64, 1 trial, jobs 1,2"
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="render a live progress line on stderr per registry pass "
        "(off by default; measurements and acceptance output are unchanged)",
    )
    args = parser.parse_args()

    n = args.n if args.n is not None else (64 if args.smoke else 256)
    trials = args.trials if args.trials is not None else (1 if args.smoke else 2)
    if args.jobs is not None:
        jobs_sweep = [int(j) for j in str(args.jobs).split(",")]
    else:
        jobs_sweep = [1, 2] if args.smoke else [1, 2, 4]
    min_warm_speedup = 2.0 if args.smoke else 5.0

    base = dict(n=n, trials=trials, quick=True, seed=2012)
    failures = 0

    def registry_pass(label: str, settings: ExperimentSettings) -> dict:
        """One full-registry run, optionally followed by a live progress line."""

        renderer = CliProgressRenderer(label=label) if args.progress else None
        with observe(renderer):
            results = run_registry(settings)
        if renderer is not None:
            renderer.finish()
        return results

    # -- 1 & 2: speedup vs jobs, with bit-identity against the serial rows --
    print(f"== registry speedup vs jobs (n = {n}, trials = {trials}, cache off) ==")
    reference = None
    serial_seconds = None
    for jobs in jobs_sweep:
        settings = ExperimentSettings(**base, jobs=jobs, cache_dir="")
        start = time.perf_counter()
        results = registry_pass(f"jobs={jobs}", settings)
        elapsed = time.perf_counter() - start
        if reference is None:
            reference, serial_seconds = results, elapsed
            print(f"jobs={jobs}: {elapsed:6.2f}s (serial reference)")
        else:
            failures += compare_registries(f"jobs={jobs}", reference, results)
            print(f"jobs={jobs}: {elapsed:6.2f}s (speedup {serial_seconds / elapsed:.2f}x)")

    # -- 3: cold vs warm trial cache ----------------------------------------
    print("== content-addressed trial cache, cold vs warm ==")
    cache_dir = tempfile.mkdtemp(prefix="repro-trial-cache-")
    try:
        settings = ExperimentSettings(**base, jobs=jobs_sweep[-1], cache_dir=cache_dir)
        start = time.perf_counter()
        cold = registry_pass("cache-cold", settings)
        cold_seconds = time.perf_counter() - start

        start = time.perf_counter()
        with track_stats() as delta:
            warm = registry_pass("cache-warm", settings)
        warm_seconds = time.perf_counter() - start

        speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")
        print(
            f"cold: {cold_seconds:6.2f}s   warm: {warm_seconds:6.2f}s   "
            f"speedup {speedup:.1f}x   warm executed={delta.executed} "
            f"hits={delta.cache_hits}"
        )
        failures += compare_registries("cache-warm", cold, warm)
        if reference is not None:
            failures += compare_registries("cache-cold", reference, cold)
        if delta.executed != 0:
            print(f"FAIL cache-warm: re-run executed {delta.executed} trials (expected 0)")
            failures += 1
        if speedup < min_warm_speedup:
            print(
                f"FAIL cache-warm: speedup {speedup:.1f}x below the "
                f"{min_warm_speedup:.0f}x acceptance threshold"
            )
            failures += 1
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    if failures:
        print(f"{failures} acceptance check(s) FAILED")
        return 1
    print("parallel-harness benchmark: all acceptance checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
