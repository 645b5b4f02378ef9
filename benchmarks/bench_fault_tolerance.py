#!/usr/bin/env python3
"""Benchmark — chaos-injected sweep execution recovering bit-identically.

Where ``bench_parallel_harness.py`` proves the runner's *happy* path (parallel
≡ serial, warm cache executes zero trials), this benchmark proves the fault
path: a sweep under deterministic chaos — worker crashes, a hung chunk, torn
cache entries — must **complete** and reproduce the fault-free serial tables
byte for byte.

The chaos mix, injected by a seeded
:class:`repro.experiments.faults.FaultInjector` at fixed (labels, trial)
coordinates:

* **two worker crashes** (``os._exit`` mid-chunk → ``BrokenProcessPool`` →
  pool respawn): one in E1's sweep, one in E3's — separate sweeps, so each
  crash deterministically fires on its unit's first dispatch;
* **one hung chunk** (a worker sleeping far past ``FaultPolicy.timeout_s``)
  in E2's sweep → watchdog kill + re-dispatch;
* **two torn cache entries** (E2's split scenarios, truncated after the
  parent's write) → the warm re-run must degrade them to misses and recompute
  exactly those trials.

Acceptance (the script exits non-zero on any failure):

1. every chaos-run experiment renders byte-identical to the fault-free
   ``jobs=1`` reference;
2. the runner's counters confirm the faults actually happened and were
   absorbed: ``worker_deaths ≥ 2``, ``timeouts ≥ 1``, ``quarantined == 0``;
3. a warm re-run against the chaos run's cache recomputes exactly the
   corrupted entries (and nothing else) and stays byte-identical.

Usage::

    PYTHONPATH=src python benchmarks/bench_fault_tolerance.py           # full (n = 256)
    PYTHONPATH=src python benchmarks/bench_fault_tolerance.py --smoke   # CI-sized (n = 64)
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time

from repro.experiments import ExperimentSettings, FaultInjector, FaultPolicy, render_result
from repro.experiments.registry import run_experiment
from repro.experiments.runner import track_stats
from repro.observability import TraceCollector, observe

EXPERIMENTS = ("E1", "E2", "E3")

# (labels, trial) coordinates; labels may be a prefix of a spec's label tuple.
# E1 and E3 each carry exactly one crash: a crash's pool breakage bumps the
# attempt counter of every in-flight unit, so two crash coordinates sharing
# one sweep could shadow each other — one per sweep keeps both deterministic.
CRASHES = ((("E1",), 0), (("E3", 128), 0))
HANGS = ((("E2", "no attack"), 0),)
CORRUPTIONS = ((("E2", "split 2% of n"), 0), (("E2", "split 10% of n"), 0))


def run_experiments(settings: ExperimentSettings) -> dict:
    return {eid: run_experiment(eid, settings) for eid in EXPERIMENTS}


def compare(label: str, reference: dict, candidate: dict) -> int:
    """Byte-identity over the rendered tables; returns diverging experiments."""

    failures = 0
    for eid in EXPERIMENTS:
        if render_result(candidate[eid]) != render_result(reference[eid]):
            print(f"FAIL {label}: {eid} diverges from the fault-free serial reference")
            failures += 1
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--n", type=int, default=None, help="network size per experiment")
    parser.add_argument("--trials", type=int, default=None, help="trials per sweep point")
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="chunk watchdog budget in seconds (default: 30, or 8 with --smoke)",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run: n = 64, 1 trial"
    )
    args = parser.parse_args()

    n = args.n if args.n is not None else (64 if args.smoke else 256)
    trials = args.trials if args.trials is not None else (1 if args.smoke else 2)
    timeout_s = args.timeout if args.timeout is not None else (8.0 if args.smoke else 30.0)
    base = dict(n=n, trials=trials, quick=True, seed=2012)
    failures = 0

    print(f"== fault-free serial reference (n = {n}, trials = {trials}) ==")
    start = time.perf_counter()
    reference = run_experiments(ExperimentSettings(**base, jobs=1, cache_dir=""))
    print(f"reference: {time.perf_counter() - start:6.2f}s")

    injector = FaultInjector(
        seed=7,
        crashes=CRASHES,
        hangs=HANGS,
        corruptions=CORRUPTIONS,
        hang_s=600.0,
    )
    policy = FaultPolicy(timeout_s=timeout_s, max_retries=3, backoff_base_s=0.01)

    print(
        f"== chaos run: jobs = 2, {len(CRASHES)} crashes, {len(HANGS)} hang "
        f"(timeout_s = {timeout_s:g}), {len(CORRUPTIONS)} torn cache entries =="
    )
    cache_dir = tempfile.mkdtemp(prefix="repro-fault-cache-")
    try:
        chaos_settings = ExperimentSettings(
            **base,
            jobs=2,
            cache_dir=cache_dir,
            fault_policy=policy,
            fault_injector=injector,
        )
        start = time.perf_counter()
        trace = TraceCollector()
        with track_stats() as stats, observe(trace):
            chaos = run_experiments(chaos_settings)
        elapsed = time.perf_counter() - start
        kinds = sorted({str(event.data["fault"]) for event in trace.of_kind("fault")})
        print(
            f"chaos: {elapsed:6.2f}s   worker_deaths={stats.worker_deaths} "
            f"timeouts={stats.timeouts} retries={stats.retries} "
            f"quarantined={stats.quarantined}   events: {', '.join(kinds)}"
        )

        failures += compare("chaos", reference, chaos)
        if stats.worker_deaths < 2:
            print(f"FAIL chaos: worker_deaths={stats.worker_deaths} (expected >= 2)")
            failures += 1
        if stats.timeouts < 1:
            print(f"FAIL chaos: timeouts={stats.timeouts} (expected >= 1)")
            failures += 1
        if stats.quarantined != 0:
            print(f"FAIL chaos: quarantined={stats.quarantined} (expected 0)")
            failures += 1

        # -- warm re-run: only the torn entries may recompute ----------------
        print("== warm re-run against the chaos run's (partly torn) cache ==")
        warm_settings = ExperimentSettings(**base, jobs=2, cache_dir=cache_dir)
        start = time.perf_counter()
        with track_stats() as warm_stats:
            warm = run_experiments(warm_settings)
        print(
            f"warm: {time.perf_counter() - start:6.2f}s   "
            f"executed={warm_stats.executed} hits={warm_stats.cache_hits}"
        )
        failures += compare("warm", reference, warm)
        if warm_stats.executed != len(CORRUPTIONS):
            print(
                f"FAIL warm: executed {warm_stats.executed} trials "
                f"(expected exactly the {len(CORRUPTIONS)} torn entries)"
            )
            failures += 1
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    if failures:
        print(f"{failures} acceptance check(s) FAILED")
        return 1
    print("fault-tolerance benchmark: all acceptance checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
