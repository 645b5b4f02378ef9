#!/usr/bin/env python3
"""Benchmark — the cost of the run-trace telemetry layer, with acceptance gates.

The observability layer's contract is "near-zero when off, cheap when on":
every producer guards event construction behind one ``recorder.enabled``
attribute read, so an untraced run pays essentially nothing, and a traced run
pays only per-phase event construction (phases number in the tens to
hundreds, against millions of sampled slot outcomes).

This benchmark measures both claims on two representative workloads —
a single-hop run and a sparse multi-hop Gilbert run — and **fails** if either
is violated:

1. **Null-recorder overhead < 5%** — running with the default
   :data:`~repro.observability.trace.NULL_RECORDER` (or an explicitly passed
   :class:`~repro.observability.trace.NullRecorder`) must cost within 5% of
   the pre-telemetry baseline.  Baseline and null-recorder runs execute the
   *identical* code path, so this bound is a pure noise ceiling; variants are
   interleaved per repetition and compared on min-of-reps to keep scheduler
   jitter out of the ratio.
2. **Recording overhead bounded** — running with a live
   :class:`~repro.observability.trace.TraceCollector` must stay within 50% of
   baseline (in practice it is a few percent; the generous bound keeps the
   gate meaningful without flaking on loaded CI runners).

Usage::

    PYTHONPATH=src python benchmarks/bench_trace_overhead.py            # full
    PYTHONPATH=src python benchmarks/bench_trace_overhead.py --smoke    # CI-sized
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time

from repro.core.broadcast import EpsilonBroadcast, MultiHopBroadcast
from repro.observability import NullRecorder, TraceCollector
from repro.simulation.config import SimulationConfig
from repro.simulation.topology import TopologySpec

NULL_OVERHEAD_LIMIT = 0.05
RECORD_OVERHEAD_LIMIT = 0.50
MAX_ATTEMPTS = 3


def _workloads(smoke: bool):
    """(name, factory, batch) triples; each factory call builds one fresh run.

    ``batch`` runs are timed as one sample: single runs finish in a few
    milliseconds, far too short for a stable 5% gate, so each sample times a
    batch of seed-varied runs (construction excluded) to amortise timer and
    scheduler noise.
    """

    n_single = 1024 if smoke else 2048
    n_multi = 500 if smoke else 900
    batch_single = 8 if smoke else 12
    batch_multi = 3 if smoke else 5

    def single_hop(recorder, seed):
        kwargs = {"recorder": recorder} if recorder is not None else {}
        return EpsilonBroadcast(SimulationConfig(n=n_single, seed=seed), **kwargs)

    def multi_hop(recorder, seed):
        kwargs = {"recorder": recorder} if recorder is not None else {}
        spec = TopologySpec.gilbert(radius=0.12)
        return MultiHopBroadcast(
            SimulationConfig(n=n_multi, seed=seed, topology=spec), **kwargs
        )

    return [
        ("single-hop", single_hop, batch_single),
        ("multi-hop-sparse", multi_hop, batch_multi),
    ]


VARIANTS = (
    ("baseline", lambda: None),  # no recorder argument at all
    ("null-recorder", NullRecorder),  # explicitly passed no-op sink
    ("recording", TraceCollector),  # live in-memory collection
)


def measure(factory, batch: int, reps: int) -> dict:
    """Paired overhead ratios vs baseline, median across reps.

    Each rep times all three variants back to back on identical work, then
    compares *within the rep* — pairing cancels the slow drift (CPU scaling,
    noisy neighbours) that makes absolute min-of-reps timings unstable on
    shared runners.  GC is paused around each timed batch so collection of a
    previous variant's garbage is not billed to the next one.  Only ``run()``
    is timed — construction (topology sampling, budget tables) is identical
    across variants and would only dilute the measured ratio.
    """

    per_rep = []
    for _ in range(reps):
        rep = {}
        for name, make_recorder in VARIANTS:
            orchestrators = [
                factory(make_recorder(), seed=2012 + i) for i in range(batch)
            ]
            gc.collect()
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                start = time.perf_counter()
                for orchestrator in orchestrators:
                    orchestrator.run()
                rep[name] = time.perf_counter() - start
            finally:
                if gc_was_enabled:
                    gc.enable()
        per_rep.append(rep)
    return {
        "baseline": min(rep["baseline"] for rep in per_rep),
        "null-ratio": statistics.median(
            rep["null-recorder"] / rep["baseline"] - 1.0 for rep in per_rep
        ),
        "record-ratio": statistics.median(
            rep["recording"] / rep["baseline"] - 1.0 for rep in per_rep
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized acceptance run")
    parser.add_argument(
        "--reps",
        type=int,
        default=None,
        help="repetitions per (workload, variant); min is reported (default 7, 5 in --smoke)",
    )
    args = parser.parse_args()
    reps = args.reps if args.reps is not None else (5 if args.smoke else 7)

    failures = 0
    for name, factory, batch in _workloads(args.smoke):
        # Shared runners spike; a gate this tight gets up to three attempts
        # before a violation counts (a real regression fails all three).
        for attempt in range(1, MAX_ATTEMPTS + 1):
            timings = measure(factory, batch, reps)
            null_ratio = timings["null-ratio"]
            record_ratio = timings["record-ratio"]
            print(
                f"{name}: baseline {timings['baseline'] * 1000:.1f}ms  "
                f"null {null_ratio:+.1%}  recording {record_ratio:+.1%}  "
                f"[batch of {batch}, median-ratio of {reps}, attempt {attempt}]"
            )
            if null_ratio <= NULL_OVERHEAD_LIMIT and record_ratio <= RECORD_OVERHEAD_LIMIT:
                break
        if null_ratio > NULL_OVERHEAD_LIMIT:
            print(
                f"FAIL {name}: null-recorder overhead {null_ratio:.1%} exceeds "
                f"{NULL_OVERHEAD_LIMIT:.0%} in {MAX_ATTEMPTS} attempts"
            )
            failures += 1
        if record_ratio > RECORD_OVERHEAD_LIMIT:
            print(
                f"FAIL {name}: recording overhead {record_ratio:.1%} exceeds "
                f"{RECORD_OVERHEAD_LIMIT:.0%} in {MAX_ATTEMPTS} attempts"
            )
            failures += 1

    if failures:
        print(f"bench_trace_overhead: {failures} acceptance check(s) FAILED")
        return 1
    print("bench_trace_overhead: all acceptance checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
