#!/usr/bin/env python3
"""Benchmark — CSR topology scaling: graph construction and a large-n engine run.

Two measurements, matching the large-n acceptance criteria of the CSR
topology layer:

1. **Construction sweep**: build Gilbert (and scale-free) graphs at sizes up
   to ``--max-n`` with the grid-indexed CSR construction, reporting wall
   time, mean degree, and resident adjacency memory, next to the Θ(n²) bytes
   a boolean adjacency matrix would need (computed, never built).
2. **Engine run**: one complete ``MultiHopBroadcast`` execution on a Gilbert
   graph at ``--engine-n`` (default 10⁵) under the vectorised
   :class:`~repro.simulation.fastengine.PhaseEngine`, verifying that peak
   adjacency memory stays under 1 GiB — a boolean matrix alone would need
   ~10 GiB at that size.

Usage::

    PYTHONPATH=src python benchmarks/bench_sparse_topology.py            # full sweep (~3 min)
    PYTHONPATH=src python benchmarks/bench_sparse_topology.py --quick    # CI-sized smoke

Delivery note: with pipelined relay rounds (the `MultiHopBroadcast` default)
the frontier crosses the whole giant component within a round, so the run
delivers to essentially every node; `benchmarks/bench_million_device.py`
is the dedicated large-`n` delivery row, this benchmark's engine run is
primarily the adjacency-memory assertion.
"""

from __future__ import annotations

import argparse
import time
import tracemalloc

import numpy as np

from repro.simulation.topology import (
    GilbertGraph,
    ScaleFreeGilbert,
    gilbert_connectivity_radius,
)

GIB = float(1024 ** 3)


def fmt_bytes(num: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if num < 1024 or unit == "GiB":
            return f"{num:.1f} {unit}"
        num /= 1024
    return f"{num:.1f} GiB"


def dense_bytes(n: int) -> int:
    """Bytes an (n+1)² boolean adjacency matrix would hold."""

    return (n + 1) * (n + 1)


def build_once(kind: str, n: int, seed: int):
    rng = np.random.default_rng(seed)
    tracemalloc.start()
    start = time.perf_counter()
    if kind == "gilbert":
        topo = GilbertGraph.sample(n, 2.0 * gilbert_connectivity_radius(n), rng)
    else:
        topo = ScaleFreeGilbert.sample(n, 2.5, gilbert_connectivity_radius(n), rng)
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return topo, elapsed, peak


def construction_sweep(sizes, seed: int) -> None:
    print("== construction sweep: grid-indexed CSR ==")
    header = (
        f"{'kind':<11} {'n':>8} {'build':>8} {'mean deg':>9} "
        f"{'adjacency':>11} {'build peak':>11} {'dense would need':>17}"
    )
    print(header)
    print("-" * len(header))
    for kind in ("gilbert", "scale_free"):
        for n in sizes:
            topo, elapsed, peak = build_once(kind, n, seed)
            mean_deg = float(topo.degrees().mean())
            print(
                f"{kind:<11} {n:>8} {elapsed:>7.2f}s {mean_deg:>9.1f} "
                f"{fmt_bytes(topo.memory_bytes()):>11} {fmt_bytes(peak):>11} "
                f"{fmt_bytes(dense_bytes(n)):>17}"
            )
    print()


def engine_run(n: int, seed: int) -> None:
    from repro.core.broadcast import MultiHopBroadcast
    from repro.simulation import Network, SimulationConfig, TopologySpec

    print(f"== PhaseEngine multi-hop run over a GilbertGraph at n = {n:,} ==")
    radius = 2.0 * gilbert_connectivity_radius(n)
    config = SimulationConfig(n=n, seed=seed, topology=TopologySpec.gilbert(radius=radius))
    build_start = time.perf_counter()
    network = Network(config)
    build_elapsed = time.perf_counter() - build_start
    adjacency_memory = network.topology_memory_bytes()

    run_start = time.perf_counter()
    outcome = MultiHopBroadcast(
        config, engine="fast", network=network, record_events=False
    ).run()
    run_elapsed = time.perf_counter() - run_start

    print(f"build time           : {build_elapsed:.1f}s")
    print(f"run time             : {run_elapsed:.1f}s (full protocol, PhaseEngine)")
    print(f"rounds executed      : {outcome.delivery.rounds_executed}")
    print(f"slots simulated      : {outcome.delivery.slots_elapsed:,}")
    print(f"nodes informed       : {outcome.delivery.informed:,}")
    print(f"mean node cost       : {outcome.mean_node_cost:.0f} slots")
    print(f"adjacency memory     : {fmt_bytes(adjacency_memory)}")
    print(f"dense would need     : {fmt_bytes(dense_bytes(n))} "
          f"(x{dense_bytes(n) / max(adjacency_memory, 1):.0f})")
    ok = adjacency_memory < GIB
    print(f"peak adjacency < 1 GiB: {'PASS' if ok else 'FAIL'}")
    if not ok:
        raise SystemExit(1)
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--max-n", type=int, default=200_000,
                        help="largest network size in the construction sweep")
    parser.add_argument("--engine-n", type=int, default=100_000,
                        help="network size for the full PhaseEngine run")
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized smoke (max-n 20k, engine-n 20k)")
    args = parser.parse_args()
    if args.quick:
        args.max_n = min(args.max_n, 20_000)
        args.engine_n = min(args.engine_n, 20_000)

    sizes = [2_000, 10_000, 50_000, 100_000, 200_000]
    sizes = sorted({min(s, args.max_n) for s in sizes if s <= args.max_n} | {args.max_n})
    construction_sweep(sizes, seed=args.seed)
    engine_run(args.engine_n, seed=args.seed)
    print("bench_sparse_topology: all checks passed")


if __name__ == "__main__":
    main()
