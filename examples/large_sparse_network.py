#!/usr/bin/env python3
"""Demo: ε-Broadcast over a 50,000-device Gilbert graph on a laptop.

Usage::

    PYTHONPATH=src python examples/large_sparse_network.py [n]

Builds a Gilbert random geometric graph at ``n`` devices (default 50,000 —
far beyond what a dense adjacency matrix could hold), prints the realised
graph's statistics and memory footprint, and drives a short capped
multi-hop broadcast through the vectorised engine's event-driven CSR path.

The round cap keeps the demo under ~30 s; drop the ``max_round`` override to
let the protocol run to its natural quiet-rule termination (about 12 rounds
and a couple of minutes at n = 10⁵ — see
``benchmarks/bench_sparse_topology.py`` for that full run).
"""

from __future__ import annotations

import sys
import time

from repro.core.broadcast import MultiHopBroadcast
from repro.core.params import ProtocolParameters
from repro.simulation import Network, SimulationConfig, TopologySpec
from repro.simulation.topology import gilbert_connectivity_radius


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 50_000
    radius = 2.0 * gilbert_connectivity_radius(n)
    config = SimulationConfig(
        n=n, seed=2012, topology=TopologySpec.gilbert(radius=radius)
    )

    print(f"building Gilbert graph: n={n:,}, radius={radius:.4f} (2 x r_c) ...")
    start = time.perf_counter()
    network = Network(config)
    topology = network.topology
    print(f"  built in {time.perf_counter() - start:.1f}s")

    degrees = topology.degrees()
    reachable = len(topology.reachable_from_alice())
    dense_gb = (n + 1) ** 2 / 1e9
    print(f"  mean degree {degrees.mean():.1f} (min {degrees.min()}, max {degrees.max()})")
    print(f"  nodes reachable from Alice: {reachable:,} ({reachable / n:.1%})")
    print(f"  adjacency memory: {network.topology_memory_bytes() / 1e6:.1f} MB "
          f"(dense matrix would need {dense_gb:.1f} GB)")

    # Cap the round schedule so the demo stays interactive; phase lengths grow
    # as 2^(1.5 i), so uncapped large-n runs spend minutes in the last rounds.
    params = ProtocolParameters.from_config(config).with_(max_round=8)
    print("\nrunning capped multi-hop ε-Broadcast (max_round=8, fast engine) ...")
    start = time.perf_counter()
    outcome = MultiHopBroadcast(
        config, params=params, engine="fast", network=network, record_events=False
    ).run()
    print(f"  {outcome.delivery.slots_elapsed:,} slots in "
          f"{time.perf_counter() - start:.1f}s")
    print(f"  informed so far: {outcome.delivery.informed:,} nodes "
          f"(frontier still expanding when the cap hit)")
    print(f"  mean node cost: {outcome.mean_node_cost:.1f} slots, "
          f"Alice cost: {outcome.costs.alice:.1f}")


if __name__ == "__main__":
    main()
