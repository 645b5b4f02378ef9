#!/usr/bin/env python3
"""Benchmark — one honest million-device multi-hop run.

The acceptance row for the pipelined-relay/cap-aware-truncation work: a
complete ``MultiHopBroadcast`` execution at ``n = 10⁶`` over a sparse-CSR
Gilbert graph, on one machine.  Three things make the row honest:

* **Pipelining** — the round keeps appending propagation steps while the
  frontier advances, so the message crosses the component inside a few
  rounds instead of needing ``~diameter`` rounds of geometrically growing
  length.
* **Cap-aware truncation** — infinite-budget stragglers the message can no
  longer reach are retired after each request phase, so the schedule ends
  when the run is decided instead of stalling to the round cap.
* **Sparse CSR adjacency** — the dense boolean matrix would need ~1 TiB at
  this size; the run asserts the realised adjacency stays under the
  ``--memory-ceiling`` (default 1 GiB).

Usage::

    PYTHONPATH=src python benchmarks/bench_million_device.py            # full row, n = 10⁶ (~6 min)
    PYTHONPATH=src python benchmarks/bench_million_device.py --smoke    # CI-sized, n = 5·10⁴ (~4 s)

Reference row (default seed; one process on a 2-vCPU Intel Xeon VM, Python 3.11,
numpy 2.4): n = 10⁶ informs all 1,000,000 nodes in 19 rounds / 1.9·10⁹ slots (the
static cap schedule is 3.2·10¹¹ slots) with 217.7 MiB of CSR adjacency — 32 s
build + 326 s run, 3.7 GiB peak RSS.  The round count varies from seed to seed
(11–16 rounds over 16 seeds at n = 5·10⁴); phase lengths grow geometrically
with the round, and slot count, run time and peak RSS grow with them.
"""

from __future__ import annotations

import argparse
import resource
import time

from repro.core.broadcast import MultiHopBroadcast
from repro.simulation import Network, SimulationConfig, TopologySpec
from repro.simulation.topology import gilbert_connectivity_radius

GIB = float(1024 ** 3)

FULL_N = 1_000_000
SMOKE_N = 50_000


def fmt_bytes(num: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if num < 1024 or unit == "GiB":
            return f"{num:.1f} {unit}"
        num /= 1024
    return f"{num:.1f} GiB"


def peak_rss_bytes() -> int:
    """The process's peak resident set so far (Linux reports ru_maxrss in KiB)."""

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def cap_slots(protocol: MultiHopBroadcast) -> int:
    """Slots of the full static schedule up to the round cap."""

    schedule = protocol.schedule
    return sum(schedule.round_length(i) for i in schedule.rounds)


def run(n: int, seed: int, memory_ceiling: float) -> None:
    radius = 2.0 * gilbert_connectivity_radius(n)
    print(f"== pipelined MultiHopBroadcast over a Gilbert graph at n = {n:,} ==")
    print(f"radius               : {radius:.5f} (2x connectivity threshold)")

    config = SimulationConfig(n=n, seed=seed, topology=TopologySpec.gilbert(radius=radius))
    build_start = time.perf_counter()
    network = Network(config)
    build_elapsed = time.perf_counter() - build_start
    build_rss = peak_rss_bytes()
    adjacency_memory = network.topology.memory_bytes()
    dense_would_need = (n + 1) * (n + 1)

    protocol = MultiHopBroadcast(
        config, engine="fast", network=network, record_events=False
    )
    budget = cap_slots(protocol)
    run_start = time.perf_counter()
    outcome = protocol.run()
    run_elapsed = time.perf_counter() - run_start

    delivery = outcome.delivery
    print(f"build time           : {build_elapsed:.1f}s")
    print(f"run time             : {run_elapsed:.1f}s (full protocol, PhaseEngine)")
    # The peak after the build next to the whole-run peak: when they are
    # equal, the topology build set the peak, not the protocol run.
    print(f"peak RSS after build : {fmt_bytes(build_rss)}")
    print(f"peak RSS             : {fmt_bytes(peak_rss_bytes())} (build + run)")
    print(f"rounds executed      : {delivery.rounds_executed}")
    print(f"slots simulated      : {delivery.slots_elapsed:,} "
          f"(cap schedule: {budget:,})")
    print(f"nodes informed       : {delivery.informed:,}")
    print(f"terminated uninformed: {delivery.terminated_uninformed:,}")
    print(f"mean node cost       : {outcome.mean_node_cost:.0f} slots")
    print(f"adjacency memory     : {fmt_bytes(adjacency_memory)} "
          f"(dense would need {fmt_bytes(dense_would_need)})")

    failures = []
    if adjacency_memory >= memory_ceiling:
        failures.append(
            f"adjacency memory {fmt_bytes(adjacency_memory)} exceeds the "
            f"{fmt_bytes(memory_ceiling)} ceiling"
        )
    if outcome.terminated_by_cap:
        failures.append("run stalled to the round cap — truncation regressed")
    if delivery.slots_elapsed >= budget:
        failures.append("schedule did not truncate below the static cap total")
    if delivery.informed == 0:
        failures.append("nobody informed — the relay pipeline went nowhere")
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        raise SystemExit(1)
    print("PASS: completed below the cap within the adjacency-memory ceiling")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"CI-sized run at n = {SMOKE_N:,} instead of the full {FULL_N:,}",
    )
    parser.add_argument("--n", type=int, default=None, help="explicit device count")
    parser.add_argument("--seed", type=int, default=20120717)
    parser.add_argument(
        "--memory-ceiling", type=float, default=GIB,
        help="adjacency-memory assertion threshold in bytes (default 1 GiB)",
    )
    args = parser.parse_args()
    n = args.n if args.n is not None else (SMOKE_N if args.smoke else FULL_N)
    run(n, args.seed, args.memory_ceiling)


if __name__ == "__main__":
    main()
