#!/usr/bin/env python3
"""Benchmark — mobile & adaptive spatial jamming sweeps (E12 companion).

Three measurements over `MultiHopBroadcast` on a CSR-backed Gilbert graph,
all at equal adversary spend caps:

1. **Speed sweep**: a `MobileJammer` patrolling the four corners at
   increasing speed — coverage grows with speed while per-victim denial
   (stranding) thins out.  Speed 0 is the static-disk baseline.
2. **Disk-count sweep**: a `MultiDiskJammer` splitting one budget (and one
   total disk area) across k disks.
3. **Adaptive head-to-head** (the E12 acceptance check): the
   `ReactiveDiskJammer` must achieve *strictly lower* delivery per unit
   budget for the victimised network than the static `SpatialJammer` at
   equal budget — it chases the densest active uninformed cluster, so its
   jamming always lands where delivery was about to happen.  The script
   exits non-zero if the ordering fails.

A small slot-engine leg cross-checks that the mobile adversary stack runs
end-to-end on the reference engine too.

Usage::

    PYTHONPATH=src python benchmarks/bench_mobile_jammer.py           # full (n = 10^4, ~1 min)
    PYTHONPATH=src python benchmarks/bench_mobile_jammer.py --smoke   # CI-sized (n = 256)

Runs use a ``ConstantQuietRule`` horizon so the protocol ends while jamming
still binds; without it every run ends at full delivery once the budget dies
and the sweeps cannot discriminate (see
``repro.experiments.exp_mobile_jammer``).
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.adversary import (
    MobileJammer,
    MultiDiskJammer,
    ReactiveDiskJammer,
    SpatialJammer,
    WaypointPatrol,
)
from repro.core.broadcast import MultiHopBroadcast
from repro.core.quietrule import ConstantQuietRule
from repro.experiments.exp_mobile_jammer import JAM_RADIUS, victim_metrics
from repro.simulation import SimulationConfig, TopologySpec
from repro.simulation.topology import gilbert_connectivity_radius

CORNERS = [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)]


def run_one(n: int, seed: int, adversary, retries: int, engine: str = "fast") -> dict:
    spec = TopologySpec.gilbert(radius=2.0 * gilbert_connectivity_radius(n))
    config = SimulationConfig(n=n, seed=seed, topology=spec)
    adversary.max_total_spend = 0.5 * config.adversary_total_budget
    # pipeline=False: like exp_mobile_jammer, the sweeps compare adversaries
    # at equal (binding) spend caps, which needs the fixed-length schedule.
    protocol = MultiHopBroadcast(
        config,
        adversary=adversary,
        engine=engine,
        quiet_rule=ConstantQuietRule(retries=retries),
        pipeline=False,
    )
    start = time.perf_counter()
    outcome = protocol.run()
    record = {
        "delivery": outcome.delivery_fraction,
        "spend": outcome.adversary_spend,
        "slots": outcome.delivery.slots_elapsed,
        "seconds": time.perf_counter() - start,
    }
    record.update(victim_metrics(protocol, outcome, adversary, n))
    return record


def averaged(n, seeds, factory, retries, engine="fast"):
    rows = [run_one(n, seed, factory(), retries, engine) for seed in seeds]
    return {key: float(np.mean([row[key] for row in rows])) for key in rows[0]}


def print_row(label: str, row: dict) -> None:
    print(
        f"{label:<18} delivery={row['delivery']:.3f} "
        f"dlv/kspend={row['delivery_per_mspend']:.4f} "
        f"coverage={row['coverage_fraction']:.3f} "
        f"victim_dlv={row['victim_delivery']:.3f} "
        f"stranded/kspend={row['stranded_per_mspend']:.1f} "
        f"spend={row['spend']:.0f} ({row['seconds']:.1f}s)"
    )


def speed_sweep(n, seeds, retries) -> None:
    print(f"== patrol speed sweep (n = {n:,}, equal budget) ==")
    for speed in (0.0, 0.02, 0.05, 0.1):
        factory = lambda speed=speed: MobileJammer(
            WaypointPatrol(CORNERS, speed=speed), radius=JAM_RADIUS
        )
        print_row(f"speed={speed:g}", averaged(n, seeds, factory, retries))
    print()


def disk_count_sweep(n, seeds, retries) -> None:
    print(f"== disk-count sweep (n = {n:,}, equal budget, equal total area) ==")
    for k in (1, 2, 3, 4):
        centers = CORNERS[:k] if k > 1 else [(0.25, 0.25)]
        factory = lambda centers=centers, k=k: MultiDiskJammer(
            centers=centers, radius=JAM_RADIUS / (k ** 0.5)
        )
        print_row(f"k={k}", averaged(n, seeds, factory, retries))
    print()


def adaptive_head_to_head(n, seeds, retries) -> bool:
    print(f"== adaptive head-to-head (n = {n:,}, equal budget) ==")
    static = averaged(
        n, seeds, lambda: SpatialJammer(center=(0.25, 0.25), radius=JAM_RADIUS), retries
    )
    reactive = averaged(n, seeds, lambda: ReactiveDiskJammer(radius=JAM_RADIUS), retries)
    print_row("static disk", static)
    print_row("reactive disk", reactive)
    ok = reactive["delivery_per_mspend"] < static["delivery_per_mspend"]
    print(
        f"reactive delivery-per-unit-budget strictly below static: "
        f"{reactive['delivery_per_mspend']:.4f} < {static['delivery_per_mspend']:.4f} "
        f"-> {'PASS' if ok else 'FAIL'}"
    )
    print()
    return ok


def slot_engine_leg(retries) -> None:
    print("== slot-engine cross-check (n = 64) ==")
    row = run_one(
        64,
        seed=5,
        adversary=MobileJammer(WaypointPatrol(CORNERS, speed=0.05), radius=JAM_RADIUS),
        retries=retries,
        engine="slot",
    )
    print_row("slot/patrol", row)
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--n", type=int, default=10_000, help="network size for the sweeps")
    parser.add_argument("--trials", type=int, default=2, help="seeds per sweep point")
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        help="ConstantQuietRule retries horizon (default: 8 at n >= 4096, 6 below)",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized smoke (n=256, 2 trials)"
    )
    args = parser.parse_args()
    if args.smoke:
        args.n = min(args.n, 256)
    retries = args.retries
    if retries is None:
        # Larger networks need more rounds before the relay frontier carries
        # meaningful delivery; too small a horizon makes every sweep point 0.
        retries = 8 if args.n >= 4096 else 6
    seeds = [args.seed + index for index in range(args.trials)]

    speed_sweep(args.n, seeds, retries)
    disk_count_sweep(args.n, seeds, retries)
    ok = adaptive_head_to_head(args.n, seeds, retries)
    slot_engine_leg(retries=6)
    if not ok:
        raise SystemExit(1)
    print("bench_mobile_jammer: all checks passed")


if __name__ == "__main__":
    main()
