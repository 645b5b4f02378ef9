"""The benchmark's three workloads: inputs, one operation, and output checks.

Each workload is closed-loop and single-process: the next operation starts
only after the previous one returned.

* ``sh-jammed`` and ``mh-gilbert`` derive a *panel* of protocol instances
  from the seed.  One operation is one protocol run on the next instance of
  the panel; its set-up (``Network`` plus orchestrator) is timed apart from
  the run.
* ``registry-cold`` runs the quick experiment registry E1–E14 into a fresh,
  empty trial cache.  One operation is one such pass.
"""

from __future__ import annotations

import hashlib
import re
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

from calibrate import kernel_seconds
from repro.core.broadcast import EpsilonBroadcast, MultiHopBroadcast
from repro.core.outcome import BroadcastOutcome
from repro.experiments import DEFAULT_FAULT_POLICY, ExperimentSettings, render_result
from repro.experiments import registry
from repro.experiments.runner import track_stats
from repro.experiments.workloads import blocking_adversary
from repro.simulation import Network, SimulationConfig, TopologySpec
from repro.simulation.topology import gilbert_connectivity_radius

SH_N = 4096
"""Single-hop network size: phases of millions of slots, about 1 s a run."""

SH_PANEL = 4
SH_SETUP_REPEATS = 8
"""Set-ups timed per run: one set-up takes only milliseconds at this size."""

SH_SPEND_SHARE = 0.9
"""Carol's blocker is capped at this share of her aggregate budget."""

MH_N = 20_000
"""Multi-hop network size (above the sparse-CSR crossover of 4096)."""

MH_PANEL = 16
MH_RADIUS_FACTOR = 2.0
"""Radius as a multiple of the Gilbert connectivity radius r_c."""

TRACE_PANEL = 4
"""Instances per traced pass (the first ones of the panel)."""

REGISTRY_PROFILE = dict(n=256, trials=2, quick=True, seed=2012)
"""The profile EXPERIMENTS.md is generated at; its tables are the reference."""

KERNEL = {"sh-jammed": "array", "mh-gilbert": "python", "registry-cold": "python"}
"""The reference kernel (perfbench/calibrate.py) each workload's run times are rescaled by."""

SETUP_KERNEL = "python"
"""The kernel set-up times are rescaled by: set-up is imports and object construction."""


def panel_seeds(seed: int, size: int) -> List[int]:
    """``size`` instance seeds, a pure function of the benchmark seed."""

    return [int(s) for s in np.random.SeedSequence(seed).generate_state(size)]


# ---------------------------------------------------------------------- #
# Protocol workloads                                                      #
# ---------------------------------------------------------------------- #


@dataclass
class RunRecord:
    """One protocol run: timings, simulated outcome, and check failures."""

    setup_s: List[float]
    run_s: float
    slots: int
    informed: int
    reachable: int
    node_cost_mean: float
    alice_cost: float
    adversary_spend: float
    fingerprint: str
    problems: List[str] = field(default_factory=list)
    kernel_s: Dict[str, float] = field(default_factory=dict)
    """Kernel name -> its mean time right before and right after the run."""

    @property
    def delivery_ratio(self) -> float:
        return self.informed / self.reachable if self.reachable else 0.0


@dataclass
class Instance:
    """A protocol instance; :meth:`build` is the timed set-up."""

    kind: str
    n: int
    seed: int
    setup_repeats: int = 1

    def config(self) -> SimulationConfig:
        if self.kind == "sh-jammed":
            return SimulationConfig(n=self.n, seed=self.seed, k=2, f=1.0)
        radius = MH_RADIUS_FACTOR * gilbert_connectivity_radius(self.n)
        return SimulationConfig(
            n=self.n, seed=self.seed, topology=TopologySpec.gilbert(radius=radius)
        )

    def spend_cap(self, config: SimulationConfig) -> float:
        return SH_SPEND_SHARE * config.adversary_total_budget if self.kind == "sh-jammed" else 0.0

    def build(self) -> EpsilonBroadcast:
        config = self.config()
        network = Network(config)
        if self.kind == "sh-jammed":
            adversary = blocking_adversary(self.spend_cap(config))
            return EpsilonBroadcast(
                config, adversary=adversary, engine="fast", network=network, record_events=False
            )
        return MultiHopBroadcast(config, engine="fast", network=network, record_events=False)


def informed_ids(state: object) -> np.ndarray:
    """Ids of the nodes that hold ``m`` at the end of a run."""

    slots = state.informed_at_slot  # type: ignore[attr-defined]
    if isinstance(slots, np.ndarray):
        return np.flatnonzero(slots >= 0)
    return np.fromiter(slots.keys(), dtype=np.int64)


def run_instance(instance: Instance, tracer=None) -> RunRecord:
    """Set up and run one instance, then check its outputs (checks are untimed).

    With a ``tracer`` the set-up and the run are recorded as the ``"setup"``
    and ``"run"`` sections, and the checks as ``"check"``.
    """

    setups = []
    for _ in range(instance.setup_repeats - 1):
        start = time.perf_counter()
        instance.build()
        setups.append(time.perf_counter() - start)
    if tracer is not None:
        tracer.section = "setup"
        tracer.enter("bench.setup")
    start = time.perf_counter()
    protocol = instance.build()
    built = time.perf_counter()
    setups.append(built - start)
    if tracer is not None:
        tracer.exit()
        tracer.section = "run"
        tracer.enter("bench.run")
        built = time.perf_counter()
    outcome = protocol.run()
    done = time.perf_counter()
    if tracer is not None:
        tracer.exit()
        tracer.section = "check"

    network = protocol.network
    reachable = network.topology.reachable_from_alice()
    informed = informed_ids(protocol.final_state)
    costs = network.node_costs()
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(costs).tobytes())
    digest.update(informed.astype(np.int64).tobytes())
    digest.update(
        repr(
            (outcome.delivery.slots_elapsed, outcome.alice_cost, outcome.adversary_spend)
        ).encode()
    )
    record = RunRecord(
        setup_s=setups,
        run_s=done - built,
        slots=int(outcome.delivery.slots_elapsed),
        informed=int(outcome.delivery.informed),
        reachable=len(reachable),
        node_cost_mean=float(outcome.mean_node_cost),
        alice_cost=float(outcome.alice_cost),
        adversary_spend=float(outcome.adversary_spend),
        fingerprint=digest.hexdigest(),
    )
    record.problems = check_run(record, outcome, informed, reachable, protocol.config, instance)
    return record


def check_run(record: RunRecord, outcome, informed: np.ndarray, reachable, config, instance: Instance) -> List[str]:
    """The output checks of one protocol run; an empty list means it passed."""

    problems = []
    if record.delivery_ratio < 1.0 - config.epsilon:
        problems.append(
            f"delivery {record.informed}/{record.reachable} below 1-eps={1.0 - config.epsilon:g}"
        )
    if outcome.terminated_by_cap:
        problems.append("run hit the round cap")
    cap = instance.spend_cap(config)
    if record.adversary_spend > cap + 1e-9:
        problems.append(f"adversary spent {record.adversary_spend:g} over its cap {cap:g}")
    if informed.size != record.informed:
        problems.append(f"state holds {informed.size} informed nodes, outcome says {record.informed}")
    outside = [int(i) for i in informed if int(i) not in reachable]
    if outside:
        problems.append(f"{len(outside)} informed nodes unreachable from Alice (first {outside[0]})")
    return problems


def protocol_panel(workload: str, seed: int) -> List[Instance]:
    if workload == "sh-jammed":
        return [Instance(workload, SH_N, s, SH_SETUP_REPEATS) for s in panel_seeds(seed, SH_PANEL)]
    return [Instance(workload, MH_N, s) for s in panel_seeds(seed, MH_PANEL)]


# ---------------------------------------------------------------------- #
# Registry workload                                                       #
# ---------------------------------------------------------------------- #


@dataclass
class PassRecord:
    """One registry pass: timings, runner counters, tables, and check failures."""

    setup_s: float
    run_s: float
    trials: int
    executed: int
    cache_hits: int
    retries: int
    experiment_s: Dict[str, float]
    kernel_s: Dict[str, float]
    tables: Dict[str, str]
    cache_dir: str
    outcomes: Dict[str, float]
    problems: List[str] = field(default_factory=list)


def registry_order(seed: int) -> List[str]:
    """Experiment ids, rotated by the seed; the tables must not depend on order."""

    ids = registry.experiment_ids()
    shift = seed % len(ids)
    return ids[shift:] + ids[:shift]


def reference_tables(path: str) -> Dict[str, str]:
    """The first ``text`` block under each ``## E<k> —`` heading of EXPERIMENTS.md."""

    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    tables = {}
    for match in re.finditer(r"^## (E\d+) — .*?^```text\n(.*?)^```", text, re.M | re.S):
        tables[match.group(1)] = match.group(2).rstrip("\n")
    return tables


def registry_pass(order: List[str], work_dir: str, cache_dir: Optional[str] = None) -> PassRecord:
    """Run every experiment of ``order`` once; a fresh cache unless ``cache_dir`` is given.

    The reference kernel is timed before each experiment and after the
    last; each experiment's ``kernel_s`` is the mean of the two around it.
    Kernel time is not part of ``run_s``.
    """

    start = time.perf_counter()
    if cache_dir is None:
        cache_dir = tempfile.mkdtemp(prefix="trial-cache-", dir=work_dir)
    settings = ExperimentSettings(
        jobs=1, cache_dir=cache_dir, fault_policy=DEFAULT_FAULT_POLICY, **REGISTRY_PROFILE
    )
    ready = time.perf_counter()
    results, seconds, kernels = {}, {}, []
    with track_stats() as stats, outcome_tap() as outcomes:
        for eid in order:
            kernels.append(kernel_seconds(KERNEL["registry-cold"]))
            began = time.perf_counter()
            results[eid] = registry.run_experiment(eid, settings)
            seconds[eid] = time.perf_counter() - began
        kernels.append(kernel_seconds(KERNEL["registry-cold"]))
    kernel_s = {eid: (kernels[i] + kernels[i + 1]) / 2 for i, eid in enumerate(order)}
    return PassRecord(
        setup_s=ready - start,
        run_s=sum(seconds.values()),
        trials=stats.executed + stats.cache_hits,
        executed=stats.executed,
        cache_hits=stats.cache_hits,
        retries=stats.retries,
        experiment_s=seconds,
        kernel_s=kernel_s,
        tables={eid: render_result(result) for eid, result in results.items()},
        cache_dir=cache_dir,
        outcomes=dict(outcomes),
    )


@contextmanager
def outcome_tap() -> Iterator[Dict[str, float]]:
    """Sum the simulated outcome of every protocol run made inside the block.

    Every protocol and baseline returns a ``BroadcastOutcome``; the tap adds
    one Python call per run and reads fields only.
    """

    totals = {"runs": 0, "n": 0, "informed": 0, "slots": 0, "node_cost": 0.0, "alice_cost": 0.0}
    original = BroadcastOutcome.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        totals["runs"] += 1
        totals["n"] += self.delivery.n
        totals["informed"] += self.delivery.informed
        totals["slots"] += self.delivery.slots_elapsed
        totals["node_cost"] += self.mean_node_cost
        totals["alice_cost"] += self.alice_cost

    BroadcastOutcome.__init__ = init
    try:
        yield totals
    finally:
        BroadcastOutcome.__init__ = original


def check_tables(tables: Dict[str, str], reference: Dict[str, str]) -> List[str]:
    problems = []
    for eid in registry.experiment_ids():
        if eid not in reference:
            problems.append(f"{eid}: no reference table in EXPERIMENTS.md")
        elif tables.get(eid) != reference[eid]:
            problems.append(f"{eid}: rendered table differs from EXPERIMENTS.md")
    return problems


def drop_cache(record: PassRecord) -> None:
    shutil.rmtree(record.cache_dir, ignore_errors=True)
