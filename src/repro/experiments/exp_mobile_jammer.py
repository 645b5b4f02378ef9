"""E12 — mobile and adaptive spatial adversaries over Gilbert graphs.

E11 gave Carol a *static* disk: she blankets one region and can only delay it
while her budget lasts.  Real spatial denial is mobile — a jammer patrols,
orbits, splits into several emitters, or chases the traffic.  This experiment
runs the :mod:`repro.adversary.mobility` roster against
:class:`~repro.core.broadcast.MultiHopBroadcast` on a (CSR-backed) Gilbert
graph at equal spend caps and measures where the budget goes:

* **static disk** — the E11 reference (:class:`~repro.adversary.spatial.SpatialJammer`);
* **patrol / orbit / random walk** — oblivious mobility
  (:class:`~repro.adversary.mobility.MobileJammer`): the disk moves, the
  victim set is re-resolved every phase, coverage grows with speed;
* **multi-disk** — one budget split across ``k`` disks
  (:class:`~repro.adversary.mobility.MultiDiskJammer`);
* **reactive disk** — the adaptive pursuit strategy
  (:class:`~repro.adversary.mobility.ReactiveDiskJammer`) re-centring each
  phase on the densest cluster of active uninformed listeners.

Runs use a fixed ``ConstantQuietRule`` horizon (the ``max_quiet_retries``
spelling) so they end while jamming still binds (otherwise every scenario
trivially ends at full delivery once the budget dies and the metrics cannot
discriminate).  Two headline metrics at equal spend caps:

* ``delivery_per_mspend`` — the victimised network's delivery fraction per
  thousand units of Carol's spend.  Disk jamming is full-phase denial, so a
  jammer's current victims are silenced outright while the budget lasts; the
  strategies differ in *which and how many* listeners they silence.  The
  reactive disk always parks on the densest active uninformed cluster, so at
  equal spend it suppresses strictly more delivery — the network's delivery
  per unit adversary budget is strictly lower than under the static disk.
* ``stranded_per_mspend`` — listeners it actually jammed that end the run
  uninformed, per thousand units of spend: the reactive disk strands
  strictly more victims per unit budget than the static disk.

Oblivious mobility (patrol/orbit/walk) shows the opposite trade: coverage
grows with speed but each victim is jammed only in passing, so victim
delivery stays high — movement without state knowledge buys breadth, not
damage.
"""

from __future__ import annotations

from typing import Optional

from ..adversary import (
    MobileJammer,
    MultiDiskJammer,
    Orbit,
    RandomWalk,
    ReactiveDiskJammer,
    SpatialJammer,
    WaypointPatrol,
)
from ..analysis.stats import aggregate_records
from ..core.broadcast import MultiHopBroadcast
from ..core.quietrule import ConstantQuietRule
from ..simulation.config import SimulationConfig
from ..simulation.topology import TopologySpec, gilbert_connectivity_radius
from .harness import ExperimentResult, ExperimentSettings
from .runner import TrialSpec, run_sweep

__all__ = ["run", "EXPERIMENT_ID", "TITLE", "CLAIM", "scenario_roster"]

EXPERIMENT_ID = "E12"
TITLE = "Mobile and adaptive spatial adversaries over Gilbert graphs"
CLAIM = (
    "A mobile disk jammer trades denial depth for coverage; an adaptive (reactive) disk that "
    "chases the densest cluster of active uninformed listeners strands more victims per unit "
    "budget and drives the victimised network's delivery per unit budget strictly below the "
    "static disk's at equal radius and spend cap"
)

QUIET_RETRIES = 6
"""Request-phase retry horizon used by every E12 run (a uniform
``ConstantQuietRule``): ends the run while jamming still binds, so the
delivery metrics can discriminate between strategies over one bounded
window.  A fixed horizon — not the degree-aware default — keeps every
scenario's window identical."""

JAM_RADIUS = 0.25
"""Disk radius shared by every scenario (the E11 default)."""

PATROL_SPEED = 0.04
"""Patrol distance per phase for the waypoint scenario."""


def scenario_roster(spend_cap: Optional[float], seed: int = 0):
    """Fresh equal-budget adversaries, one factory per scenario.

    Shared between the experiment and ``benchmarks/bench_mobile_jammer.py``
    so the two always measure the same attackers.
    """

    corners = [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)]
    return {
        "static disk": lambda: SpatialJammer(
            center=(0.25, 0.25), radius=JAM_RADIUS, max_total_spend=spend_cap
        ),
        "patrol": lambda: MobileJammer(
            WaypointPatrol(corners, speed=PATROL_SPEED),
            radius=JAM_RADIUS,
            max_total_spend=spend_cap,
        ),
        "orbit": lambda: MobileJammer(
            Orbit(center=(0.5, 0.5), orbit_radius=0.25, angular_speed=0.15),
            radius=JAM_RADIUS,
            max_total_spend=spend_cap,
        ),
        "random walk": lambda: MobileJammer(
            RandomWalk(start=(0.25, 0.25), step=0.05, seed=seed),
            radius=JAM_RADIUS,
            max_total_spend=spend_cap,
        ),
        "multi-disk k=3": lambda: MultiDiskJammer(
            centers=[(0.2, 0.2), (0.8, 0.2), (0.5, 0.8)],
            radius=JAM_RADIUS / (3 ** 0.5),  # equal total area to one disk
            max_total_spend=spend_cap,
        ),
        "reactive disk": lambda: ReactiveDiskJammer(
            radius=JAM_RADIUS, max_total_spend=spend_cap
        ),
    }


def victim_metrics(protocol, outcome, adversary, n: int) -> dict:
    """Coverage, stranding, and per-budget statistics for one finished run.

    ``coverage`` is the union of every victim set the adversary actually
    jammed (for a static disk: the disk); ``victim_delivery`` is the fraction
    of covered *nodes* informed at the end, read from the orchestrator's
    ``final_state``; ``stranded`` are covered nodes that finished without the
    message.  The ``*_per_mspend`` columns divide by Carol's spend in
    thousands, making the equal-budget scenarios directly comparable.
    """

    covered = sorted(v for v in adversary.coverage if v >= 0)
    informed = {
        node_id
        for node_id, status in protocol.final_state.statuses.items()
        if status.is_informed
    }
    stranded = sum(1 for node in covered if node not in informed)
    victim_delivery = (
        (len(covered) - stranded) / len(covered) if covered else 1.0
    )
    mspend = max(outcome.adversary_spend, 1.0) / 1000.0
    return {
        "coverage_fraction": len(covered) / n,
        "victim_delivery": victim_delivery,
        "stranded_per_mspend": stranded / mspend,
        "delivery_per_mspend": outcome.delivery_fraction / mspend,
    }


def _trial(seed: int, n: int, engine: str, scenario: str, roster_seed: int) -> dict:
    """One E12 trial: the named roster scenario at half of Carol's budget.

    ``roster_seed`` seeds the roster's random-walk trajectory exactly as the
    experiment's ``settings.seed`` did when the roster was built inline.
    """

    radius = 2.0 * gilbert_connectivity_radius(n)
    spec = TopologySpec.gilbert(radius=radius)
    config = SimulationConfig(n=n, k=2, f=1.0, seed=seed, topology=spec)
    adversary = scenario_roster(None, seed=roster_seed)[scenario]()
    adversary.max_total_spend = 0.5 * config.adversary_total_budget
    # Sequential schedule (no pipelining): the equal-budget comparison needs
    # Carol's spend cap to bind, which requires the fixed-length relay
    # schedule — pipelined runs deliver before the budget is exhausted and
    # the scenarios would no longer be compared at equal spend.
    protocol = MultiHopBroadcast(
        config,
        adversary=adversary,
        engine=engine,
        quiet_rule=ConstantQuietRule(retries=QUIET_RETRIES),
        pipeline=False,
    )
    outcome = protocol.run()
    record = outcome.as_record()
    record.update(victim_metrics(protocol, outcome, adversary, n))
    return record


def run(settings: ExperimentSettings) -> ExperimentResult:
    n = settings.n

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        claim=CLAIM,
        columns=[
            "scenario",
            "delivery_fraction",
            "delivery_per_mspend",
            "coverage_fraction",
            "victim_delivery",
            "stranded_per_mspend",
            "carol_spend",
            "mean_node_cost",
            "slots",
        ],
    )

    labels = list(scenario_roster(None, seed=settings.seed))
    specs = [
        TrialSpec.point(
            _trial,
            EXPERIMENT_ID,
            label,
            n=n,
            engine=settings.engine,
            scenario=label,
            roster_seed=settings.seed,
        )
        for label in labels
    ]
    per_point = run_sweep(specs, settings)

    for label, records in zip(labels, per_point):
        summary = aggregate_records(records)
        result.add_row(
            scenario=label,
            delivery_fraction=summary["delivery_fraction"].mean,
            delivery_per_mspend=summary["delivery_per_mspend"].mean,
            coverage_fraction=summary["coverage_fraction"].mean,
            victim_delivery=summary["victim_delivery"].mean,
            stranded_per_mspend=summary["stranded_per_mspend"].mean,
            carol_spend=summary["adversary_spend"].mean,
            mean_node_cost=summary["node_mean_cost"].mean,
            slots=summary["slots"].mean,
        )

    result.add_note(
        "All scenarios share one spend cap (half of Carol's aggregate budget) and one total "
        "disk area, and run under a constant quiet-retry horizon so the protocol ends while jamming still "
        "binds; only the adversary moves — victim sets are re-resolved from the topology "
        "every phase through grid-accelerated disk queries."
    )
    result.add_note(
        "The reactive disk chases the densest cluster of active uninformed listeners "
        "(knowledge-of-state, like the paper's adaptive Carol): at equal budget it strands "
        "more listeners per unit spend than the blind disk and holds the network's delivery "
        "per unit budget strictly below the static disk — the pursuit half of a "
        "pursuit/evasion scenario no static adversary can express."
    )
    result.add_note(
        "Oblivious mobility buys breadth, not damage: patrol/orbit cover 2-4x more nodes "
        "than the static disk but jam each only in passing, so their victims mostly catch up "
        "(high victim_delivery) — movement without state knowledge spreads the same budget "
        "thinner."
    )
    return result
