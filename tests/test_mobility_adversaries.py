"""Behavioural tests for the jammer-mobility subsystem.

Covers the spatial-adversary edge cases named in the issue — unbound-use
errors, empty-disk idling, single-hop degradation to phase blocking, and
seeded-trajectory determinism across processes — plus the per-phase
``observe_phase`` re-resolution hook (forwarded by the composites and both
orchestrator families) and the constant quiet-rule retry cap.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import run_broadcast
from repro.adversary import (
    CompositeAdversary,
    MobileJammer,
    MultiDiskJammer,
    NUniformSplitAdversary,
    NullAdversary,
    Orbit,
    PhaseBlockingAdversary,
    RandomWalk,
    ReactiveDiskJammer,
    RoundSwitchingAdversary,
    SpatialJammer,
    WaypointPatrol,
)
from repro.baselines import NaiveBroadcast
from repro.core.broadcast import EpsilonBroadcast, MultiHopBroadcast
from repro.core.quietrule import ConstantQuietRule
from repro.simulation import SimulationConfig, TopologySpec
from repro.simulation.channel import JamMode, JamTargeting
from repro.simulation.errors import ConfigurationError
from repro.simulation.phaseplan import JamPlan, PhaseContext, PhaseKind, PhasePlan, PhaseRoles

SRC = str(Path(__file__).resolve().parent.parent / "src")

GILBERT = TopologySpec.gilbert(radius=0.3)


def inform_context(config, n_active=None):
    n_active = config.n if n_active is None else n_active
    return PhaseContext(
        plan=PhasePlan(
            name="inform",
            kind=PhaseKind.INFORM,
            round_index=1,
            num_slots=8,
            alice_send_prob=0.5,
            uninformed_listen_prob=0.5,
        ),
        roles=PhaseRoles(range(n_active)),
        config=config,
    )


class TestTrajectories:
    def test_patrol_loops_over_waypoints(self):
        patrol = WaypointPatrol([(0.0, 0.0), (1.0, 0.0)], speed=0.5)
        # Closed square-less loop: 0 -> 1 -> back to 0 along the same edge.
        assert patrol.position(0) == (0.0, 0.0)
        assert patrol.position(1) == (0.5, 0.0)
        assert patrol.position(2) == (1.0, 0.0)
        assert patrol.position(4) == (0.0, 0.0)  # full 2.0-length lap

    def test_stationary_cases(self):
        assert WaypointPatrol([(0.3, 0.4)], speed=1.0).position(7) == (0.3, 0.4)
        assert WaypointPatrol([(0.3, 0.4), (0.8, 0.4)], speed=0.0).position(7) == (0.3, 0.4)

    def test_orbit_geometry(self):
        orbit = Orbit(center=(0.5, 0.5), orbit_radius=0.2, angular_speed=np.pi)
        assert orbit.position(0) == pytest.approx((0.7, 0.5))
        assert orbit.position(1) == pytest.approx((0.3, 0.5))
        assert orbit.position(2) == pytest.approx((0.7, 0.5))

    def test_random_walk_seeded_and_reflecting(self):
        walk_a = RandomWalk(start=(0.5, 0.5), step=0.3, seed=11)
        walk_b = RandomWalk(start=(0.5, 0.5), step=0.3, seed=11)
        positions = [walk_a.position(t) for t in range(50)]
        assert positions == [walk_b.position(t) for t in range(50)]
        assert all(0.0 <= x <= 1.0 and 0.0 <= y <= 1.0 for x, y in positions)
        assert RandomWalk(seed=12).position(5) != walk_a.position(5)

    def test_random_walk_positions_memoised_out_of_order(self):
        walk = RandomWalk(step=0.05, seed=3)
        later = walk.position(9)
        assert walk.position(9) == later
        assert walk.position(2) == RandomWalk(step=0.05, seed=3).position(2)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WaypointPatrol([], speed=0.1)
        with pytest.raises(ConfigurationError):
            WaypointPatrol([(0, 0)], speed=-1)
        with pytest.raises(ConfigurationError):
            Orbit(orbit_radius=-0.1)
        with pytest.raises(ConfigurationError):
            RandomWalk(step=-0.1)
        with pytest.raises(ConfigurationError):
            RandomWalk(seed=-1)
        with pytest.raises(ConfigurationError):
            RandomWalk().position(-1)

    def test_trajectory_determinism_across_processes(self):
        """Seeded trajectories must replay bit-identically in a fresh process."""

        script = textwrap.dedent(
            """
            import json
            from repro.adversary import Orbit, RandomWalk, WaypointPatrol

            trajectories = {
                "patrol": WaypointPatrol([(0.1, 0.1), (0.9, 0.1), (0.9, 0.9)], speed=0.07),
                "walk": RandomWalk(start=(0.3, 0.7), step=0.04, seed=123),
                "orbit": Orbit(center=(0.4, 0.6), orbit_radius=0.2, angular_speed=0.3),
            }
            print(json.dumps({
                name: [list(t.position(i)) for i in range(12)]
                for name, t in trajectories.items()
            }))
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        remote = json.loads(proc.stdout)

        local = {
            "patrol": WaypointPatrol([(0.1, 0.1), (0.9, 0.1), (0.9, 0.9)], speed=0.07),
            "walk": RandomWalk(start=(0.3, 0.7), step=0.04, seed=123),
            "orbit": Orbit(center=(0.4, 0.6), orbit_radius=0.2, angular_speed=0.3),
        }
        for name, trajectory in local.items():
            expected = [list(trajectory.position(i)) for i in range(12)]
            assert remote[name] == expected, f"{name} trajectory differs across processes"


MOBILITY_FACTORIES = {
    "mobile": lambda **kw: MobileJammer(Orbit(), radius=0.2, **kw),
    "multi_disk": lambda **kw: MultiDiskJammer([(0.25, 0.25), (0.75, 0.75)], radius=0.15, **kw),
    "reactive_disk": lambda **kw: ReactiveDiskJammer(radius=0.2, **kw),
}


class TestUnboundUse:
    @pytest.mark.parametrize("name", sorted(MOBILITY_FACTORIES))
    def test_plan_without_binding_raises(self, name):
        adversary = MOBILITY_FACTORIES[name]()
        context = inform_context(SimulationConfig(n=8))
        with pytest.raises(ConfigurationError, match="bind_network"):
            adversary.plan_phase(context)

    @pytest.mark.parametrize("name", sorted(MOBILITY_FACTORIES))
    def test_observe_without_binding_raises(self, name):
        adversary = MOBILITY_FACTORIES[name]()
        context = inform_context(SimulationConfig(n=8))
        with pytest.raises(ConfigurationError, match="bind_network"):
            adversary.observe_phase(context)


class TestEmptyDiskIdling:
    def test_disk_outside_deployment_attacks_nothing(self):
        adversary = MobileJammer(
            WaypointPatrol([(5.0, 5.0)], speed=0.0), radius=0.05, max_total_spend=1_000
        )
        outcome = run_broadcast(
            n=32,
            seed=4,
            variant="multihop",
            engine="fast",
            topology="gilbert",
            topology_kwargs={"radius": 0.35},
            adversary=adversary,
        )
        assert outcome.adversary_spend == 0.0
        assert adversary.victims.size == 0
        assert adversary.coverage.size == 0
        assert outcome.delivery_fraction == 1.0

    def test_zero_radius_multi_disk_idles(self):
        adversary = MultiDiskJammer([(2.0, 2.0), (3.0, 3.0)], radius=0.0)
        outcome = run_broadcast(
            n=24,
            seed=4,
            variant="multihop",
            engine="fast",
            topology="gilbert",
            topology_kwargs={"radius": 0.4},
            adversary=adversary,
        )
        assert outcome.adversary_spend == 0.0


#: A disk that holds no device: outside the unit square, and a zero-radius
#: disk at a point no sampled position lands on.
EMPTY_DISKS = [((2.0, 2.0), 0.1), ((0.123456, 0.654321), 0.0)]


def _check_disk_query_is_empty():
    topology = MultiHopBroadcast(
        SimulationConfig(n=32, seed=4, topology=GILBERT), engine="fast"
    ).network.topology
    for center, radius in EMPTY_DISKS:
        ids = topology.nodes_in_disk(center, radius)
        assert ids.dtype == np.int64 and ids.size == 0


def _check_jammer_on_empty_disk_idles(make):
    config = SimulationConfig(n=32, seed=4, topology=GILBERT)
    for center, radius in EMPTY_DISKS:
        adversary = make(center, radius)
        MultiHopBroadcast(config, adversary=adversary, engine="fast")
        context = inform_context(config)
        adversary.observe_phase(context)
        assert adversary.victims.size == 0
        assert adversary.plan_phase(context) == JamPlan.idle()


def _check_only_nobody():
    targeting = JamTargeting.only(())
    assert targeting.nodes.dtype == np.int64 and targeting.nodes.size == 0
    assert targeting.affects_array(np.empty(0, dtype=np.int64)).size == 0
    listeners = np.array([-1, 0, 5], dtype=np.int64)
    assert targeting.affects_array(listeners).tolist() == [False] * 3
    assert targeting.affects(7) is False


def _check_nuniform_target_above_cohort():
    adversary = NUniformSplitAdversary(target_uninformed=100)
    config = SimulationConfig(n=10, seed=1)
    plan = adversary.plan_phase(inform_context(config))
    assert adversary.victims.tolist() == list(range(10))
    assert plan.targeting.mode is JamMode.ONLY
    assert plan.targeting.nodes.tolist() == list(range(10))


EXTREME_VICTIM_SETS = {
    "empty-disk-query": _check_disk_query_is_empty,
    "spatial-empty-disk": lambda: _check_jammer_on_empty_disk_idles(
        lambda center, radius: SpatialJammer(center=center, radius=radius)
    ),
    "mobile-empty-disk": lambda: _check_jammer_on_empty_disk_idles(
        lambda center, radius: MobileJammer(
            WaypointPatrol([center], speed=1.0), radius=radius
        )
    ),
    "multi-disk-empty-disk": lambda: _check_jammer_on_empty_disk_idles(
        lambda center, radius: MultiDiskJammer([center, center], radius=radius)
    ),
    "only-nobody": _check_only_nobody,
    "nuniform-target-above-cohort": _check_nuniform_target_above_cohort,
}


class TestEmptyAndExtremeVictimSets:
    """Victim sets in their array form at the extremes: empty, or larger than
    the cohort.  Each works, with no error and no stray jamming."""

    @pytest.mark.parametrize("case", sorted(EXTREME_VICTIM_SETS))
    def test_array_forms(self, case):
        EXTREME_VICTIM_SETS[case]()


#: Strategies with no ``max_total_spend``, planning over a spatial network.
UNCAPPED_FACTORIES = {
    "blocker": PhaseBlockingAdversary,
    "spatial": lambda: SpatialJammer(center=(0.5, 0.5), radius=0.3),
    **{name: make for name, make in MOBILITY_FACTORIES.items()},
    "nuniform": lambda: NUniformSplitAdversary(target_uninformed=8),
}


class TestInfiniteAllowance:
    """A ``PhaseContext`` left at its default infinite adversary budget caps
    nothing: an uncapped strategy plans exactly as it does under a budget
    too large to bind."""

    @pytest.mark.parametrize("name", sorted(UNCAPPED_FACTORIES))
    def test_default_context_plans_uncapped(self, name):
        config = SimulationConfig(n=32, seed=4, topology=GILBERT)
        context = inform_context(config)
        assert context.adversary_remaining_budget == float("inf")
        plans = []
        for budget in (context.adversary_remaining_budget, 10.0**9):
            adversary = UNCAPPED_FACTORIES[name]()
            MultiHopBroadcast(config, adversary=adversary, engine="fast")
            phase = replace(context, adversary_remaining_budget=budget)
            adversary.observe_phase(phase)
            plans.append(adversary.plan_phase(phase))
        assert plans[0] == plans[1]
        assert plans[0] != JamPlan.idle()


class TestSingleHopDegradation:
    @pytest.mark.parametrize("name", sorted(MOBILITY_FACTORIES))
    def test_disk_over_clique_is_a_phase_blocker(self, name):
        """On single-hop every disk resolves to the whole clique: the plan is
        exactly blanket payload-phase jamming."""

        config = SimulationConfig(n=12, seed=2)
        adversary = MOBILITY_FACTORIES[name](max_total_spend=10_000)
        protocol = EpsilonBroadcast(config, adversary=adversary, engine="fast")
        context = inform_context(config)
        adversary.observe_phase(context)
        plan = adversary.plan_phase(context)
        assert plan.num_jam_slots == context.plan.num_slots
        assert plan.targeting.mode is JamMode.ONLY
        assert plan.targeting.nodes.tolist() == list(range(-1, 12))

    def test_single_hop_run_completes(self):
        outcome = run_broadcast(
            n=24,
            seed=9,
            adversary=MobileJammer(Orbit(), radius=0.2, max_total_spend=500),
        )
        assert outcome.delivery_fraction == 1.0


class TestPerPhaseReResolution:
    def test_moving_disk_accumulates_coverage(self):
        adversary = MobileJammer(
            WaypointPatrol([(0.2, 0.2), (0.8, 0.8)], speed=0.1),
            radius=0.2,
            max_total_spend=5_000,
        )
        run_broadcast(
            n=48,
            seed=7,
            variant="multihop",
            engine="fast",
            topology="gilbert",
            topology_kwargs={"radius": 0.35},
            adversary=adversary,
        )
        assert adversary.phases_observed > 0
        # The union over phases is strictly larger than any single phase's
        # victim set: the disk genuinely moved and was re-resolved.
        assert len(adversary.coverage) > len(adversary.victims)

    def test_multi_disk_victims_are_union_of_disks(self):
        config = SimulationConfig(n=64, seed=3, topology=GILBERT)
        adversary = MultiDiskJammer([(0.2, 0.2), (0.8, 0.8)], radius=0.2)
        protocol = MultiHopBroadcast(config, adversary=adversary, engine="fast")
        adversary.observe_phase(inform_context(config))
        topology = protocol.network.topology
        expected = set(topology.nodes_in_disk((0.2, 0.2), 0.2).tolist()) | set(
            topology.nodes_in_disk((0.8, 0.8), 0.2).tolist()
        )
        assert adversary.victims.tolist() == sorted(expected)

    def test_reactive_disk_chases_the_cluster(self):
        config = SimulationConfig(n=60, seed=5, topology=GILBERT)
        adversary = ReactiveDiskJammer(radius=0.2, start=(0.9, 0.9))
        protocol = MultiHopBroadcast(config, adversary=adversary, engine="fast")
        topology = protocol.network.topology
        # Restrict the active uninformed set to nodes in the lower-left
        # quadrant; the jammer must re-centre onto that cluster.
        cluster = [
            node
            for node in range(60)
            if topology.position(node)[0] < 0.4 and topology.position(node)[1] < 0.4
        ]
        assert len(cluster) >= 3
        context = PhaseContext(
            plan=inform_context(config).plan,
            roles=PhaseRoles(cluster),
            config=config,
        )
        adversary.observe_phase(context)
        x, y = adversary.center
        assert x < 0.6 and y < 0.6
        assert np.intersect1d(adversary.victims, cluster).size

    def test_reactive_speed_caps_movement_per_phase(self):
        config = SimulationConfig(n=60, seed=5, topology=GILBERT)
        adversary = ReactiveDiskJammer(radius=0.2, speed=0.05, start=(0.9, 0.9))
        MultiHopBroadcast(config, adversary=adversary, engine="fast")
        context = inform_context(config, n_active=60)
        previous = adversary.center
        for _ in range(4):
            adversary.observe_phase(context)
            moved = float(np.hypot(adversary.center[0] - previous[0],
                                   adversary.center[1] - previous[1]))
            assert moved <= 0.05 + 1e-9
            previous = adversary.center

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MobileJammer(trajectory="not-a-trajectory")  # type: ignore[arg-type]
        with pytest.raises(ConfigurationError):
            MobileJammer(Orbit(), radius=-0.2)
        with pytest.raises(ConfigurationError):
            MultiDiskJammer([])
        with pytest.raises(ConfigurationError):
            MultiDiskJammer([(0.5, 0.5)], radius=-0.1)
        with pytest.raises(ConfigurationError):
            ReactiveDiskJammer(speed=-0.1)


class TestObservePhaseForwarding:
    def test_composite_forwards_to_unselected_strategies(self):
        config = SimulationConfig(n=32, seed=3, topology=GILBERT)
        mobile = MobileJammer(Orbit(), radius=0.2, max_total_spend=100.0)
        blocker = PhaseBlockingAdversary(max_total_spend=10_000)
        composite = CompositeAdversary([blocker, mobile])
        MultiHopBroadcast(config, adversary=composite, engine="fast").run()
        # The blocker's plan wins every phase, yet the mobile jammer's clock
        # still advanced through the forwarded hook.
        assert mobile.phases_observed > 0

    def test_round_switching_keeps_late_strategy_moving(self):
        config = SimulationConfig(n=32, seed=3, topology=GILBERT)
        late = MobileJammer(Orbit(angular_speed=0.5), radius=0.2, max_total_spend=100.0)
        switcher = RoundSwitchingAdversary(early=NullAdversary(), late=late, switch_round=3)
        MultiHopBroadcast(config, adversary=switcher, engine="fast").run()
        assert late.phases_observed > 0

    def test_baseline_orchestrators_forward_the_hook(self):
        config = SimulationConfig(n=32, seed=3, topology=GILBERT)
        adversary = MobileJammer(Orbit(), radius=0.2, max_total_spend=200.0)
        NaiveBroadcast(config, adversary=adversary, engine="fast").run()
        assert adversary.phases_observed > 0


class TestMaxQuietRetries:
    """The uniform retry cap, ``quiet_rule=ConstantQuietRule(retries=R)``."""

    FRAGMENTED = dict(
        n=96,
        seed=11,
        variant="multihop",
        engine="fast",
        topology="gilbert",
        topology_kwargs={"radius": 0.06},
    )

    def test_validation(self):
        config = SimulationConfig(n=16, seed=1, topology=GILBERT)
        with pytest.raises(ConfigurationError):
            MultiHopBroadcast(config, quiet_rule=ConstantQuietRule(retries=0))
        with pytest.raises(ConfigurationError):
            MultiHopBroadcast(config, quiet_rule="no-such-rule")

    def test_unreached_cap_is_bit_identical_to_paper_rule(self):
        """The cap only *adds* a termination rule to the paper's quiet test;
        a never-reached cap must not perturb anything (same rng draws, same
        outcomes)."""

        paper = run_broadcast(**self.FRAGMENTED, quiet_rule="paper")
        capped = run_broadcast(**self.FRAGMENTED, quiet_rule=ConstantQuietRule(retries=99))
        assert capped.delivery.slots_elapsed == paper.delivery.slots_elapsed
        assert capped.delivery.informed == paper.delivery.informed
        assert capped.mean_node_cost == paper.mean_node_cost
        assert capped.alice_cost == paper.alice_cost

    def test_cap_stops_alice_less_components_early(self):
        """The E11 sub-threshold cost blowup: under the paper rule Alice-less
        components hear each other's nacks forever; the retry cap ends them
        orders of magnitude sooner without changing what is deliverable."""

        uncapped = run_broadcast(**self.FRAGMENTED, quiet_rule="paper")
        capped = run_broadcast(**self.FRAGMENTED, quiet_rule=ConstantQuietRule(retries=4))
        assert capped.mean_node_cost < 0.1 * uncapped.mean_node_cost
        assert capped.delivery.slots_elapsed < uncapped.delivery.slots_elapsed
        # Delivery is bounded by Alice's component either way.
        assert capped.delivery.informed <= uncapped.delivery.informed + 1

    def test_single_hop_ignores_the_cap(self):
        base = run_broadcast(n=48, seed=21, variant="multihop")
        capped = run_broadcast(
            n=48, seed=21, variant="multihop", quiet_rule=ConstantQuietRule(retries=1)
        )
        assert capped.delivery.slots_elapsed == base.delivery.slots_elapsed
        assert capped.delivery_fraction == base.delivery_fraction == 1.0
