"""Behavioural tests for the multi-hop relay layer and spatial jamming."""

from __future__ import annotations

import pytest

from repro import run_broadcast
from repro.adversary import SpatialJammer
from repro.core.broadcast import MultiHopBroadcast
from repro.simulation import SimulationConfig, TopologySpec
from repro.simulation.errors import ConfigurationError


class TestMultiHopBroadcast:
    def test_delivery_limited_to_alice_component(self):
        """No radio path, no message: delivery never exceeds reachability."""

        config = SimulationConfig(n=64, seed=9, topology=TopologySpec.gilbert(radius=0.12))
        protocol = MultiHopBroadcast(config, engine="fast")
        reachable = len(protocol.network.topology.reachable_from_alice())
        outcome = protocol.run()
        assert outcome.delivery.informed <= reachable

    @pytest.mark.parametrize("engine", ["fast", "slot"])
    def test_connected_gilbert_reaches_everyone(self, engine):
        outcome = run_broadcast(
            n=48,
            seed=5,
            variant="multihop",
            engine=engine,
            topology="gilbert",
            topology_kwargs={"radius": 0.4},
        )
        assert outcome.delivery_fraction == 1.0
        assert not outcome.terminated_by_cap

    def test_multihop_beats_single_hop_protocol_on_spatial_graph(self):
        """The relay layer is what carries the message beyond Alice's range."""

        spec = TopologySpec.gilbert(radius=0.25)
        kwargs = dict(n=64, seed=13, engine="fast", config=SimulationConfig(n=64, seed=13, topology=spec))
        base = run_broadcast(variant="epsilon-broadcast", **kwargs)
        multi = run_broadcast(variant="multihop", **kwargs)
        assert multi.delivery.informed > base.delivery.informed

    def test_run_broadcast_topology_string_shortcut(self):
        outcome = run_broadcast(
            n=32,
            seed=2,
            variant="multihop",
            topology="scale_free",
            topology_kwargs={"alpha": 2.0},
        )
        assert outcome.config.topology.kind == "scale_free"
        assert outcome.config.topology.alpha == 2.0


class TestSpatialJammer:
    def test_requires_binding(self):
        from repro.simulation.phaseplan import PhaseContext, PhaseKind, PhasePlan, PhaseRoles

        jammer = SpatialJammer()
        context = PhaseContext(
            plan=PhasePlan(name="inform", kind=PhaseKind.INFORM, round_index=1, num_slots=4,
                           alice_send_prob=0.5),
            roles=PhaseRoles(range(4)),
            config=SimulationConfig(n=4),
        )
        with pytest.raises(ConfigurationError, match="bind_network"):
            jammer.plan_phase(context)

    def test_binds_to_disk_victims(self):
        config = SimulationConfig(n=64, seed=3, topology=TopologySpec.gilbert(radius=0.3))
        jammer = SpatialJammer(center=(0.5, 0.5), radius=0.2)
        protocol = MultiHopBroadcast(config, adversary=jammer, engine="fast")
        expected = protocol.network.topology.nodes_in_disk((0.5, 0.5), 0.2)
        assert jammer.victims.tolist() == expected.tolist()
        assert jammer.victims[0] == -1  # Alice sits at the default centre

    def test_spatial_jam_costs_carol_without_stranding_forever(self):
        outcome = run_broadcast(
            n=48,
            seed=7,
            variant="multihop",
            engine="fast",
            topology="gilbert",
            topology_kwargs={"radius": 0.35},
            adversary="spatial",
            adversary_kwargs={"center": (0.3, 0.3), "radius": 0.2, "max_total_spend": 2_000.0},
        )
        assert outcome.adversary_spend == pytest.approx(2_000.0, abs=200)
        assert outcome.delivery_fraction == 1.0

    def test_negative_radius_rejected(self):
        with pytest.raises(ConfigurationError):
            SpatialJammer(radius=-0.1)

    def test_composite_adversaries_forward_binding(self):
        """A SpatialJammer nested in a composite must still get the topology."""

        from repro.adversary import CompositeAdversary, RoundSwitchingAdversary, NullAdversary

        config = SimulationConfig(n=32, seed=3, topology=TopologySpec.gilbert(radius=0.3))
        inner = SpatialJammer(center=(0.5, 0.5), radius=0.2, max_total_spend=100.0)
        MultiHopBroadcast(config, adversary=CompositeAdversary([inner]), engine="fast").run()
        assert inner.victims.size

        late = SpatialJammer(center=(0.5, 0.5), radius=0.2, max_total_spend=100.0)
        switcher = RoundSwitchingAdversary(early=NullAdversary(), late=late, switch_round=1)
        MultiHopBroadcast(config, adversary=switcher, engine="fast").run()
        assert late.victims.size

    def test_baseline_orchestrators_bind_spatial_jammer(self):
        """Every orchestrator family that owns a Network must bind the adversary."""

        from repro.baselines import NaiveBroadcast

        config = SimulationConfig(n=32, seed=3, topology=TopologySpec.gilbert(radius=0.3))
        jammer = SpatialJammer(center=(0.5, 0.5), radius=0.2, max_total_spend=200.0)
        protocol = NaiveBroadcast(config, adversary=jammer, engine="fast")
        assert jammer.victims.size  # bound at construction, before the first phase
        outcome = protocol.run()
        assert outcome.adversary_spend <= 200.0
