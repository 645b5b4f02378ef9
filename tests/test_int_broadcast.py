"""Integration tests: full ε-Broadcast executions under various adversaries."""

from __future__ import annotations

import pytest

from repro import EpsilonBroadcast, SimulationConfig, run_broadcast
from repro.adversary import (
    ContinuousJammer,
    NUniformSplitAdversary,
    PhaseBlockingAdversary,
    RequestSpoofingAdversary,
)
from repro.analysis.bounds import latency_bound
from repro.simulation import ConfigurationError, PhaseKind


class TestNoAdversaryRuns:
    def test_everyone_informed_and_terminated(self):
        outcome = run_broadcast(n=128, seed=3, adversary="none")
        assert outcome.delivery_fraction == 1.0
        assert outcome.delivery.all_terminated
        assert outcome.delivery.alice_terminated
        assert not outcome.terminated_by_cap

    def test_costs_are_modest_without_jamming(self):
        outcome = run_broadcast(n=128, seed=3, adversary="none")
        # Lemma 9: polylog costs; at this scale that means a few units per
        # node and a few thousand for Alice (she runs until her termination
        # round regardless).
        assert outcome.mean_node_cost < 50
        assert outcome.alice_cost < 5000
        assert outcome.adversary_spend == 0

    def test_unjammed_latency_far_below_jammed_latency(self):
        clean = run_broadcast(n=128, seed=3, adversary="none")
        jammed = run_broadcast(n=128, seed=3, adversary=ContinuousJammer())
        # Without jamming the run ends at the fixed warm-up round; under a
        # full-budget jammer it stretches to Θ(n^{1+1/k}) slots.
        assert clean.slots_elapsed * 4 < jammed.slots_elapsed
        assert jammed.slots_elapsed < 100 * latency_bound(clean.config.n, clean.config.k)

    def test_slot_engine_matches_semantics(self):
        outcome = run_broadcast(n=48, seed=3, adversary="none", engine="slot")
        assert outcome.delivery_fraction == 1.0
        assert outcome.delivery.alice_terminated

    def test_event_log_attached_and_consistent(self):
        outcome = run_broadcast(n=64, seed=4, adversary="none")
        assert outcome.events is not None
        assert sum(e.data["num_slots"] for e in outcome.events) == outcome.slots_elapsed
        names = {e.phase for e in outcome.events}
        assert {"inform", "propagation:1", "request"} <= names


class TestBlockedRuns:
    def test_blocking_delays_but_does_not_defeat_delivery(self):
        clean = run_broadcast(n=128, seed=5, adversary="none")
        blocked = run_broadcast(
            n=128,
            seed=5,
            adversary=PhaseBlockingAdversary(max_total_spend=20_000),
        )
        assert blocked.delivery_fraction == 1.0
        assert blocked.slots_elapsed > clean.slots_elapsed
        assert blocked.adversary_spend > 0

    def test_more_jamming_costs_carol_more_than_nodes(self):
        outcome = run_broadcast(
            n=256,
            seed=6,
            adversary=PhaseBlockingAdversary(max_total_spend=40_000),
        )
        assert outcome.adversary_spend > outcome.mean_node_cost
        assert outcome.adversary_spend > outcome.alice_cost

    def test_full_budget_jammer_cannot_prevent_delivery(self):
        outcome = run_broadcast(n=128, seed=7, adversary=ContinuousJammer())
        assert outcome.delivery_fraction >= 1.0 - outcome.config.epsilon
        assert not outcome.terminated_by_cap

    def test_node_costs_grow_with_adversary_spend(self):
        costs = []
        for cap in (2_000, 60_000):
            outcome = run_broadcast(
                n=256, seed=8, adversary=PhaseBlockingAdversary(max_total_spend=cap)
            )
            costs.append(outcome.mean_node_cost)
        assert costs[1] > costs[0]

    def test_sublinear_response_to_spend(self):
        small = run_broadcast(n=256, seed=9, adversary=PhaseBlockingAdversary(max_total_spend=8_000))
        large = run_broadcast(n=256, seed=9, adversary=PhaseBlockingAdversary(max_total_spend=64_000))
        spend_ratio = large.adversary_spend / small.adversary_spend
        cost_ratio = large.mean_node_cost / small.mean_node_cost
        # Theorem 1: node cost grows like T^(1/3), so an 8x spend increase
        # should much less than 8x the node cost (allowing generous slack for
        # finite-n constants).
        assert spend_ratio > 4
        assert cost_ratio < spend_ratio * 0.75


class TestSplitAttacks:
    def test_split_leaves_target_uninformed_but_costs_full_budget(self):
        n = 256
        target = 20
        outcome = run_broadcast(
            n=n, seed=10, adversary=NUniformSplitAdversary(target_uninformed=target)
        )
        assert outcome.delivery.terminated_uninformed == target
        assert outcome.delivery.informed == n - target
        # The stranding attack consumes essentially the whole aggregate budget.
        assert outcome.adversary_spend > 0.8 * outcome.config.adversary_total_budget

    def test_quorum_survives_split(self):
        n = 256
        outcome = run_broadcast(
            n=n, seed=11, adversary=NUniformSplitAdversary(target_uninformed=n // 10)
        )
        assert outcome.delivery.informed > n // 2


class TestSpoofingAttacks:
    def test_spoofer_delays_alice_but_not_delivery(self):
        clean = run_broadcast(n=128, seed=12, adversary="none")
        spoofed = run_broadcast(
            n=128, seed=12, adversary=RequestSpoofingAdversary(max_total_spend=30_000)
        )
        assert spoofed.delivery_fraction == 1.0
        assert spoofed.extra["alice_terminated_round"] >= clean.extra["alice_terminated_round"]
        assert spoofed.alice_cost >= clean.alice_cost

    def test_spoofer_cannot_cause_premature_termination(self):
        outcome = run_broadcast(
            n=128, seed=13, adversary=RequestSpoofingAdversary(max_total_spend=30_000)
        )
        # Silence cannot be forged, so spoofing never strands anyone.
        assert outcome.delivery.terminated_uninformed == 0


class TestOrchestratorConfiguration:
    def test_unknown_engine_rejected(self):
        config = SimulationConfig(n=64)
        with pytest.raises(Exception):
            EpsilonBroadcast(config, engine="warp-drive")

    @pytest.mark.parametrize("engine", ["fast", "slot"])
    def test_engine_names_accepted(self, engine):
        outcome = run_broadcast(64, seed=3, engine=engine)
        assert outcome.delivery.all_terminated

    @pytest.mark.parametrize("engine", ["phase", "FAST", "", "vectorised"])
    def test_unknown_engine_name_rejected(self, engine):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            run_broadcast(64, engine=engine)

    def test_engine_instance_rejected(self):
        # Engines are chosen by name only; each run builds its own.
        config = SimulationConfig(n=64)
        built = EpsilonBroadcast(config).engine
        with pytest.raises(ConfigurationError, match="unknown engine"):
            EpsilonBroadcast(config, engine=built)

    def test_round_cap_forces_termination(self):
        # A jammer with a huge budget blocks every round up to the cap.
        config = SimulationConfig(n=64, seed=1, budget_constant=1e3)
        protocol = EpsilonBroadcast(config, adversary=ContinuousJammer())
        outcome = protocol.run()
        assert outcome.terminated_by_cap
        assert outcome.delivery.rounds_executed == protocol.schedule.rounds[-1] == 10
        assert outcome.delivery.informed == 0
        assert outcome.delivery.all_terminated

    def test_phase_records_track_adversary_spend(self):
        adversary = PhaseBlockingAdversary(max_total_spend=10_000)
        outcome = run_broadcast(n=128, seed=14, adversary=adversary)
        spent_in_log = sum(e.data["adversary_spend"] for e in outcome.events)
        assert spent_in_log == pytest.approx(outcome.adversary_spend)
        inform_records = [e for e in outcome.events if e.phase == "inform"]
        assert any(e.data["jammed_slots"] > 0 for e in inform_records)
        request_records = [e for e in outcome.events if e.phase == "request"]
        assert all(e.data["jammed_slots"] == 0 for e in request_records)
