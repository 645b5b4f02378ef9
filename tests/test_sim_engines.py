"""Unit tests for the slot-faithful and vectorised phase engines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation import (
    ALICE_ID,
    JamPlan,
    JamTargeting,
    Network,
    PhaseEngine,
    PhaseKind,
    PhasePlan,
    PhaseRoles,
    SimulationConfig,
    SlotEngine,
    TopologySpec,
)
from repro.simulation.energy import EnergyOperation, LedgerArray


def inform_plan(num_slots=200, alice=0.5, listen=0.5, round_index=3):
    return PhasePlan(
        name="inform",
        kind=PhaseKind.INFORM,
        round_index=round_index,
        num_slots=num_slots,
        alice_send_prob=alice,
        uninformed_listen_prob=listen,
    )


def request_plan(num_slots=200, nack=0.05, listen=0.5, alice_listen=0.5, round_index=3):
    return PhasePlan(
        name="request",
        kind=PhaseKind.REQUEST,
        round_index=round_index,
        num_slots=num_slots,
        nack_send_prob=nack,
        uninformed_listen_prob=listen,
        alice_listen_prob=alice_listen,
    )


def propagation_plan(num_slots=200, relay=0.1, listen=0.5, round_index=3):
    return PhasePlan(
        name="propagation:1",
        kind=PhaseKind.PROPAGATION,
        round_index=round_index,
        num_slots=num_slots,
        step=1,
        relay_send_prob=relay,
        uninformed_listen_prob=listen,
    )


@pytest.fixture(params=["slot", "fast"])
def engine_factory(request):
    def factory(network):
        return SlotEngine(network) if request.param == "slot" else PhaseEngine(network)

    return factory


def make_network(n=32, seed=5, f=1.0):
    return Network(SimulationConfig(n=n, f=f, seed=seed))


class TestEngineBasics:
    def test_empty_phase_is_noop(self, engine_factory):
        network = make_network()
        engine = engine_factory(network)
        plan = inform_plan(num_slots=0)
        result = engine.run_phase(plan, PhaseRoles(range(network.n)), JamPlan.idle())
        assert result.newly_informed.size == 0
        assert network.alice_cost == 0
        assert result.path == "empty"

    @pytest.mark.parametrize("multihop", [False, True])
    def test_result_names_its_engine_path(self, engine_factory, multihop):
        topology = TopologySpec.gilbert(radius=0.4) if multihop else None
        network = Network(SimulationConfig(n=32, seed=5, topology=topology))
        engine = engine_factory(network)
        roles = PhaseRoles(range(network.n))
        assert engine.run_phase(inform_plan(num_slots=0), roles, JamPlan.idle()).path == "empty"
        result = engine.run_phase(inform_plan(num_slots=50), roles, JamPlan.idle())
        if isinstance(engine, SlotEngine):
            assert result.path == "slot"
        else:
            assert result.path == ("multihop-sparse" if multihop else "single-hop")
        assert result.jam_victims == 0
        jam = JamPlan(num_jam_slots=10, targeting=JamTargeting.everyone())
        jammed = engine.run_phase(inform_plan(num_slots=50), roles, jam)
        # The slot engine does not count victims; the fast paths count every
        # active listener the targeting covers.
        assert jammed.jam_victims == (0 if isinstance(engine, SlotEngine) else network.n)

    def test_unjammed_inform_phase_informs_everyone(self, engine_factory):
        network = make_network()
        engine = engine_factory(network)
        plan = inform_plan(num_slots=300, alice=0.5, listen=0.8)
        result = engine.run_phase(plan, PhaseRoles(range(network.n)), JamPlan.idle())
        # With ~150 solo transmissions and listen probability 0.8 every node
        # catches at least one copy with overwhelming probability.
        assert result.newly_informed.size == network.n

    def test_costs_are_charged(self, engine_factory):
        network = make_network()
        engine = engine_factory(network)
        plan = inform_plan(num_slots=400, alice=0.5, listen=0.5)
        engine.run_phase(plan, PhaseRoles(range(network.n)), JamPlan.idle())
        assert network.alice_cost > 0
        assert network.node_costs().sum() > 0
        # Alice's sends concentrate around 200 = 400 * 0.5.
        assert 100 <= network.alice_cost <= 300

    def test_full_jamming_blocks_all_delivery(self, engine_factory):
        network = make_network()
        engine = engine_factory(network)
        plan = inform_plan(num_slots=300)
        jam = JamPlan(num_jam_slots=300, targeting=JamTargeting.everyone())
        result = engine.run_phase(plan, PhaseRoles(range(network.n)), jam)
        assert result.newly_informed.size == 0
        assert result.jammed_slots == 300
        assert network.adversary_cost == 300

    def test_n_uniform_jamming_spares_chosen_nodes(self, engine_factory):
        network = make_network()
        engine = engine_factory(network)
        spared = frozenset(range(8))
        victims = [ALICE_ID, *range(8, network.n)]
        plan = inform_plan(num_slots=300, alice=0.5, listen=0.8)
        jam = JamPlan(num_jam_slots=300, targeting=JamTargeting.only(victims))
        result = engine.run_phase(plan, PhaseRoles(range(network.n)), jam)
        assert result.newly_informed.tolist() == sorted(spared)

    def test_alice_inactive_means_no_delivery(self, engine_factory):
        network = make_network()
        engine = engine_factory(network)
        plan = inform_plan(num_slots=200)
        roles = PhaseRoles(range(network.n), alice_active=False)
        result = engine.run_phase(plan, roles, JamPlan.idle())
        assert result.newly_informed.size == 0
        assert network.alice_cost == 0

    def test_adversary_budget_caps_jamming(self, engine_factory):
        config = SimulationConfig(n=32, f=0.0, budget_constant=1.0, seed=5)
        network = Network(config)
        budget = network.adversary_ledger.budget
        engine = engine_factory(network)
        plan = inform_plan(num_slots=int(budget) + 500)
        jam = JamPlan(num_jam_slots=plan.num_slots, targeting=JamTargeting.everyone())
        result = engine.run_phase(plan, PhaseRoles(range(network.n)), jam)
        assert result.jammed_slots <= budget
        assert network.adversary_cost <= budget

    def test_propagation_phase_spreads_message(self, engine_factory):
        network = make_network()
        engine = engine_factory(network)
        relays = frozenset(range(8))
        uninformed = frozenset(range(8, network.n))
        plan = propagation_plan(num_slots=400, relay=0.2, listen=0.8)
        result = engine.run_phase(plan, PhaseRoles(uninformed, relays=relays), JamPlan.idle())
        assert result.newly_informed.size > len(uninformed) * 0.8
        assert set(result.newly_informed.tolist()) <= uninformed

    def test_request_phase_counts_noise_for_alice_and_nodes(self, engine_factory):
        network = make_network()
        engine = engine_factory(network)
        plan = request_plan(num_slots=400, nack=0.2, listen=0.5, alice_listen=0.5)
        result = engine.run_phase(plan, PhaseRoles(range(network.n)), JamPlan.idle())
        assert result.alice_noisy_heard > 0
        assert result.alice_listen_slots >= result.alice_noisy_heard
        assert result.node_noisy_heard.sum() > 0

    def test_request_phase_silent_when_nobody_nacks(self, engine_factory):
        network = make_network()
        engine = engine_factory(network)
        plan = request_plan(num_slots=300, nack=0.0, listen=0.5, alice_listen=0.5)
        result = engine.run_phase(plan, PhaseRoles([], alice_active=True), JamPlan.idle())
        assert result.alice_noisy_heard == 0

    def test_spoofed_nacks_make_noise_for_alice(self, engine_factory):
        network = make_network()
        engine = engine_factory(network)
        plan = request_plan(num_slots=300, nack=0.0, listen=0.0, alice_listen=1.0)
        jam = JamPlan(spoof_nack_slots=150, targeting=JamTargeting.none())
        result = engine.run_phase(plan, PhaseRoles([], alice_active=True), jam)
        assert result.spoofed_transmissions == 150
        assert result.alice_noisy_heard == pytest.approx(150, abs=0)
        assert network.adversary_cost == 150

    def test_spoofed_payloads_do_not_inform_anyone(self, engine_factory):
        network = make_network()
        engine = engine_factory(network)
        plan = inform_plan(num_slots=300, alice=0.0, listen=1.0)
        jam = JamPlan(spoof_payload_slots=200, targeting=JamTargeting.none())
        result = engine.run_phase(plan, PhaseRoles(range(network.n)), jam)
        assert result.newly_informed.size == 0
        assert result.spoofed_transmissions == 200

    def test_reactive_jamming_suppresses_delivery_cheaply(self, engine_factory):
        network = make_network()
        engine = engine_factory(network)
        plan = inform_plan(num_slots=300, alice=0.3, listen=0.8)
        jam = JamPlan(num_jam_slots=10_000, reactive=True, targeting=JamTargeting.everyone())
        result = engine.run_phase(plan, PhaseRoles(range(network.n)), jam)
        assert result.newly_informed.size == 0
        # A reactive jammer only pays for slots that actually carried traffic.
        assert network.adversary_cost == result.jammed_slots
        assert result.jammed_slots < 300

    def test_decoy_traffic_costs_energy_and_confuses_reactive_jammers(self, engine_factory):
        network = make_network()
        engine = engine_factory(network)
        plan = PhasePlan(
            name="inform",
            kind=PhaseKind.INFORM,
            round_index=3,
            num_slots=300,
            alice_send_prob=0.3,
            uninformed_listen_prob=0.8,
            decoy_send_prob=0.05,
        )
        roles = PhaseRoles(range(network.n), decoy_senders=range(network.n))
        jam = JamPlan(num_jam_slots=60, reactive=True, targeting=JamTargeting.everyone())
        result = engine.run_phase(plan, roles, jam)
        # With decoys a large share of slots are busy (the share falls over the
        # phase as informed nodes stop sending decoys in the slot engine), so
        # 60 reactive jams cannot cover Alice's ~90 transmissions and some
        # nodes still learn m.
        assert result.newly_informed.size > 0
        assert result.busy_slots > 100


class TestSlotEngineFrames:
    def test_message_signature_verifies(self, small_config):
        engine = SlotEngine(Network(small_config))
        from repro.simulation import make_payload

        frame = make_payload(ALICE_ID, engine.message_payload, engine.message_signature)
        assert engine.authenticator.verify(frame)


class TestResultBookkeeping:
    def test_delivery_and_busy_slot_counters(self, engine_factory):
        network = make_network()
        engine = engine_factory(network)
        plan = inform_plan(num_slots=200, alice=0.5, listen=0.5)
        result = engine.run_phase(plan, PhaseRoles(range(network.n)), JamPlan.idle())
        assert 0 < result.delivery_slots <= result.busy_slots <= 200
        assert result.alice_send_slots == pytest.approx(100, abs=40)

    def test_jammed_slots_count_the_jam(self, engine_factory):
        network = make_network()
        engine = engine_factory(network)
        plan = inform_plan(num_slots=100)
        jam = JamPlan(num_jam_slots=50, targeting=JamTargeting.everyone())
        result = engine.run_phase(plan, PhaseRoles(range(network.n)), jam)
        assert result.jammed_slots == 50


class TestDeterministicResultOrdering:
    """Pinned regression for the sorted ``node_noisy`` cohort iteration.

    ``PhaseResult.noisy_listeners`` orders the per-listener counts, and that
    order leaks into every trace or record that serialises them.  The slot
    engine once seeded its counts from the raw uninformed *set*, so the
    order tracked hash-table layout: ``{1, 8}`` iterates ``[8, 1]``.
    """

    def test_node_noisy_heard_keys_follow_sorted_cohort(self, engine_factory):
        network = make_network(n=16, seed=9)
        engine = engine_factory(network)
        cohort = {1, 8}
        # Precondition: raw set order genuinely differs from sorted order.
        assert list(cohort) != sorted(cohort)
        plan = request_plan(num_slots=50)
        result = engine.run_phase(plan, PhaseRoles(cohort), JamPlan.idle())
        assert result.noisy_listeners.tolist() == sorted(cohort)

    def test_result_arrays_are_aligned_int64(self, engine_factory):
        network = make_network()
        engine = engine_factory(network)
        plan = request_plan(num_slots=200, nack=0.1, listen=0.5)
        result = engine.run_phase(plan, PhaseRoles(range(5, 20)), JamPlan.idle())
        assert result.noisy_listeners.tolist() == list(range(5, 20))
        assert result.noisy_listeners.dtype == np.int64
        assert result.node_noisy_heard.dtype == np.int64
        assert result.node_noisy_heard.shape == result.noisy_listeners.shape
        assert result.newly_informed.dtype == np.int64


def ledger_readings(network):
    """Everything the network's ledgers report, per node and per operation."""

    ledgers = network.node_ledgers
    return (
        ledgers.spent_array().tolist(),
        [ledgers.spent_on_array(operation).tolist() for operation in EnergyOperation],
        ledgers.total_spent,
        [ledger_reading(network.alice_ledger), ledger_reading(network.adversary_ledger)],
    )


def ledger_reading(ledger):
    """One scalar ledger's total and per-operation spend."""

    return ledger.spent, [ledger.spent_on(operation) for operation in EnergyOperation]


def mixed_plan(num_slots=300):
    """An engine-API request phase that also carries payload and decoys, so
    informed listeners' windows, nacks and jams all meet in one phase."""

    return PhasePlan(
        name="request",
        kind=PhaseKind.REQUEST,
        round_index=3,
        num_slots=num_slots,
        alice_send_prob=0.05,
        alice_listen_prob=0.4,
        relay_send_prob=0.02,
        uninformed_listen_prob=0.4,
        nack_send_prob=0.02,
        decoy_send_prob=0.01,
    )


class TestUniformTargetingShortcuts:
    """Targeting everyone or no one skips the per-node victim mask; the
    shortcut must give exactly what the mask gives."""

    JAMS = [
        dict(num_jam_slots=60),
        dict(num_jam_slots=40, spoof_payload_slots=8, spoof_nack_slots=8),
        dict(num_jam_slots=30, reactive=True),
        dict(slot_indices=tuple(range(0, 300, 7)), spoof_nack_slots=4),
    ]

    @pytest.mark.parametrize("multihop", [False, True])
    @pytest.mark.parametrize(
        "make_plan",
        [
            lambda: inform_plan(num_slots=300, alice=0.05, listen=0.3),
            lambda: request_plan(num_slots=300, nack=0.02, listen=0.4),
            lambda: propagation_plan(num_slots=300, relay=0.02, listen=0.3),
            mixed_plan,
        ],
    )
    @pytest.mark.parametrize("jam", JAMS)
    def test_everyone_equals_only_every_device(self, multihop, make_plan, jam):
        topology = TopologySpec.gilbert(radius=0.35) if multihop else None
        outcomes = []
        # everyone() jams Alice too, so the ONLY set must name her.
        every_device = JamTargeting.only([ALICE_ID, *range(48)])
        for targeting in (JamTargeting.everyone(), every_device):
            network = Network(SimulationConfig(n=48, seed=21, topology=topology))
            engine = PhaseEngine(network)
            roles = PhaseRoles(
                active_uninformed=range(0, 48, 2),
                relays=range(1, 48, 6),
                decoy_senders=range(0, 48, 4),
            )
            results = [
                engine.run_phase(make_plan(), roles, JamPlan(targeting=targeting, **jam))
                for _ in range(3)
            ]
            outcomes.append((results, ledger_readings(network)))
        assert outcomes[0] == outcomes[1]  # PhaseResult compares its arrays by value
        # The phases did something worth comparing.
        assert any(result.jammed_slots for result in outcomes[0][0])

    @pytest.mark.parametrize("multihop", [False, True])
    def test_all_zero_phase_charges_no_node(self, multihop, monkeypatch):
        topology = TopologySpec.gilbert(radius=0.35) if multihop else None
        network = Network(SimulationConfig(n=32, seed=3, topology=topology))
        engine = PhaseEngine(network)
        calls = []
        original = LedgerArray.charge_bulk_many

        def counting(self, *args, **kwargs):
            calls.append(args[0])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(LedgerArray, "charge_bulk_many", counting)
        roles = PhaseRoles(
            active_uninformed=range(0, 32, 2), relays=range(1, 32, 2), decoy_senders=range(32)
        )
        for kind in PhaseKind:
            plan = PhasePlan(name=kind.value, kind=kind, round_index=2, num_slots=500)
            engine.run_phase(plan, roles, JamPlan.idle())
        assert calls == []
        assert network.node_ledgers.total_spent == 0.0
        # The same cohort with one non-zero probability is charged.
        engine.run_phase(request_plan(num_slots=500, nack=0.05, listen=0.0), roles, JamPlan.idle())
        assert calls == [EnergyOperation.SEND]
