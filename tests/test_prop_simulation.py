"""Property-based tests (hypothesis) for the simulation substrate invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import (
    Channel,
    EnergyLedger,
    EnergyOperation,
    BudgetPolicy,
    JamPlan,
    JamTargeting,
    LedgerArray,
    RandomSource,
    SimulationConfig,
    clip_probability,
    make_nack,
    make_payload,
)
from repro.simulation.jamming import materialize_jam_slots, materialize_spoof_slots


class TestEnergyLedgerProperties:
    @given(
        charges=st.lists(st.floats(min_value=0, max_value=50, allow_nan=False), max_size=30),
        budget=st.floats(min_value=0, max_value=500, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_cap_policy_never_exceeds_budget(self, charges, budget):
        ledger = EnergyLedger(owner="x", budget=budget, policy=BudgetPolicy.CAP)
        for units in charges:
            ledger.charge_bulk(EnergyOperation.JAM, units)
        assert ledger.spent <= budget + 1e-9
        assert ledger.remaining >= -1e-9

    @given(charges=st.lists(st.floats(min_value=0, max_value=50, allow_nan=False), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_record_policy_spent_equals_sum(self, charges):
        ledger = EnergyLedger(owner="x", budget=10, policy=BudgetPolicy.RECORD)
        for units in charges:
            ledger.charge_bulk(EnergyOperation.LISTEN, units)
        assert ledger.spent == pytest.approx(math.fsum(charges))
        assert ledger.spent_on(EnergyOperation.LISTEN) == pytest.approx(math.fsum(charges))


def _cohort(kind: str, count: int, data) -> np.ndarray:
    """Rows of one ``kind`` of cohort over ``count >= 3`` ledger rows."""

    if kind == "full":
        return np.arange(count, dtype=np.int64)
    if kind == "single":
        return np.array([data.draw(st.integers(0, count - 1))], dtype=np.int64)
    if kind == "contiguous":
        first = data.draw(st.integers(0, count - 1))
        last = data.draw(st.integers(first, count - 1))
        return np.arange(first, last + 1, dtype=np.int64)
    if kind == "gapped":
        # Increasing, but at least one row between its ends is missing.
        first = data.draw(st.integers(0, count - 3))
        last = data.draw(st.integers(first + 2, count - 1))
        gap = data.draw(st.integers(first + 1, last - 1))
        inner = data.draw(st.sets(st.integers(first + 1, last - 1)))
        return np.array(sorted({first, last} | (inner - {gap})), dtype=np.int64)
    rows = data.draw(st.sets(st.integers(0, count - 1), min_size=1))
    return np.array(data.draw(st.permutations(sorted(rows))), dtype=np.int64)


class TestLedgerArrayProperties:
    """``charge_bulk_many`` makes the same additions whatever the cohort's shape:
    a gapless increasing cohort goes through a slice, any other through
    indexed updates, and both must equal an ``np.add.at`` reference."""

    @given(
        count=st.integers(min_value=3, max_value=40),
        charges=st.lists(
            st.tuples(
                st.sampled_from(["contiguous", "full", "single", "gapped", "unordered"]),
                st.sampled_from([EnergyOperation.LISTEN, EnergyOperation.SEND]),
            ),
            min_size=1,
            max_size=6,
        ),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_charge_bulk_many_matches_add_at(self, count, charges, data):
        ledger = LedgerArray("node", count, 3.0)  # budgets are recorded, never enforced
        spent = np.zeros(count)
        by_op = {op: np.zeros(count) for op in EnergyOperation}
        for kind, operation in charges:
            rows = _cohort(kind, count, data)
            units = np.array(
                data.draw(st.lists(st.integers(0, 9), min_size=rows.size, max_size=rows.size)),
                dtype=float,
            )
            charged = ledger.charge_bulk_many(operation, rows, units)
            np.testing.assert_array_equal(charged, units)
            np.add.at(spent, rows, units)
            np.add.at(by_op[operation], rows, units)
        np.testing.assert_array_equal(ledger.spent_array(), spent)
        for operation in EnergyOperation:
            np.testing.assert_array_equal(ledger.spent_on_array(operation), by_op[operation])
        assert ledger.total_spent == spent.sum()


class TestChannelProperties:
    @given(
        num_payloads=st.integers(min_value=0, max_value=5),
        num_nacks=st.integers(min_value=0, max_value=5),
        listeners=st.sets(st.integers(min_value=0, max_value=30), max_size=10),
        jam_mode=st.sampled_from(["none", "all", "only", "except"]),
        jam_nodes=st.sets(st.integers(min_value=0, max_value=30), max_size=5),
    )
    @settings(max_examples=120, deadline=None)
    def test_channel_invariants(self, num_payloads, num_nacks, listeners, jam_mode, jam_nodes):
        channel = Channel()
        transmissions = [make_payload(-1, "m", "sig")] * num_payloads + [
            make_nack(100 + i) for i in range(num_nacks)
        ]
        targeting = {
            "none": JamTargeting.none(),
            "all": JamTargeting.everyone(),
            "only": JamTargeting.only(jam_nodes),
            "except": JamTargeting.sparing(jam_nodes),
        }[jam_mode]
        resolution = channel.resolve_slot(transmissions, listeners, targeting)

        # Every listener gets exactly one observation.
        assert set(resolution.observations) == set(listeners)
        total = len(transmissions)
        for listener, observation in resolution.observations.items():
            jammed = targeting.affects(listener)
            if total == 0 and not jammed:
                assert observation.is_silent
            if total >= 2:
                # Collisions are noise for everyone: nobody decodes a frame.
                assert observation.message is None
            if observation.message is not None:
                # A decoded frame implies a single unjammed transmission.
                assert total == 1 and not jammed
            if total > 0:
                # Activity can never be perceived as silence (no forged silence).
                assert observation.is_noisy

    @given(
        listeners=st.sets(st.integers(min_value=0, max_value=20), min_size=1, max_size=10),
        spared=st.sets(st.integers(min_value=0, max_value=20), max_size=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_n_uniform_sparing_is_exact(self, listeners, spared):
        channel = Channel()
        resolution = channel.resolve_slot(
            [make_payload(-1, "m", "sig")], listeners, JamTargeting.sparing(spared)
        )
        for listener, observation in resolution.observations.items():
            if listener in spared:
                assert observation.message is not None
            else:
                assert observation.message is None


class TestJammingMaterialisationProperties:
    @given(
        num_slots=st.integers(min_value=0, max_value=500),
        requested=st.integers(min_value=0, max_value=800),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=80, deadline=None)
    def test_jam_slots_within_phase_and_unique(self, num_slots, requested, seed):
        plan = JamPlan(num_jam_slots=requested)
        slots = materialize_jam_slots(plan, num_slots, np.random.default_rng(seed))
        assert len(slots) == min(requested, num_slots)
        assert len(set(slots.tolist())) == len(slots)
        assert all(0 <= slot < num_slots for slot in slots.tolist())

    @given(
        num_slots=st.integers(min_value=1, max_value=300),
        count=st.integers(min_value=0, max_value=400),
        exclude=st.sets(st.integers(min_value=0, max_value=299), max_size=50),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=80, deadline=None)
    def test_spoof_slots_respect_exclusions(self, num_slots, count, exclude, seed):
        slots = materialize_spoof_slots(count, num_slots, np.random.default_rng(seed), exclude=exclude)
        slot_list = slots.tolist()
        assert len(set(slot_list)) == len(slot_list)
        assert not (set(slot_list) & exclude)
        assert all(0 <= slot < num_slots for slot in slot_list)


class TestProbabilityAndConfigProperties:
    @given(value=st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6))
    def test_clip_probability_range(self, value):
        assert 0.0 <= clip_probability(value) <= 1.0

    @given(
        # n >= 8 so that ln n > 1 and Alice's log-factor budget dominates a
        # node's (the paper's regime; the relation flips for toy n <= 2).
        n=st.integers(min_value=8, max_value=5000),
        f=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
        k=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=80, deadline=None)
    def test_budget_relationships(self, n, f, k):
        config = SimulationConfig(n=n, f=f, k=k)
        # Alice's budget always dominates a single node's budget.
        assert config.alice_budget >= config.node_budget
        # The aggregate adversary budget covers Carol plus every Byzantine node.
        assert config.adversary_total_budget >= config.carol_budget
        assert config.adversary_total_budget == pytest.approx(
            config.carol_budget + config.byzantine_count * config.node_budget
        )
        # Budgets are sublinear in n: a single node never holds n units.
        assert config.node_budget < config.budget_constant * n

    @given(seed=st.integers(min_value=0, max_value=2**30), name=st.text(min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_random_source_reproducibility(self, seed, name):
        a = RandomSource(seed).stream(name).random(3)
        b = RandomSource(seed).stream(name).random(3)
        assert np.allclose(a, b)
