"""Unit tests for phase plans, jam plans, and jam-slot materialisation."""

from __future__ import annotations

import numpy as np
import pytest

import singlehop_reference as reference
from repro.simulation import (
    JamPlan,
    JamTargeting,
    PhaseKind,
    PhasePlan,
    PhaseRoles,
    clip_probability,
)
from repro.simulation.jamming import materialize_jam_slots, materialize_spoof_slots


class TestClipProbability:
    @pytest.mark.parametrize("raw,expected", [(-0.5, 0.0), (0.0, 0.0), (0.4, 0.4), (1.0, 1.0), (7.3, 1.0)])
    def test_clipping(self, raw, expected):
        assert clip_probability(raw) == expected


class TestPhasePlan:
    def test_probabilities_clipped_on_construction(self):
        plan = PhasePlan(
            name="inform",
            kind=PhaseKind.INFORM,
            round_index=1,
            num_slots=4,
            alice_send_prob=3.0,
            uninformed_listen_prob=-1.0,
        )
        assert plan.alice_send_prob == 1.0
        assert plan.uninformed_listen_prob == 0.0

    def test_negative_slots_rejected(self):
        with pytest.raises(ValueError):
            PhasePlan(name="x", kind=PhaseKind.INFORM, round_index=1, num_slots=-1)

    def test_carries_payload(self):
        inform = PhasePlan(name="i", kind=PhaseKind.INFORM, round_index=1, num_slots=4, alice_send_prob=0.5)
        request = PhasePlan(name="r", kind=PhaseKind.REQUEST, round_index=1, num_slots=4, nack_send_prob=0.5)
        assert inform.carries_payload
        assert not request.carries_payload


class TestPhaseRoles:
    def test_constructor_sorts_ids_into_int64_arrays(self):
        roles = PhaseRoles([3, 1, 2, 1], relays={4}, alice_active=False)
        assert roles.active_uninformed_ids.dtype == np.int64
        assert np.array_equal(roles.active_uninformed_ids, [1, 2, 3])
        assert np.array_equal(roles.relay_ids, [4])
        assert roles.decoy_ids.size == 0
        assert not roles.alice_active


class TestJamPlan:
    def test_idle_plan(self):
        plan = JamPlan.idle()
        assert not plan.attacks_anything

    def test_attacks_anything_variants(self):
        assert JamPlan(num_jam_slots=1).attacks_anything
        assert JamPlan(jam_rate=0.1).attacks_anything
        assert JamPlan(slot_indices=(1, 2)).attacks_anything
        assert JamPlan(spoof_nack_slots=2).attacks_anything
        assert not JamPlan().attacks_anything


class TestMaterializeJamSlots:
    def test_explicit_indices_clipped_to_phase(self):
        plan = JamPlan(slot_indices=(0, 3, 99))
        slots = materialize_jam_slots(plan, 10, np.random.default_rng(0))
        assert slots.tolist() == [0, 3]

    def test_count_selection_has_exact_size(self):
        plan = JamPlan(num_jam_slots=5)
        slots = materialize_jam_slots(plan, 20, np.random.default_rng(0))
        assert len(slots) == 5
        assert len(set(slots.tolist())) == 5

    def test_count_capped_at_phase_length(self):
        plan = JamPlan(num_jam_slots=50)
        slots = materialize_jam_slots(plan, 10, np.random.default_rng(0))
        assert len(slots) == 10

    def test_rate_selection_statistics(self):
        plan = JamPlan(jam_rate=0.3)
        slots = materialize_jam_slots(plan, 10_000, np.random.default_rng(1))
        assert 0.25 < len(slots) / 10_000 < 0.35

    def test_reactive_requires_activity_mask(self):
        plan = JamPlan(num_jam_slots=2, reactive=True)
        with pytest.raises(ValueError):
            materialize_jam_slots(plan, 10, np.random.default_rng(0))

    def test_reactive_jams_only_active_slots(self):
        plan = JamPlan(num_jam_slots=3, reactive=True)
        activity = np.array([False, True, False, True, True, False, True])
        slots = materialize_jam_slots(plan, 7, np.random.default_rng(0), activity_mask=activity)
        assert slots.tolist() == [1, 3, 4]

    def test_reactive_rate_subsets_active_slots(self):
        plan = JamPlan(jam_rate=1.0, reactive=True)
        activity = np.array([True, False, True])
        slots = materialize_jam_slots(plan, 3, np.random.default_rng(0), activity_mask=activity)
        assert slots.tolist() == [0, 2]

    def test_zero_slots_phase(self):
        assert materialize_jam_slots(JamPlan(num_jam_slots=3), 0, np.random.default_rng(0)).size == 0

    def test_empty_plan(self):
        assert materialize_jam_slots(JamPlan(), 16, np.random.default_rng(0)).size == 0


class TestMaterializeSpoofSlots:
    def test_excludes_given_slots(self):
        slots = materialize_spoof_slots(5, 10, np.random.default_rng(0), exclude=range(5))
        assert all(slot >= 5 for slot in slots.tolist())
        assert len(slots) == 5

    def test_count_capped_by_available(self):
        slots = materialize_spoof_slots(10, 4, np.random.default_rng(0), exclude=[0])
        assert len(slots) == 3

    def test_zero_count(self):
        assert materialize_spoof_slots(0, 10, np.random.default_rng(0)).size == 0


def _same_draws(current, old, seed=3):
    """Run both implementations on equal generators; outputs and states must match."""

    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    got, expected = current(rng_new), old(rng_old)
    assert got.dtype == expected.dtype
    assert got.tolist() == expected.tolist()
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


class TestMaterializeAgainstReference:
    """The mask-based materialisers equal the earlier sort/loop ones, draw for draw."""

    ACTIVITY = np.random.default_rng(9).random(1000) < 0.3

    @pytest.mark.parametrize(
        "plan",
        [
            JamPlan(num_jam_slots=1),
            JamPlan(num_jam_slots=17),
            JamPlan(num_jam_slots=999),
            JamPlan(num_jam_slots=1000),
            JamPlan(num_jam_slots=5000),
            JamPlan(jam_rate=0.25),
            JamPlan(slot_indices=(-1, 0, 4, 4, 999, 1000, 70)),
            JamPlan(num_jam_slots=40, reactive=True),
            JamPlan(jam_rate=0.5, reactive=True),
            JamPlan(),
        ],
        ids=["one", "few", "all-but-one", "full-phase", "over-phase", "rate", "indices",
             "reactive-count", "reactive-rate", "empty"],
    )
    @pytest.mark.parametrize("num_slots", [0, 1, 10, 1000])
    def test_jam_slots(self, plan, num_slots):
        activity = self.ACTIVITY[:num_slots]
        _same_draws(
            lambda rng: materialize_jam_slots(plan, num_slots, rng, activity),
            lambda rng: reference.materialize_jam_slots(plan, num_slots, rng, activity),
        )

    @pytest.mark.parametrize("container", [set, list, np.array, tuple, iter])
    @pytest.mark.parametrize("count", [0, 1, 6, 500])
    @pytest.mark.parametrize("num_slots", [0, 1, 12, 300])
    def test_spoof_slots(self, container, count, num_slots):
        exclude = [-2, 0, 3, 3, 11, 40, 299, 300, 4000]
        _same_draws(
            lambda rng: materialize_spoof_slots(count, num_slots, rng, exclude=container(exclude)),
            lambda rng: reference.materialize_spoof_slots(count, num_slots, rng, exclude=exclude),
        )

    @pytest.mark.parametrize("container", [set, list, np.array])
    def test_spoof_slots_with_every_slot_excluded(self, container):
        _same_draws(
            lambda rng: materialize_spoof_slots(4, 9, rng, exclude=container(range(9))),
            lambda rng: reference.materialize_spoof_slots(4, 9, rng, exclude=range(9)),
        )
