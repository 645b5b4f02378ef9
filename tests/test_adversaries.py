"""Unit tests for the adversary strategy catalogue."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary import (
    Adversary,
    BurstyJammer,
    CompositeAdversary,
    ContinuousJammer,
    NullAdversary,
    NUniformSplitAdversary,
    PhaseBlockingAdversary,
    RandomJammer,
    ReactiveJammer,
    RequestSpoofingAdversary,
    RoundSwitchingAdversary,
    SpoofingAdversary,
)
from repro.simulation import (
    ConfigurationError,
    JamMode,
    PhaseContext,
    PhaseKind,
    PhasePlan,
    PhaseResult,
    PhaseRoles,
    SimulationConfig,
)


def make_context(kind=PhaseKind.INFORM, num_slots=256, round_index=5, remaining=1e9, uninformed=None, n=64):
    config = SimulationConfig(n=n, seed=1)
    plan = PhasePlan(
        name=kind.value,
        kind=kind,
        round_index=round_index,
        num_slots=num_slots,
        alice_send_prob=0.1 if kind is PhaseKind.INFORM else 0.0,
        relay_send_prob=0.01 if kind is PhaseKind.PROPAGATION else 0.0,
        nack_send_prob=0.01 if kind is PhaseKind.REQUEST else 0.0,
        uninformed_listen_prob=0.1,
    )
    roles = PhaseRoles(uninformed if uninformed is not None else range(n))
    return PhaseContext(
        plan=plan,
        roles=roles,
        config=config,
        adversary_remaining_budget=remaining,
    )


def fake_result(context, spend):
    return PhaseResult(
        plan=context.plan,
        newly_informed=np.empty(0, dtype=np.int64),
        jammed_slots=int(spend),
        adversary_spend=float(spend),
    )


class TestNullAdversary:
    def test_never_attacks(self):
        adversary = NullAdversary()
        plan = adversary.plan_phase(make_context())
        assert not plan.attacks_anything
        assert adversary.spent == 0


class TestContinuousJammer:
    def test_jams_every_slot(self):
        plan = ContinuousJammer().plan_phase(make_context(num_slots=100))
        assert plan.num_jam_slots == 100
        assert plan.targeting.mode is JamMode.ALL

    def test_spend_cap_limits_plan(self):
        adversary = ContinuousJammer(max_total_spend=30)
        plan = adversary.plan_phase(make_context(num_slots=100))
        assert plan.num_jam_slots == 30

    def test_cap_tracks_observed_spend(self):
        adversary = ContinuousJammer(max_total_spend=30)
        context = make_context(num_slots=100)
        adversary.observe_result(context, fake_result(context, 25))
        plan = adversary.plan_phase(context)
        assert plan.num_jam_slots == 5

    def test_exhausted_cap_goes_idle(self):
        adversary = ContinuousJammer(max_total_spend=10)
        context = make_context(num_slots=100)
        adversary.observe_result(context, fake_result(context, 10))
        assert not adversary.plan_phase(context).attacks_anything

    def test_ledger_remaining_budget_respected(self):
        adversary = ContinuousJammer()
        plan = adversary.plan_phase(make_context(num_slots=100, remaining=7))
        assert plan.num_jam_slots == 7

    def test_negative_cap_rejected(self):
        with pytest.raises(ConfigurationError, match="max_total_spend"):
            ContinuousJammer(max_total_spend=-1)


class TestRandomJammer:
    def test_rate_validation(self):
        with pytest.raises(ConfigurationError):
            RandomJammer(rate=1.5)

    def test_expected_jam_count(self):
        plan = RandomJammer(rate=0.25).plan_phase(make_context(num_slots=400))
        assert plan.num_jam_slots == 100


class TestBurstyJammer:
    def test_burst_geometry_validation(self):
        with pytest.raises(ConfigurationError):
            BurstyJammer(burst_length=0, period=10)
        with pytest.raises(ConfigurationError):
            BurstyJammer(burst_length=10, period=5)

    def test_burst_slots_layout(self):
        jammer = BurstyJammer(burst_length=2, period=5)
        assert jammer.burst_slots(12) == (0, 1, 5, 6, 10, 11)

    def test_plan_uses_explicit_slots(self):
        plan = BurstyJammer(burst_length=2, period=8).plan_phase(make_context(num_slots=16))
        assert plan.slot_indices == (0, 1, 8, 9)

    @staticmethod
    def loop_burst_slots(burst_length, period, offset, num_slots):
        """The per-slot loop ``burst_slots`` replaced, as the oracle."""

        slots = []
        start = offset
        while start < num_slots:
            for slot in range(start, min(start + burst_length, num_slots)):
                slots.append(slot)
            start += period
        return tuple(slots)

    @pytest.mark.parametrize("burst_length,period", [(1, 1), (1, 4), (3, 3), (3, 7), (5, 16)])
    @pytest.mark.parametrize("offset", [0, 1, 6, 40])
    @pytest.mark.parametrize("num_slots", [0, 1, 6, 7, 40, 41, 257])
    def test_burst_slots_match_loop(self, burst_length, period, offset, num_slots):
        jammer = BurstyJammer(burst_length=burst_length, period=period, offset=offset)
        slots = jammer.burst_slots(num_slots)
        assert slots == self.loop_burst_slots(burst_length, period, offset, num_slots)
        assert all(type(slot) is int for slot in slots)


class TestPhaseBlocker:
    def test_blocks_only_targeted_kinds(self):
        blocker = PhaseBlockingAdversary(kinds={PhaseKind.INFORM})
        assert blocker.plan_phase(make_context(PhaseKind.INFORM)).attacks_anything
        assert not blocker.plan_phase(make_context(PhaseKind.REQUEST)).attacks_anything

    def test_fraction_of_slots(self):
        blocker = PhaseBlockingAdversary(fraction=0.5)
        plan = blocker.plan_phase(make_context(num_slots=200))
        assert plan.num_jam_slots == 100

    def test_invalid_fraction(self):
        with pytest.raises(ConfigurationError):
            PhaseBlockingAdversary(fraction=0.0)

    def test_empty_kinds_rejected(self):
        with pytest.raises(ConfigurationError):
            PhaseBlockingAdversary(kinds=[])

    def test_skip_early_rounds(self):
        blocker = PhaseBlockingAdversary(skip_rounds_below=6)
        assert not blocker.plan_phase(make_context(round_index=5)).attacks_anything
        assert blocker.plan_phase(make_context(round_index=6)).attacks_anything


class TestNUniformSplit:
    def test_victims_fixed_after_first_plan(self):
        adversary = NUniformSplitAdversary(target_uninformed=4)
        adversary.plan_phase(make_context(uninformed=range(10)))
        assert np.array_equal(adversary.victims, np.arange(4))
        # Even if the uninformed set changes, victims stay pinned.
        adversary.plan_phase(make_context(uninformed=range(5, 10)))
        assert np.array_equal(adversary.victims, np.arange(4))

    def test_request_phase_left_clean(self):
        adversary = NUniformSplitAdversary(target_uninformed=4)
        assert not adversary.plan_phase(make_context(PhaseKind.REQUEST)).attacks_anything

    def test_idle_when_victims_all_done(self):
        adversary = NUniformSplitAdversary(target_uninformed=2)
        adversary.plan_phase(make_context(uninformed=range(10)))
        plan = adversary.plan_phase(make_context(uninformed=range(5, 10)))
        assert not plan.attacks_anything

    def test_targeting_only_victims(self):
        adversary = NUniformSplitAdversary(target_uninformed=3)
        plan = adversary.plan_phase(make_context(uninformed=range(10)))
        assert plan.targeting.mode is JamMode.ONLY
        assert np.array_equal(plan.targeting.nodes, [0, 1, 2])

    def test_zero_target_never_attacks(self):
        adversary = NUniformSplitAdversary(target_uninformed=0)
        assert not adversary.plan_phase(make_context()).attacks_anything

    def test_negative_target_rejected(self):
        with pytest.raises(ConfigurationError):
            NUniformSplitAdversary(target_uninformed=-1)


class TestRequestSpoofer:
    def test_spoofs_nacks_in_request_phase(self):
        adversary = RequestSpoofingAdversary(fraction=0.5)
        plan = adversary.plan_phase(make_context(PhaseKind.REQUEST, num_slots=100))
        assert plan.spoof_nack_slots == 50
        assert plan.num_jam_slots == 0

    def test_jamming_mode(self):
        adversary = RequestSpoofingAdversary(fraction=1.0, use_spoofed_nacks=False)
        plan = adversary.plan_phase(make_context(PhaseKind.REQUEST, num_slots=100))
        assert plan.num_jam_slots == 100

    def test_payload_phases_untouched_by_default(self):
        adversary = RequestSpoofingAdversary()
        assert not adversary.plan_phase(make_context(PhaseKind.INFORM)).attacks_anything

    def test_combined_strategy_blocks_payload_phases(self):
        adversary = RequestSpoofingAdversary(also_block_payload_phases=True)
        assert adversary.plan_phase(make_context(PhaseKind.INFORM)).num_jam_slots == 256


class TestReactiveJammer:
    def test_reactive_flag_set(self):
        plan = ReactiveJammer().plan_phase(make_context(PhaseKind.INFORM))
        assert plan.reactive

    def test_request_phase_ignored_by_default(self):
        assert not ReactiveJammer().plan_phase(make_context(PhaseKind.REQUEST)).attacks_anything

    def test_phase_budget_fraction(self):
        jammer = ReactiveJammer(phase_budget_fraction=0.5)
        plan = jammer.plan_phase(make_context(num_slots=1000, remaining=100))
        assert plan.num_jam_slots == 50

    def test_invalid_fraction(self):
        with pytest.raises(ConfigurationError):
            ReactiveJammer(phase_budget_fraction=0.0)


class TestSpoofingAdversary:
    def test_payload_spoofs_in_inform_phase(self):
        plan = SpoofingAdversary(payload_fraction=0.25).plan_phase(make_context(num_slots=100))
        assert plan.spoof_payload_slots == 25

    def test_nack_spoofs_in_request_phase(self):
        plan = SpoofingAdversary(nack_fraction=0.5).plan_phase(make_context(PhaseKind.REQUEST, num_slots=100))
        assert plan.spoof_nack_slots == 50

    def test_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            SpoofingAdversary(payload_fraction=2.0)


class TestComposites:
    def test_composite_uses_first_non_idle(self):
        composite = CompositeAdversary(
            [RequestSpoofingAdversary(), PhaseBlockingAdversary(kinds={PhaseKind.INFORM})]
        )
        inform_plan = composite.plan_phase(make_context(PhaseKind.INFORM))
        request_plan = composite.plan_phase(make_context(PhaseKind.REQUEST))
        assert inform_plan.num_jam_slots > 0
        assert request_plan.spoof_nack_slots > 0

    def test_composite_requires_strategies(self):
        with pytest.raises(ConfigurationError):
            CompositeAdversary([])

    def test_round_switching(self):
        switching = RoundSwitchingAdversary(
            early=ContinuousJammer(), late=NullAdversary(), switch_round=6
        )
        assert switching.plan_phase(make_context(round_index=5)).attacks_anything
        assert not switching.plan_phase(make_context(round_index=7)).attacks_anything

    def test_round_switching_validation(self):
        with pytest.raises(ConfigurationError):
            RoundSwitchingAdversary(ContinuousJammer(), NullAdversary(), switch_round=-1)

    def test_composite_shared_cap(self):
        composite = CompositeAdversary([ContinuousJammer()], max_total_spend=10)
        context = make_context(num_slots=100)
        plan = composite.plan_phase(context)
        assert plan.num_jam_slots == 10


class TestAdversaryBase:
    def test_results_recorded(self):
        adversary = ContinuousJammer()
        context = make_context()
        adversary.observe_result(context, fake_result(context, 12))
        assert adversary.spent == 12

    def test_cap_plan_respects_slot_indices(self):
        plan = BurstyJammer(burst_length=10, period=10, max_total_spend=3).plan_phase(
            make_context(num_slots=30)
        )
        assert plan.slot_indices is not None
        assert len(plan.slot_indices) == 3

    def test_spoofs_capped_after_jams(self):
        adversary = RequestSpoofingAdversary(fraction=1.0, max_total_spend=40)
        plan = adversary.plan_phase(make_context(PhaseKind.REQUEST, num_slots=100))
        assert plan.spoof_nack_slots == 40

    def test_abstract_base_cannot_instantiate(self):
        with pytest.raises(TypeError):
            Adversary()  # type: ignore[abstract]
