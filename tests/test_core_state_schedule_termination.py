"""Unit tests for protocol state, round schedules, and termination rules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ScheduleBuilder
from repro.core.state import NodeStatus, ProtocolState
from repro.core.termination import _heard_by, apply_request_phase
from repro.simulation import (
    ConfigurationError,
    PhaseKind,
    PhasePlan,
    PhaseResult,
    ProtocolViolationError,
    SimulationConfig,
)


class TestProtocolState:
    def test_initial_state_all_uninformed(self):
        state = ProtocolState(5)
        assert state.active_uninformed_array().tolist() == [0, 1, 2, 3, 4]
        assert state.informed_count() == 0
        assert not state.everyone_done()

    def test_mark_informed_transitions(self):
        state = ProtocolState(5)
        changed = state.mark_informed([1, 3], slot=10)
        assert changed.dtype == np.int64
        assert changed.tolist() == [1, 3]
        assert state.status(1) is NodeStatus.INFORMED
        assert state.active_informed_array().tolist() == [1, 3]
        assert state.informed_at_slot.tolist() == [-1, 10, -1, 10, -1]

    def test_duplicate_inform_is_harmless(self):
        state = ProtocolState(5)
        state.mark_informed([1], slot=1)
        assert state.mark_informed([1], slot=2).size == 0

    def test_unknown_node_rejected(self):
        state = ProtocolState(3)
        with pytest.raises(ProtocolViolationError):
            state.mark_informed([9], slot=1)

    def test_terminate_informed_lifecycle(self):
        state = ProtocolState(4)
        state.mark_informed([0, 1], slot=1)
        state.terminate_informed([0, 1], round_index=3)
        assert state.terminated_informed_count() == 2
        assert state.status(0).is_terminated
        assert state.status(0).is_informed

    def test_terminate_uninformed_lifecycle(self):
        state = ProtocolState(4)
        state.terminate_uninformed([2], round_index=5)
        assert state.terminated_uninformed_count() == 1
        assert not state.status(2).is_informed

    def test_informed_node_cannot_terminate_uninformed(self):
        state = ProtocolState(3)
        state.mark_informed([0], slot=1)
        with pytest.raises(ProtocolViolationError):
            state.terminate_uninformed([0], round_index=1)

    def test_uninformed_node_cannot_terminate_informed(self):
        state = ProtocolState(3)
        with pytest.raises(ProtocolViolationError):
            state.terminate_informed([0], round_index=1)

    def test_terminated_node_cannot_receive_message(self):
        state = ProtocolState(3)
        state.terminate_uninformed([0], round_index=1)
        with pytest.raises(ProtocolViolationError):
            state.mark_informed([0], slot=5)

    def test_everyone_done_requires_alice(self):
        state = ProtocolState(2)
        state.mark_informed([0, 1], slot=1)
        state.terminate_informed([0, 1], round_index=1)
        assert state.all_nodes_terminated()
        assert not state.everyone_done()
        state.terminate_alice(round_index=2)
        assert state.everyone_done()
        assert state.alice_terminated_at_round == 2


def build_schedule(n=1024, k=2, figure=1):
    return ScheduleBuilder(SimulationConfig(n=n, k=k), figure=figure)


class TestScheduleBuilder:
    def test_round_has_inform_propagation_request(self):
        phases = build_schedule().round_phases(6)
        kinds = [plan.kind for plan in phases]
        assert kinds[0] is PhaseKind.INFORM
        assert kinds[-1] is PhaseKind.REQUEST
        assert kinds.count(PhaseKind.PROPAGATION) == 1

    def test_general_k_has_k_minus_1_propagation_steps(self):
        phases = build_schedule(k=4, figure=2).round_phases(6)
        steps = [plan for plan in phases if plan.kind is PhaseKind.PROPAGATION]
        assert len(steps) == 3
        assert [plan.step for plan in steps] == [1, 2, 3]

    def test_phase_lengths_match_parameters(self):
        schedule = build_schedule()
        plan = schedule.inform_phase(8)
        assert plan.num_slots == schedule.phase_length(8)
        request = schedule.request_phase(8)
        assert request.num_slots == schedule.request_phase_length(8)

    def test_figure2_request_length_uses_phase_length(self):
        schedule = build_schedule(k=3, figure=2)
        request = schedule.request_phase(9)
        assert request.num_slots == schedule.phase_length(9)

    def test_round_length_sums_phases(self):
        schedule = build_schedule()
        assert schedule.round_length(7) == sum(p.num_slots for p in schedule.round_phases(7))

    def test_probabilities_follow_figure_1(self):
        schedule = build_schedule()
        inform = schedule.inform_phase(9)
        assert inform.alice_send_prob == pytest.approx(2 * np.log(1024) / 2 ** 9)
        assert inform.uninformed_listen_prob == pytest.approx(2 / (schedule.config.eps_prime * 2 ** 9))
        request = schedule.request_phase(9)
        assert request.nack_send_prob == pytest.approx(1 / 1024)

    def test_default_figure_follows_k(self):
        assert build_schedule(figure=None).figure == 1
        assert build_schedule(k=3, figure=None).figure == 2

    def test_invalid_figure_rejected(self):
        with pytest.raises(ConfigurationError, match="figure"):
            ScheduleBuilder(SimulationConfig(n=64), figure=5)


class TestRequestPhaseTermination:
    def make_schedule(self, n=256):
        return ScheduleBuilder(SimulationConfig(n=n))

    def make_result(self, n, node_noise, alice_noise, round_index):
        plan = PhasePlan(
            name="request", kind=PhaseKind.REQUEST, round_index=round_index, num_slots=1024
        )
        listeners = sorted(node_noise)
        return PhaseResult(
            plan=plan,
            newly_informed=np.empty(0, dtype=np.int64),
            jammed_slots=0,
            adversary_spend=0.0,
            alice_noisy_heard=alice_noise,
            noisy_listeners=np.array(listeners, dtype=np.int64),
            node_noisy_heard=np.array([node_noise[i] for i in listeners], dtype=np.int64),
        )

    def test_quiet_phase_terminates_everyone(self):
        n = 256
        schedule = self.make_schedule(n)
        state = ProtocolState(n)
        round_index = max(
            schedule.earliest_termination_round(alice=True), schedule.earliest_termination_round()
        )
        result = self.make_result(n, {i: 0 for i in range(n)}, 0, round_index)
        decision = apply_request_phase(state, result, schedule, round_index)
        assert decision.alice_terminated
        assert decision.terminated_nodes.size == n
        assert state.alice_terminated

    def test_noisy_phase_keeps_everyone_running(self):
        n = 256
        schedule = self.make_schedule(n)
        state = ProtocolState(n)
        round_index = schedule.earliest_termination_round() + 1
        noisy = {i: 10_000 for i in range(n)}
        result = self.make_result(n, noisy, 10_000, round_index)
        decision = apply_request_phase(state, result, schedule, round_index)
        assert not decision.alice_terminated
        assert decision.terminated_nodes.size == 0

    def test_termination_blocked_before_earliest_round(self):
        n = 256
        schedule = self.make_schedule(n)
        state = ProtocolState(n)
        result = self.make_result(n, {i: 0 for i in range(n)}, 0, round_index=1)
        decision = apply_request_phase(state, result, schedule, 1)
        assert not decision.any_terminated

    def test_mixed_noise_terminates_only_quiet_nodes(self):
        n = 256
        schedule = self.make_schedule(n)
        state = ProtocolState(n)
        round_index = schedule.earliest_termination_round()
        noise = {i: (0 if i < 10 else 10_000) for i in range(n)}
        result = self.make_result(n, noise, 10_000, round_index)
        decision = apply_request_phase(state, result, schedule, round_index)
        assert decision.terminated_nodes.tolist() == list(range(10))
        assert state.terminated_uninformed_count() == 10

    def test_informed_nodes_are_not_evaluated(self):
        n = 64
        schedule = self.make_schedule(n)
        state = ProtocolState(n)
        state.mark_informed(range(32), slot=1)
        round_index = schedule.earliest_termination_round()
        result = self.make_result(n, {i: 0 for i in range(n)}, 10_000, round_index)
        decision = apply_request_phase(state, result, schedule, round_index)
        assert decision.nodes_evaluated == 32
        assert all(node >= 32 for node in decision.terminated_nodes)


class TestVectorisedTerminationRule:
    """``apply_request_phase`` applies the scalar rule to a whole cohort at once.

    The per-node reference is the rule as a node states it: terminate iff
    ``round_index >= earliest_termination_round()`` and ``heard <=
    termination_threshold()``, with ``heard`` 0 for an active node the phase
    did not report as a listener.
    """

    N = 300

    def run(self, round_offset, seed):
        schedule = ScheduleBuilder(SimulationConfig(n=self.N))
        rng = np.random.default_rng(seed)
        state = ProtocolState(self.N)
        state.mark_informed(rng.choice(self.N, size=40, replace=False), slot=1)
        state.terminate_uninformed(
            [i for i in rng.choice(self.N, size=40, replace=False).tolist()
             if state.status(i) is NodeStatus.UNINFORMED],
            round_index=0,
        )
        active = state.active_uninformed_array().copy()
        # Listeners: a random subset of the active cohort plus ids that are
        # no longer active; the rest of the cohort is missing from the result.
        listeners = np.union1d(
            rng.choice(active, size=active.size * 2 // 3, replace=False),
            rng.choice(self.N, size=30, replace=False),
        )
        threshold = schedule.termination_threshold()
        heard = rng.integers(0, int(2 * threshold) + 2, size=listeners.size)
        round_index = schedule.earliest_termination_round() + round_offset
        plan = PhasePlan(
            name="request", kind=PhaseKind.REQUEST, round_index=round_index, num_slots=1024
        )
        result = PhaseResult(
            plan=plan,
            newly_informed=np.empty(0, dtype=np.int64),
            jammed_slots=0,
            adversary_spend=0.0,
            alice_noisy_heard=10_000,
            noisy_listeners=listeners,
            node_noisy_heard=heard,
        )
        by_node = dict(zip(listeners.tolist(), heard.tolist()))
        expected = [
            node for node in active.tolist()
            if round_index >= schedule.earliest_termination_round()
            and by_node.get(node, 0) <= threshold
        ]
        decision = apply_request_phase(state, result, schedule, round_index)
        return active, listeners, expected, decision, state

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_scalar_rule(self, seed):
        active, listeners, expected, decision, state = self.run(0, seed)
        missing = np.setdiff1d(active, listeners)
        assert missing.size > 0  # the cohort has nodes absent from the result
        assert set(missing.tolist()) <= set(expected)  # absent means 0 heard
        assert 0 < len(expected) < active.size
        assert decision.terminated_nodes.dtype == np.int64
        assert decision.terminated_nodes.tolist() == expected
        assert decision.nodes_evaluated == active.size
        assert state.terminated_uninformed_count() >= len(expected)
        for node in expected:
            assert state.status(node) is NodeStatus.TERMINATED_UNINFORMED

    def test_round_before_earliest_terminates_nobody(self):
        active, _, expected, decision, state = self.run(-1, 5)
        assert expected == []
        assert decision.terminated_nodes.size == 0
        assert not decision.any_terminated
        np.testing.assert_array_equal(state.active_uninformed_array(), active)

    def test_scalar_and_array_calls_agree(self):
        schedule = ScheduleBuilder(SimulationConfig(n=self.N))
        threshold = schedule.termination_threshold()
        counts = np.arange(0, int(2 * threshold) + 2, dtype=np.int64)
        for round_index in (
            schedule.earliest_termination_round() - 1,
            schedule.earliest_termination_round(),
        ):
            mask = schedule.should_terminate(counts, round_index)
            assert mask.dtype == bool and mask.shape == counts.shape
            scalar = [schedule.should_terminate(int(c), round_index) for c in counts]
            assert all(isinstance(flag, bool) for flag in scalar)
            assert mask.tolist() == scalar


class TestHeardBy:
    """``_heard_by`` maps a phase's listener counts onto the active cohort.

    The counts must not depend on how the listener array relates to the
    cohort: the cohort object itself and an equal copy are read in place, a
    strict subset and an empty array are mapped by search.
    """

    N = 50

    def result(self, listeners, heard):
        plan = PhasePlan(name="request", kind=PhaseKind.REQUEST, round_index=1, num_slots=64)
        return PhaseResult(
            plan=plan,
            newly_informed=np.empty(0, dtype=np.int64),
            jammed_slots=0,
            adversary_spend=0.0,
            noisy_listeners=listeners,
            node_noisy_heard=heard,
        )

    def cohort(self):
        state = ProtocolState(self.N)
        state.mark_informed(range(0, self.N, 3), slot=1)
        return state.active_uninformed_array()

    @pytest.mark.parametrize("relation", ["cohort", "equal copy", "strict subset", "empty"])
    def test_counts_do_not_depend_on_the_listener_array(self, relation):
        cohort = self.cohort()
        rng = np.random.default_rng(3)
        listeners = {
            "cohort": cohort,
            "equal copy": cohort.copy(),
            "strict subset": np.sort(rng.choice(cohort, size=cohort.size // 2, replace=False)),
            "empty": np.empty(0, dtype=np.int64),
        }[relation]
        heard = rng.integers(0, 100, size=listeners.size).astype(np.int64)
        kept = heard.copy()
        by_node = dict(zip(listeners.tolist(), heard.tolist()))
        counts = _heard_by(self.result(listeners, heard), cohort)
        assert counts.tolist() == [by_node.get(node, 0) for node in cohort.tolist()]
        np.testing.assert_array_equal(heard, kept)  # the result's counts are untouched
