"""Property-based tests (hypothesis) for protocol-level invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.fitting import fit_power_law
from repro.core import ScheduleBuilder
from repro.core.state import NodeStatus, ProtocolState
from repro.simulation import SimulationConfig
from repro.simulation.errors import ProtocolViolationError


class TestParameterProperties:
    @given(
        k=st.integers(min_value=2, max_value=6),
        round_index=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_phase_lengths_positive_and_monotone(self, k, round_index):
        schedule = ScheduleBuilder(SimulationConfig(n=64, k=k))
        assert schedule.phase_length(round_index) >= 1
        assert schedule.phase_length(round_index + 1) > schedule.phase_length(round_index)
        assert (
            schedule.request_phase_length(round_index + 1)
            > schedule.request_phase_length(round_index)
        )

    @given(
        k=st.integers(min_value=2, max_value=6),
        n=st.integers(min_value=4, max_value=100_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_window_ordering(self, k, n):
        schedule = ScheduleBuilder(SimulationConfig(n=n, k=k))
        for alice in (False, True):
            earliest = schedule.earliest_termination_round(alice=alice)
            assert schedule.rounds[0] <= earliest <= schedule.rounds[-1]


class TestScheduleProperties:
    @given(
        n=st.integers(min_value=8, max_value=10_000),
        k=st.integers(min_value=2, max_value=4),
        round_index=st.integers(min_value=1, max_value=24),
        figure=st.sampled_from([1, 2]),
    )
    @settings(max_examples=150, deadline=None)
    def test_all_probabilities_are_valid(self, n, k, round_index, figure):
        schedule = ScheduleBuilder(
            SimulationConfig(n=n, k=k), figure=figure, decoy_traffic=True
        )
        probabilities = [
            value
            for plan in schedule.round_phases(round_index)
            for name, value in vars(plan).items()
            if name.endswith("_prob")
        ]
        assert len(probabilities) == 6 * (k + 1)
        assert all(0.0 <= p <= 1.0 for p in probabilities)

    @given(
        n=st.integers(min_value=8, max_value=10_000),
        round_index=st.integers(min_value=4, max_value=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_listening_probabilities_never_increase_with_round(self, n, round_index):
        schedule = ScheduleBuilder(SimulationConfig(n=n))
        for phase in (schedule.inform_phase, schedule.request_phase):
            assert phase(round_index + 1).uninformed_listen_prob <= phase(round_index).uninformed_listen_prob

    @given(
        n=st.integers(min_value=8, max_value=10_000),
        heard=st.integers(min_value=0, max_value=10_000),
        round_index=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=150, deadline=None)
    def test_termination_is_monotone_in_noise(self, n, heard, round_index):
        schedule = ScheduleBuilder(SimulationConfig(n=n))
        for alice in (False, True):
            # If a listener terminates having heard `heard` noisy slots, it
            # must also terminate having heard fewer.
            if schedule.should_terminate(heard, round_index, alice=alice):
                assert schedule.should_terminate(max(heard - 1, 0), round_index, alice=alice)
            # And never before its earliest allowed round.
            if round_index < schedule.earliest_termination_round(alice=alice):
                assert not schedule.should_terminate(0, round_index, alice=alice)


class TestProtocolStateProperties:
    @given(
        n=st.integers(min_value=1, max_value=60),
        informed=st.data(),
    )
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_status_counts_always_partition_the_network(self, n, informed):
        state = ProtocolState(n)
        to_inform = informed.draw(
            st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n)
        )
        state.mark_informed(to_inform, slot=1)
        terminate_informed = informed.draw(st.sets(st.sampled_from(sorted(to_inform)), max_size=len(to_inform))) if to_inform else set()
        state.terminate_informed(terminate_informed, round_index=1)
        remaining_uninformed = sorted(set(range(n)) - set(to_inform))
        give_up = (
            informed.draw(st.sets(st.sampled_from(remaining_uninformed), max_size=len(remaining_uninformed)))
            if remaining_uninformed
            else set()
        )
        state.terminate_uninformed(give_up, round_index=1)

        statuses = [state.status(i) for i in range(n)]
        counts = {
            NodeStatus.UNINFORMED: 0,
            NodeStatus.INFORMED: 0,
            NodeStatus.TERMINATED_INFORMED: 0,
            NodeStatus.TERMINATED_UNINFORMED: 0,
        }
        for status in statuses:
            counts[status] += 1
        assert sum(counts.values()) == n
        assert counts[NodeStatus.TERMINATED_INFORMED] == len(terminate_informed)
        assert counts[NodeStatus.TERMINATED_UNINFORMED] == len(give_up)
        assert state.informed_count() == len(to_inform)


def assert_counts_match_codes(state: ProtocolState) -> None:
    """The maintained population counts equal scans of the status codes."""

    codes = state._codes
    assert state.active_uninformed_count() == int(np.count_nonzero(codes == 0))
    assert state.active_informed_count() == int(np.count_nonzero(codes == 1))
    assert state.terminated_informed_count() == int(np.count_nonzero(codes == 2))
    assert state.terminated_uninformed_count() == int(np.count_nonzero(codes == 3))
    assert state.informed_count() == int(np.count_nonzero((codes == 1) | (codes == 2)))
    assert state.all_nodes_terminated() == bool(np.all(codes >= 2))


def status_counts(state: ProtocolState) -> "list[int]":
    return [
        state.active_uninformed_count(),
        state.active_informed_count(),
        state.terminated_informed_count(),
        state.terminated_uninformed_count(),
    ]


TRANSITIONS = ("mark_informed", "terminate_informed", "terminate_uninformed")


class TestMaintainedCounts:
    """`ProtocolState` keeps its counts in step with every transition."""

    @given(
        n=st.integers(min_value=1, max_value=40),
        steps=st.lists(
            st.tuples(
                st.sampled_from(TRANSITIONS),
                st.lists(st.integers(min_value=0, max_value=39), max_size=12),
                st.booleans(),
            ),
            max_size=25,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_counts_equal_code_scans(self, n, steps):
        state = ProtocolState(n)
        for name, ids, as_array in steps:
            # Repeated ids and empty cohorts included; id n is unknown.
            ids = [i % (n + 1) for i in ids]
            cohort = np.array(ids, dtype=np.int64) if as_array else ids
            codes, counts, version = state._codes.copy(), status_counts(state), state._version
            try:
                getattr(state, name)(cohort, 3)
            except ProtocolViolationError:
                # An illegal batch raises before moving anyone.
                assert np.array_equal(state._codes, codes)
                assert status_counts(state) == counts
                assert state._version == version
            assert_counts_match_codes(state)

    def test_repeated_ids_count_once(self):
        state = ProtocolState(6)
        changed = state.mark_informed(np.array([4, 1, 4, 1, 1], dtype=np.int64), slot=2)
        assert changed.tolist() == [1, 4]
        assert state.active_informed_count() == 2
        assert state.active_uninformed_count() == 4
        state.terminate_informed(np.array([4, 4, 1], dtype=np.int64), round_index=1)
        state.terminate_uninformed([0, 0, 5, 5, 0], round_index=1)
        assert state.terminated_informed_count() == 2
        assert state.terminated_uninformed_count() == 2
        assert state.active_uninformed_count() == 2
        assert_counts_match_codes(state)
        state.terminate_uninformed(np.array([2, 3, 3], dtype=np.int64), round_index=2)
        assert state.all_nodes_terminated()
        assert_counts_match_codes(state)


class TestFittingProperties:
    @given(
        exponent=st.floats(min_value=0.1, max_value=1.5),
        coefficient=st.floats(min_value=0.1, max_value=50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_fit_recovers_exact_power_laws(self, exponent, coefficient):
        xs = [10.0, 100.0, 1000.0, 10_000.0]
        ys = [coefficient * x ** exponent for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(exponent, abs=1e-6)
        assert fit.coefficient == pytest.approx(coefficient, rel=1e-4)
