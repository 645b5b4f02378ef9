"""Unit tests for the slot clock, event log, and shared metrics helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation import (
    CostBreakdown,
    DeliveryStats,
    EventLog,
    PhaseRecord,
    SimulationError,
    SlotClock,
    resource_competitive_ratio,
)


def make_record(round_index=1, name="inform", slots=8, jammed=2, informed=3):
    return PhaseRecord(
        round_index=round_index,
        phase_name=name,
        num_slots=slots,
        start_slot=0,
        jammed_slots=jammed,
        adversary_spend=float(jammed),
        newly_informed=informed,
        alice_cost=1.0,
        nodes_cost=4.0,
        active_uninformed_after=10,
        terminated_after=0,
    )


class TestSlotClock:
    def test_initial_time(self):
        assert SlotClock().now == 0

    def test_advance(self):
        clock = SlotClock()
        clock.advance(5)
        clock.advance(3)
        assert clock.now == 8

    def test_negative_advance_rejected(self):
        with pytest.raises(SimulationError):
            SlotClock().advance(-1)

    def test_phase_window_recording(self):
        clock = SlotClock()
        clock.begin_phase(1, "inform")
        clock.advance(10)
        window = clock.end_phase()
        assert window.start == 0 and window.end == 10
        assert window.num_slots == 10
        assert clock.phase_of(5) == window
        assert clock.phase_of(10) is None

    def test_nested_phase_rejected(self):
        clock = SlotClock()
        clock.begin_phase(1, "inform")
        with pytest.raises(SimulationError):
            clock.begin_phase(1, "request")

    def test_end_without_begin_rejected(self):
        with pytest.raises(SimulationError):
            SlotClock().end_phase()


class TestEventLog:
    def test_phase_records_accumulate(self):
        log = EventLog()
        log.record_phase(make_record(round_index=1))
        log.record_phase(make_record(round_index=2))
        assert len(log) == 2
        assert log.rounds_executed() == 2
        assert log.total_slots() == 16
        assert log.total_jammed_slots() == 4

    def test_phases_in_round(self):
        log = EventLog()
        log.record_phase(make_record(round_index=1, name="inform"))
        log.record_phase(make_record(round_index=1, name="request"))
        log.record_phase(make_record(round_index=2, name="inform"))
        assert len(log.phases_in_round(1)) == 2
        assert log.last_phase().round_index == 2

    def test_jammed_fraction(self):
        record = make_record(slots=10, jammed=5)
        assert record.jammed_fraction == 0.5

    def test_empty_log(self):
        log = EventLog()
        assert log.last_phase() is None
        assert log.rounds_executed() == 0


class TestMetrics:
    def test_cost_breakdown_from_snapshot(self):
        snapshot = {"alice": 5.0, "adversary": 100.0, "node_mean": 2.0, "node_max": 4.0, "node_total": 20.0}
        costs = CostBreakdown.from_snapshot(snapshot, per_node=np.array([1.0, 3.0]))
        assert costs.alice == 5.0
        assert costs.correct_total == 25.0
        assert costs.as_dict()["adversary"] == 100.0

    def test_delivery_stats_fractions(self):
        stats = DeliveryStats(
            n=100,
            informed=93,
            terminated_informed=93,
            terminated_uninformed=7,
            slots_elapsed=1000,
            rounds_executed=5,
            alice_terminated=True,
        )
        assert stats.delivery_fraction == pytest.approx(0.93)
        assert stats.uninformed == 7
        assert stats.all_terminated
        assert stats.as_dict()["delivery_fraction"] == pytest.approx(0.93)

    def test_delivery_stats_not_all_terminated(self):
        stats = DeliveryStats(100, 50, 40, 10, 10, 1, False)
        assert not stats.all_terminated

    def test_competitive_ratio(self):
        assert resource_competitive_ratio(10, 100) == pytest.approx(0.1)
        assert resource_competitive_ratio(0, 0) == 0.0
        assert resource_competitive_ratio(5, 0) == float("inf")
