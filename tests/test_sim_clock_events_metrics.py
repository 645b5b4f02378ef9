"""Unit tests for the run's slot counter, its phase events, and the shared metrics helpers."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.adversary import RandomJammer
from repro.baselines import KSYStyleBroadcast
from repro.core.broadcast import EpsilonBroadcast
from repro.core.driver import PhaseDriver
from repro.simulation import (
    CostBreakdown,
    DeliveryStats,
    SimulationConfig,
    resource_competitive_ratio,
)


class TestRunSlotCounter:
    """``PhaseDriver.slot`` is the run's clock: phase windows tile the run."""

    @pytest.mark.parametrize("engine", ["fast", "slot"])
    @pytest.mark.parametrize("protocol_cls", [EpsilonBroadcast, KSYStyleBroadcast])
    def test_phase_records_tile_the_run(self, protocol_cls, engine):
        apply_slots = []
        step = PhaseDriver.step

        def recording_step(driver, plan, roles, state, round_index, apply):
            def recording_apply(*args):
                apply_slots.append(args[-1])
                return apply(*args)

            return step(driver, plan, roles, state, round_index, recording_apply)

        config = SimulationConfig(n=24, seed=5)
        protocol = protocol_cls(
            config, adversary=RandomJammer(rate=0.3, max_total_spend=300), engine=engine
        )
        with mock.patch.object(PhaseDriver, "step", recording_step):
            outcome = protocol.run()

        phases = outcome.events
        assert phases and len(apply_slots) == len(phases)
        end = 0
        for event, apply_slot in zip(phases, apply_slots):
            assert event.data["start_slot"] == end
            end += event.data["num_slots"]
            assert apply_slot == end  # the state hook sees the slot at phase end
        assert outcome.delivery.slots_elapsed == end


def record_driver_slots(protocol_cls, engine="fast"):
    """``(slot before, plan.num_slots, slot after)`` for every phase of one run."""

    steps = []
    step = PhaseDriver.step

    def recording_step(driver, plan, roles, state, round_index, apply):
        before = driver.slot
        result = step(driver, plan, roles, state, round_index, apply)
        steps.append((before, plan.num_slots, driver.slot))
        return result

    config = SimulationConfig(n=24, seed=5)
    protocol = protocol_cls(
        config, adversary=RandomJammer(rate=0.3, max_total_spend=300), engine=engine
    )
    with mock.patch.object(PhaseDriver, "step", recording_step):
        outcome = protocol.run()
    return steps, outcome


class TestSlotClock:
    """The run's slot clock is the ``int`` counter ``PhaseDriver.slot``."""

    def test_initial_time(self):
        steps, _ = record_driver_slots(EpsilonBroadcast)
        assert steps and steps[0][0] == 0

    def test_advance(self):
        steps, outcome = record_driver_slots(EpsilonBroadcast)
        for before, num_slots, after in steps:
            assert after == before + num_slots
        for (_, _, after), (next_before, _, _) in zip(steps, steps[1:]):
            assert next_before == after
        assert steps[-1][2] == outcome.delivery.slots_elapsed


class TestMetrics:
    def test_cost_breakdown_from_snapshot(self):
        snapshot = {"alice": 5.0, "adversary": 100.0, "node_mean": 2.0, "node_max": 4.0, "node_total": 20.0}
        costs = CostBreakdown.from_snapshot(snapshot)
        assert costs.alice == 5.0
        assert costs.node_mean == 2.0 and costs.node_max == 4.0 and costs.node_total == 20.0
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
