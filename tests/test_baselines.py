"""Tests for the baseline protocols (naive, KSY-style, balanced backoff)."""

from __future__ import annotations

import pytest

from repro.adversary import NullAdversary, PhaseBlockingAdversary
from repro.baselines import (
    GOLDEN_RATIO,
    BalancedBackoffBroadcast,
    EpochBaseline,
    KSYStyleBroadcast,
    NaiveBroadcast,
)
from repro.simulation import ConfigurationError, PhaseKind, SimulationConfig


def config(n=64, seed=1, **kwargs):
    return SimulationConfig(n=n, seed=seed, **kwargs)


class TestEpochPlans:
    def test_naive_probabilities(self):
        baseline = NaiveBroadcast(config())
        assert baseline.alice_send_probability(5) == 1.0
        assert baseline.node_listen_probability(5) == 1.0
        assert baseline.epoch_length(5) == 32

    def test_ksy_sender_exponent(self):
        baseline = KSYStyleBroadcast(config())
        epoch = 10
        expected = 2.0 ** (-(2.0 - GOLDEN_RATIO) * epoch)
        assert baseline.alice_send_probability(epoch) == pytest.approx(expected)
        assert baseline.node_listen_probability(epoch) == 1.0

    def test_backoff_is_symmetric(self):
        baseline = BalancedBackoffBroadcast(config())
        assert baseline.alice_send_probability(8) == baseline.node_listen_probability(8)

    def test_epoch_plan_is_inform_kind(self):
        plan = NaiveBroadcast(config()).epoch_plan(4)
        assert plan.kind is PhaseKind.INFORM
        assert plan.num_slots == 16

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            NaiveBroadcast(config(), engine="bogus")

    def test_max_epoch_outlasts_adversary_budget(self):
        baseline = NaiveBroadcast(config(n=64, f=1.0))
        assert 2 ** baseline.max_epoch > baseline.config.adversary_total_budget

    def test_base_class_is_abstract(self):
        with pytest.raises(TypeError):
            EpochBaseline(config())  # type: ignore[abstract]


class TestBaselineRuns:
    @pytest.mark.parametrize("cls", [NaiveBroadcast, KSYStyleBroadcast, BalancedBackoffBroadcast])
    def test_unjammed_run_delivers_everything(self, cls):
        outcome = cls(config(), adversary=NullAdversary()).run()
        assert outcome.delivery_fraction == 1.0
        assert not outcome.terminated_by_cap
        assert outcome.protocol == cls.protocol_name

    @pytest.mark.parametrize("cls", [NaiveBroadcast, KSYStyleBroadcast, BalancedBackoffBroadcast])
    def test_blocked_run_still_delivers_after_budget_dies(self, cls):
        adversary = PhaseBlockingAdversary(max_total_spend=2_000)
        outcome = cls(config(seed=2), adversary=adversary).run()
        assert outcome.delivery_fraction == 1.0
        assert outcome.adversary_spend > 0

    def test_naive_costs_track_adversary_spend(self):
        small = NaiveBroadcast(config(seed=3), adversary=PhaseBlockingAdversary(max_total_spend=1_000)).run()
        large = NaiveBroadcast(config(seed=3), adversary=PhaseBlockingAdversary(max_total_spend=8_000)).run()
        ratio = large.mean_node_cost / small.mean_node_cost
        spend_ratio = large.adversary_spend / small.adversary_spend
        # Θ(T): cost ratio should be comparable to the spend ratio.
        assert ratio > spend_ratio * 0.4

    def test_ksy_receivers_pay_much_more_than_sender(self):
        outcome = KSYStyleBroadcast(
            config(seed=4), adversary=PhaseBlockingAdversary(max_total_spend=8_000)
        ).run()
        assert outcome.max_node_cost > 5 * outcome.alice_cost

    def test_backoff_is_load_balanced(self):
        outcome = BalancedBackoffBroadcast(
            config(seed=5), adversary=PhaseBlockingAdversary(max_total_spend=8_000)
        ).run()
        assert 0.2 < outcome.load_balance_ratio < 5.0

    def test_backoff_cheaper_than_naive_under_jamming(self):
        adversary_budget = 8_000
        naive = NaiveBroadcast(
            config(seed=6), adversary=PhaseBlockingAdversary(max_total_spend=adversary_budget)
        ).run()
        backoff = BalancedBackoffBroadcast(
            config(seed=6), adversary=PhaseBlockingAdversary(max_total_spend=adversary_budget)
        ).run()
        assert backoff.mean_node_cost < naive.mean_node_cost

    def test_slot_engine_supported(self):
        outcome = NaiveBroadcast(config(n=24, seed=7), engine="slot").run()
        assert outcome.delivery_fraction == 1.0

    def test_event_log_records_epochs(self):
        outcome = NaiveBroadcast(config(seed=8)).run()
        assert outcome.events is not None
        assert len(outcome.events) == outcome.delivery.rounds_executed
