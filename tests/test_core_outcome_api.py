"""Unit tests for BroadcastOutcome and the high-level run_broadcast API."""

from __future__ import annotations

import pytest

from repro import BroadcastOutcome, SimulationConfig, run_broadcast
from repro.core.api import ADVERSARY_CATALOGUE, PROTOCOL_VARIANTS, make_adversary
from repro.simulation import ConfigurationError, CostBreakdown, DeliveryStats


def make_outcome(alice=10.0, node_mean=5.0, node_max=8.0, adversary=100.0, informed=95, n=100):
    delivery = DeliveryStats(
        n=n,
        informed=informed,
        terminated_informed=informed,
        terminated_uninformed=n - informed,
        slots_elapsed=1234,
        rounds_executed=6,
        alice_terminated=True,
    )
    costs = CostBreakdown(
        alice=alice,
        node_mean=node_mean,
        node_max=node_max,
        node_total=node_mean * n,
        adversary=adversary,
    )
    return BroadcastOutcome(
        protocol="epsilon-broadcast",
        adversary="phase_blocker",
        config=SimulationConfig(n=n, epsilon=0.1, seed=1),
        delivery=delivery,
        costs=costs,
    )


class TestBroadcastOutcome:
    def test_basic_accessors(self):
        outcome = make_outcome()
        assert outcome.delivery_fraction == pytest.approx(0.95)
        assert outcome.adversary_spend == 100.0
        assert outcome.alice_cost == 10.0
        assert outcome.max_node_cost == 8.0
        assert outcome.slots_elapsed == 1234

    def test_competitive_ratios(self):
        outcome = make_outcome()
        assert outcome.alice_competitive_ratio == pytest.approx(0.1)
        assert outcome.node_competitive_ratio == pytest.approx(0.08)

    def test_ratio_with_zero_adversary_spend(self):
        outcome = make_outcome(adversary=0.0)
        assert outcome.alice_competitive_ratio == float("inf")

    def test_load_balance_ratio(self):
        outcome = make_outcome(alice=10.0, node_mean=5.0)
        assert outcome.load_balance_ratio == pytest.approx(2.0)

    def test_meets_delivery_target(self):
        outcome = make_outcome(informed=95)
        assert outcome.meets_delivery_target()          # ε = 0.1 → need ≥ 90
        assert not outcome.meets_delivery_target(0.01)  # need ≥ 99

    def test_summary_mentions_key_numbers(self):
        text = make_outcome().summary()
        assert "95/100" in text
        assert "epsilon-broadcast" in text

    def test_as_record_flattens(self):
        record = make_outcome().as_record()
        assert record["delivery_fraction"] == pytest.approx(0.95)
        assert record["adversary_spend"] == 100.0
        assert "load_balance" in record


class TestMakeAdversary:
    def test_every_catalogue_entry_constructible(self):
        for name in ADVERSARY_CATALOGUE:
            adversary = make_adversary(name)
            assert adversary.name == name or adversary.name in name or name in adversary.name

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_adversary("does-not-exist")

    def test_kwargs_forwarded(self):
        adversary = make_adversary("random", rate=0.9)
        assert adversary.rate == 0.9

    def test_defaults_filled_for_required_args(self):
        assert make_adversary("bursty").burst_length == 32
        assert make_adversary("nuniform_split").target_uninformed == 0


class TestRunBroadcast:
    def test_returns_outcome(self):
        outcome = run_broadcast(n=32, seed=1, adversary="none")
        assert isinstance(outcome, BroadcastOutcome)
        assert outcome.config.n == 32

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError):
            run_broadcast(n=32, variant="nope")

    def test_all_variants_registered(self):
        assert set(PROTOCOL_VARIANTS) == {
            "epsilon-broadcast",
            "general-k",
            "decoy",
            "size-estimate",
            "multihop",
        }

    def test_adversary_instance_accepted(self):
        adversary = make_adversary("continuous", max_total_spend=100)
        outcome = run_broadcast(n=32, seed=1, adversary=adversary)
        assert outcome.adversary_spend <= 100

    @pytest.mark.parametrize("name", sorted(ADVERSARY_CATALOGUE))
    def test_uncapped_strategy_is_held_to_carols_budget(self, name):
        """With no cap of its own, every strategy still spends at most
        Carol's aggregate budget: her ledger always caps."""

        config = SimulationConfig(n=32, f=0.25, seed=4)
        adversary = make_adversary(name)
        assert adversary.max_total_spend is None
        outcome = run_broadcast(n=32, config=config, adversary=adversary)
        assert outcome.adversary_spend <= config.adversary_total_budget

    def test_explicit_config_overrides_shortcuts(self):
        config = SimulationConfig(n=48, seed=9)
        outcome = run_broadcast(n=9999, config=config)
        assert outcome.config.n == 48

    def test_topology_conflicts_with_explicit_config(self):
        config = SimulationConfig(n=32, seed=9)
        with pytest.raises(ConfigurationError, match="explicit config"):
            run_broadcast(n=32, config=config, topology="gilbert")
        with pytest.raises(ConfigurationError, match="explicit config"):
            run_broadcast(n=32, config=config, topology_kwargs={"radius": 0.2})

    def test_bad_topology_kwargs_raise_configuration_error(self):
        with pytest.raises(ConfigurationError, match="topology_kwargs"):
            run_broadcast(n=32, topology="gilbert", topology_kwargs={"raduis": 0.2})

    def test_topology_kwargs_without_topology_rejected(self):
        with pytest.raises(ConfigurationError, match="without topology"):
            run_broadcast(n=32, topology_kwargs={"radius": 0.2})

    def test_topology_kwargs_with_spec_rejected(self):
        from repro.simulation import TopologySpec

        with pytest.raises(ConfigurationError, match="kind name"):
            run_broadcast(n=32, topology=TopologySpec.gilbert(), topology_kwargs={"radius": 0.2})

    def test_same_seed_reproducible(self):
        a = run_broadcast(n=32, seed=5, adversary="continuous",
                          adversary_kwargs={"max_total_spend": 500})
        b = run_broadcast(n=32, seed=5, adversary="continuous",
                          adversary_kwargs={"max_total_spend": 500})
        assert a.alice_cost == b.alice_cost
        assert a.delivery.informed == b.delivery.informed
        assert a.adversary_spend == b.adversary_spend

    def test_different_seeds_differ(self):
        a = run_broadcast(n=64, seed=5)
        b = run_broadcast(n=64, seed=6)
        assert a.alice_cost != b.alice_cost
