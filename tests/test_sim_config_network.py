"""Unit tests for SimulationConfig and Network construction."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.simulation import (
    BudgetPolicy,
    ConfigurationError,
    EnergyOperation,
    LedgerArray,
    Network,
    SimulationConfig,
)


class TestSimulationConfigValidation:
    def test_minimal_valid(self):
        config = SimulationConfig(n=2)
        assert config.n == 2

    @pytest.mark.parametrize("field,value", [
        ("n", 1),
        ("f", -0.1),
        ("k", 1),
        ("k", 2.5),
        ("epsilon", 0.0),
        ("epsilon", 1.0),
        ("c", 0.0),
        ("c", -1.0),
        ("budget_constant", 0.0),
        ("epsilon_prime", 0.0),
        ("epsilon_prime", 1.5),
        ("seed", -3),
    ])
    def test_invalid_values_rejected(self, field, value):
        kwargs = {"n": 64, field: value}
        with pytest.raises(ConfigurationError):
            SimulationConfig(**kwargs)

    def test_with_returns_modified_copy(self):
        config = SimulationConfig(n=64)
        other = config.with_(n=128, seed=5)
        assert other.n == 128 and other.seed == 5
        assert config.n == 64

    def test_describe_mentions_core_fields(self):
        text = SimulationConfig(n=64).describe()
        assert "n=64" in text and "k=2" in text


class TestDerivedBudgets:
    def test_node_budget_scaling(self):
        config = SimulationConfig(n=256, k=2, budget_constant=16)
        assert config.node_budget == pytest.approx(16 * 16.0)

    def test_alice_budget_k2_has_single_log(self):
        config = SimulationConfig(n=256, k=2, budget_constant=1)
        assert config.alice_budget == pytest.approx(math.sqrt(256) * math.log(256))

    def test_alice_budget_general_k_has_log_power_k(self):
        config = SimulationConfig(n=256, k=3, budget_constant=1)
        assert config.alice_budget == pytest.approx(256 ** (1 / 3) * math.log(256) ** 3)

    def test_carol_budget_matches_alice(self):
        config = SimulationConfig(n=256)
        assert config.carol_budget == config.alice_budget

    def test_adversary_total_includes_byzantine_nodes(self):
        config = SimulationConfig(n=100, f=2.0)
        assert config.byzantine_count == 200
        assert config.adversary_total_budget == pytest.approx(
            config.carol_budget + 200 * config.node_budget
        )

    def test_f_zero_means_carol_alone(self):
        config = SimulationConfig(n=100, f=0.0)
        assert config.byzantine_count == 0
        assert config.adversary_total_budget == pytest.approx(config.carol_budget)

    def test_eps_prime_default_and_override(self):
        assert SimulationConfig(n=64).eps_prime == pytest.approx(1 / 64)
        assert SimulationConfig(n=64, epsilon_prime=0.25).eps_prime == 0.25


class TestNetwork:
    def test_device_counts(self, small_config):
        network = Network(small_config)
        assert network.n == network.node_ledgers.count == small_config.n
        assert network.node_costs().shape == (small_config.n,)
        assert network.alice_ledger.owner == "alice"
        assert network.node_ledgers.owner_prefix == "node"

    def test_budgets_assigned(self, small_config):
        network = Network(small_config)
        assert network.alice_ledger.budget == pytest.approx(small_config.alice_budget)
        assert network.node_ledgers.budget == pytest.approx(small_config.node_budget)
        assert network.adversary_ledger.budget == pytest.approx(small_config.adversary_total_budget)

    def test_adversary_budget_enforced_by_default(self, small_config):
        network = Network(small_config)
        assert network.adversary_ledger.policy is BudgetPolicy.CAP

    def test_cost_snapshot_fresh_network(self, small_config):
        snapshot = Network(small_config).cost_snapshot()
        assert snapshot == {
            "alice": 0.0,
            "adversary": 0.0,
            "node_mean": 0.0,
            "node_max": 0.0,
            "node_total": 0.0,
        }

    def test_cost_snapshot_reads_the_ledger_rows_without_a_copy(self, monkeypatch):
        network = Network(SimulationConfig(n=8, seed=1))
        network.node_ledgers.charge_bulk_many(
            EnergyOperation.LISTEN, np.array([1, 3, 6]), np.array([2.0, 9.0, 4.0])
        )
        network.node_ledgers.charge_bulk_many(
            EnergyOperation.SEND, np.array([0, 6]), np.array([1.0, 7.0])
        )
        costs = network.node_costs()

        def no_copy(self):
            raise AssertionError("cost_snapshot copied the ledger rows")

        monkeypatch.setattr(type(network.node_ledgers), "spent_array", no_copy)
        snapshot = network.cost_snapshot()
        assert snapshot["node_total"] == costs.sum() == 23.0
        assert snapshot["node_mean"] == costs.mean()
        assert snapshot["node_max"] == costs.max() == 11.0
        assert network.node_ledgers.max_spent() == 11.0
        assert LedgerArray("correct", 0, 5.0).max_spent() == 0.0

    def test_adversary_ledger_caps_at_budget(self):
        network = Network(SimulationConfig(n=8, seed=1))
        network.adversary_ledger.charge_bulk(
            EnergyOperation.JAM, network.config.adversary_total_budget + 4.0
        )
        assert network.adversary_cost == network.config.adversary_total_budget

    def test_seed_override_changes_randomness(self, small_config):
        a = Network(small_config).random_source.stream("x").random(4)
        b = Network(small_config, seed=999).random_source.stream("x").random(4)
        assert not (a == b).all()
