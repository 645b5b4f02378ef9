"""Unit tests for the energy ledger (the paper's cost model)."""

from __future__ import annotations

import math

import pytest

from repro.simulation import (
    BudgetPolicy,
    ConfigurationError,
    EnergyLedger,
    EnergyOperation,
)


class TestEnergyOperations:
    def test_all_operations_cost_one_unit(self):
        for operation in EnergyOperation:
            assert operation.unit_cost == 1.0


class TestEnergyLedgerRecording:
    def test_initial_state(self):
        ledger = EnergyLedger(owner="x", budget=10)
        assert ledger.spent == 0
        assert ledger.remaining == 10
        assert not ledger.exhausted

    def test_charge_accumulates(self):
        ledger = EnergyLedger(owner="x", budget=10)
        ledger.charge(EnergyOperation.SEND)
        ledger.charge(EnergyOperation.LISTEN)
        ledger.charge(EnergyOperation.LISTEN)
        assert ledger.spent == 3
        assert ledger.spent_on(EnergyOperation.LISTEN) == 2
        assert ledger.spent_on(EnergyOperation.SEND) == 1

    def test_zero_charge_is_noop(self):
        ledger = EnergyLedger(owner="x", budget=10)
        assert ledger.charge(EnergyOperation.SEND, 0)
        assert ledger.spent == 0

    def test_negative_charge_rejected(self):
        ledger = EnergyLedger(owner="x", budget=10)
        with pytest.raises(ConfigurationError):
            ledger.charge(EnergyOperation.SEND, -1)

    def test_record_policy_allows_overdraft(self):
        ledger = EnergyLedger(owner="x", budget=2, policy=BudgetPolicy.RECORD)
        for _ in range(5):
            assert ledger.charge(EnergyOperation.LISTEN)
        assert ledger.spent == 5
        assert ledger.spent - ledger.budget == 3

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyLedger(owner="x", budget=-1)

    def test_infinite_budget_never_exhausts(self):
        ledger = EnergyLedger(owner="x", budget=math.inf)
        ledger.charge_bulk(EnergyOperation.JAM, 1e9)
        assert not ledger.exhausted
        assert ledger.can_afford(1e12)


class TestEnergyLedgerEnforcement:
    def test_cap_policy_refuses_without_raising(self):
        ledger = EnergyLedger(owner="x", budget=2, policy=BudgetPolicy.CAP)
        assert ledger.charge(EnergyOperation.JAM)
        assert ledger.charge(EnergyOperation.JAM)
        assert not ledger.charge(EnergyOperation.JAM)
        assert ledger.spent == 2

    def test_exhausted_flag(self):
        ledger = EnergyLedger(owner="x", budget=1, policy=BudgetPolicy.CAP)
        assert not ledger.exhausted
        ledger.charge(EnergyOperation.JAM)
        assert ledger.exhausted


class TestChargeBulk:
    def test_bulk_within_budget(self):
        ledger = EnergyLedger(owner="x", budget=100)
        charged = ledger.charge_bulk(EnergyOperation.LISTEN, 40)
        assert charged == 40
        assert ledger.spent == 40

    def test_bulk_cap_truncates(self):
        ledger = EnergyLedger(owner="x", budget=10, policy=BudgetPolicy.CAP)
        charged = ledger.charge_bulk(EnergyOperation.JAM, 25)
        assert charged == 10
        assert ledger.spent == 10
        assert ledger.remaining == 0

    def test_bulk_cap_when_exhausted_returns_zero(self):
        ledger = EnergyLedger(owner="x", budget=1, policy=BudgetPolicy.CAP)
        ledger.charge_bulk(EnergyOperation.JAM, 1)
        assert ledger.charge_bulk(EnergyOperation.JAM, 5) == 0

    def test_bulk_record_allows_overdraft(self):
        ledger = EnergyLedger(owner="x", budget=5, policy=BudgetPolicy.RECORD)
        assert ledger.charge_bulk(EnergyOperation.LISTEN, 9) == 9
        assert ledger.spent - ledger.budget == 4

    def test_bulk_negative_rejected(self):
        ledger = EnergyLedger(owner="x", budget=5)
        with pytest.raises(ConfigurationError):
            ledger.charge_bulk(EnergyOperation.LISTEN, -3)

    def test_bulk_zero_is_noop(self):
        ledger = EnergyLedger(owner="x", budget=5)
        assert ledger.charge_bulk(EnergyOperation.LISTEN, 0) == 0


class TestLedgerArray:
    """Array-backed bulk accounting for the correct-node population."""

    @staticmethod
    def _array(budget=10.0, count=4):
        from repro.simulation import LedgerArray

        return LedgerArray("node", count, budget)

    def test_charge_bulk_many_records_per_device(self):
        import numpy as np

        array = self._array()
        charged = array.charge_bulk_many(
            EnergyOperation.LISTEN, np.array([0, 2]), np.array([3.0, 5.0])
        )
        assert charged.tolist() == [3.0, 5.0]
        assert array.spent_array().tolist() == [3.0, 0.0, 5.0, 0.0]
        assert array.spent_on_array(EnergyOperation.LISTEN).tolist() == [3.0, 0.0, 5.0, 0.0]
        assert array.spent_on_array(EnergyOperation.SEND).tolist() == [0.0] * 4

    def test_charge_bulk_many_matches_per_device_charge_bulk(self):
        """The vector op must be indistinguishable from n charge_bulk calls."""

        import numpy as np

        array = self._array(budget=100.0)
        reference = [EnergyLedger(owner=f"ref:{i}", budget=100.0) for i in range(4)]
        indices = np.array([0, 1, 3])
        units = np.array([2.0, 7.0, 1.5])
        array.charge_bulk_many(EnergyOperation.SEND, indices, units)
        for index, amount in zip(indices, units):
            reference[index].charge_bulk(EnergyOperation.SEND, float(amount))
        for i in range(4):
            assert array.spent_array()[i] == reference[i].spent
            assert array.spent_on_array(EnergyOperation.SEND)[i] == reference[i].spent_on(
                EnergyOperation.SEND
            )

    def test_shape_mismatch_and_negative_rejected(self):
        import numpy as np

        array = self._array()
        with pytest.raises(ConfigurationError):
            array.charge_bulk_many(EnergyOperation.SEND, np.array([0, 1]), np.array([1.0]))
        with pytest.raises(ConfigurationError):
            array.charge_bulk_many(EnergyOperation.SEND, np.array([0]), np.array([-1.0]))

    @pytest.mark.parametrize(
        "rows", [[1, 1], [3, 0, 3], [-1], [0, -2], [4], [2, 4, 1]], ids=repr
    )
    def test_repeated_or_out_of_range_rows_rejected(self, rows):
        """A repeated row would be charged once but totalled twice, and a
        negative row would charge a row counted from the end."""

        import numpy as np

        array = self._array()
        with pytest.raises(ConfigurationError):
            array.charge_bulk_many(EnergyOperation.SEND, np.array(rows), np.ones(len(rows)))
        assert array.spent_array().tolist() == [0.0] * 4
        assert array.total_spent == 0.0

    def test_rows_in_any_order_are_accepted(self):
        import numpy as np

        array = self._array()
        array.charge_bulk_many(EnergyOperation.SEND, np.array([3, 0, 2]), np.array([1.0, 2.0, 3.0]))
        assert array.spent_array().tolist() == [2.0, 0.0, 3.0, 1.0]
        assert array.total_spent == array.spent_array().sum()

    def test_total_spent_tracks_every_charge_path(self):
        """The running total equals the rows' sum after bulk, one-row and overdrawing charges."""

        import numpy as np

        array = self._array(budget=6.0)
        assert array.total_spent == 0.0
        array.charge_bulk_many(EnergyOperation.LISTEN, np.array([0, 2, 3]), np.array([4.0, 1.0, 0.0]))
        array.charge_bulk_many(EnergyOperation.SEND, np.array([1]), np.array([1.0]))
        array.charge_bulk_many(EnergyOperation.LISTEN, np.array([1]), np.array([2.0]))
        array.charge_bulk_many(EnergyOperation.SEND, np.array([0, 2]), np.array([5.0, 6.0]))
        array.charge_bulk_many(EnergyOperation.SEND, np.array([0]), np.array([1.0]))
        array.charge_bulk_many(EnergyOperation.LISTEN, np.array([0]), np.array([4.0]))
        assert array.total_spent == array.spent_array().sum() == 24.0

    def test_network_nodes_are_array_backed(self):
        import numpy as np

        from repro.simulation import Network, SimulationConfig

        network = Network(SimulationConfig(n=8, seed=1))
        network.node_ledgers.charge_bulk_many(EnergyOperation.LISTEN, np.array([3]), np.array([1.0]))
        network.node_ledgers.charge_bulk_many(
            EnergyOperation.SEND, np.arange(8), np.full(8, 2.0)
        )
        costs = network.node_costs()
        assert costs[3] == 3.0 and costs[0] == 2.0
        assert network.node_ledgers.spent_on_array(EnergyOperation.LISTEN)[3] == 1.0
        assert costs.max() == 3.0
