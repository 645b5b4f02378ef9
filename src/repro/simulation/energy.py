"""Energy accounting.

Energy is the central resource of the paper: sending, listening, jamming, or
altering a message each cost one unit, while sleeping is free.  The
:class:`EnergyLedger` records per-operation expenditure for a device, and either
*caps* it at the budget (Carol, whose jamming must stop when her budget is
exhausted) or merely *records* it (Alice, whose budget sufficiency is a
theorem we check rather than a constraint we impose).

The ``n`` correct nodes are a homogeneous population with one budget, which
they too only record, so their accounting is not ``n`` ledger objects but one
:class:`LedgerArray`: numpy rows indexed by node id, any subset of which is
charged in one vector operation (:meth:`LedgerArray.charge_bulk_many`).  Both
engines charge nodes only through it — the vectorised engine once per phase
cohort, the slot engine once per operation at the end of each phase.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .errors import ConfigurationError

__all__ = ["EnergyOperation", "EnergyLedger", "BudgetPolicy", "LedgerArray"]


class EnergyOperation(enum.Enum):
    """The unit-cost operations of the paper's cost model."""

    SEND = "send"
    LISTEN = "listen"
    JAM = "jam"
    SPOOF = "spoof"

    @property
    def unit_cost(self) -> float:
        """All modelled operations cost exactly one unit (sleeping is free)."""

        return 1.0


class BudgetPolicy(enum.Enum):
    """How a ledger reacts when expenditure would exceed the budget."""

    RECORD = "record"
    """Record the overdraft but allow it (used for Alice)."""

    CAP = "cap"
    """Silently refuse the operation and report failure to the caller."""


@dataclass
class EnergyLedger:
    """Per-device energy ledger.

    Parameters
    ----------
    owner:
        Human-readable owner label used in error messages (e.g. ``"node:17"``).
    budget:
        The device's energy budget.  ``math.inf`` disables budget pressure.
    policy:
        What to do when an operation would push expenditure past the budget.
    """

    owner: str
    budget: float
    policy: BudgetPolicy = BudgetPolicy.RECORD
    _spent: float = field(default=0.0, init=False)
    _by_operation: Dict[EnergyOperation, float] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ConfigurationError(f"budget for {self.owner!r} must be non-negative, got {self.budget}")

    @property
    def spent(self) -> float:
        """Total energy spent so far."""

        return self._spent

    @property
    def remaining(self) -> float:
        """Budget minus expenditure, floored at 0."""

        return max(self.budget - self._spent, 0.0)

    @property
    def exhausted(self) -> bool:
        """``True`` once the device can no longer afford a unit-cost operation."""

        return self.remaining < 1.0 and not math.isinf(self.budget)

    def spent_on(self, operation: EnergyOperation) -> float:
        """Energy spent on a particular operation kind."""

        return self._by_operation.get(operation, 0.0)

    def can_afford(self, units: float = 1.0) -> bool:
        """Whether ``units`` more energy can be spent without exceeding the budget."""

        if math.isinf(self.budget):
            return True
        return self._spent + units <= self.budget + 1e-9

    def charge(self, operation: EnergyOperation, units: float = 1.0) -> bool:
        """Charge ``units`` of ``operation`` to this ledger.

        Returns ``True`` if the expenditure was applied and ``False`` if it was
        refused (only possible under :attr:`BudgetPolicy.CAP`).
        """

        if units < 0:
            raise ConfigurationError(f"cannot charge negative energy ({units}) to {self.owner!r}")
        if units == 0:
            return True
        if self.policy is BudgetPolicy.CAP and not self.can_afford(units):
            return False
        self._spent += units
        self._by_operation[operation] = self._by_operation.get(operation, 0.0) + units
        return True

    def charge_bulk(self, operation: EnergyOperation, units: float) -> float:
        """Charge up to ``units`` of ``operation``, capping at the budget.

        Used by the vectorised engine, which knows in aggregate how many slots
        a device used in a phase.  Returns the number of units actually
        charged (which is less than ``units`` only under CAP when the budget
        binds).
        """

        if units < 0:
            raise ConfigurationError(f"cannot charge negative energy ({units}) to {self.owner!r}")
        if units == 0:
            return 0.0
        if self.policy is BudgetPolicy.CAP and not self.can_afford(units):
            units = self.remaining
            if units <= 0:
                return 0.0
        self._spent += units
        self._by_operation[operation] = self._by_operation.get(operation, 0.0) + units
        return units

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EnergyLedger(owner={self.owner!r}, spent={self._spent:g}, budget={self.budget:g})"


class LedgerArray:
    """Array-backed energy accounting for a homogeneous device population.

    One shared ``budget`` and one numpy row per device.  Charges are only
    recorded, never refused: a correct node's budget sufficiency is a theorem
    to check, not a limit to impose.  Every charge goes through
    :meth:`charge_bulk_many`; reads go through :attr:`total_spent`,
    :meth:`max_spent`, :meth:`spent_array` and :meth:`spent_on_array`.

    Parameters
    ----------
    owner_prefix:
        Label stem for per-device owners (device ``i`` is ``"{prefix}:{i}"``).
    count:
        Number of devices in the population.
    budget:
        The shared per-device energy budget.
    """

    def __init__(self, owner_prefix: str, count: int, budget: float) -> None:
        if count < 0:
            raise ConfigurationError(f"ledger array count must be non-negative, got {count}")
        if budget < 0:
            raise ConfigurationError(
                f"budget for {owner_prefix!r} must be non-negative, got {budget}"
            )
        self.owner_prefix = owner_prefix
        self.count = count
        self.budget = float(budget)
        self._spent = np.zeros(count, dtype=float)
        self._by_operation: Dict[EnergyOperation, np.ndarray] = {}
        self.total_spent = 0.0
        """Running sum of every row's expenditure, kept by each charge path.

        Equal to ``spent_array().sum()`` without copying or summing the rows;
        exact while charges are integer-valued (every engine charges whole
        slots).
        """

    # ------------------------------------------------------------------ #
    # Bulk interface (the vectorised engine's hot path)                   #
    # ------------------------------------------------------------------ #

    def charge_bulk_many(
        self, operation: EnergyOperation, indices, units
    ) -> np.ndarray:
        """Charge ``units[i]`` of ``operation`` to device ``indices[i]``, vectorised.

        The array analogue of calling :meth:`EnergyLedger.charge_bulk` once
        per device under ``RECORD``: no budget is read.  ``indices`` must be
        distinct rows in ``[0, count)`` and ``units`` non-negative,
        else :class:`ConfigurationError`; for the strictly increasing cohorts
        the engines pass, each check is one vector pass.  The charge itself
        adds ``units`` to the rows' totals and to their per-operation rows
        and to :attr:`total_spent`.  The two row updates go through a slice
        when ``indices`` is a strictly increasing run with no gap (the
        engines' cohort of every uninformed node is ``0 … n−1`` until a
        node is informed or terminates) and through indexed updates otherwise; both
        make the same additions to the same elements.  A cost vector of
        zeros changes no reading, so the engines skip such calls.  Returns
        the per-device units charged (``units`` as a float array).
        """

        indices = np.asarray(indices, dtype=np.int64)
        units = np.asarray(units, dtype=float)
        if units.shape != indices.shape:
            raise ConfigurationError(
                f"charge_bulk_many needs one unit amount per index: "
                f"{indices.shape} indices vs {units.shape} units"
            )
        if indices.size == 0:
            return units.copy()
        # Every engine passes a strictly increasing cohort, which one pass
        # confirms, and its range is then its first and last row; only
        # other orders pay for a sorted copy.
        ordered = indices
        if np.count_nonzero(indices[1:] <= indices[:-1]):
            ordered = np.sort(indices)
            repeated = ordered[1:] == ordered[:-1]
            if repeated.any():
                raise ConfigurationError(
                    f"charge_bulk_many got row {int(ordered[1:][repeated][0])} "
                    f"of {self.owner_prefix!r} more than once"
                )
        if ordered[0] < 0 or ordered[-1] >= self.count:
            bad = int(ordered[0] if ordered[0] < 0 else ordered[-1])
            raise ConfigurationError(
                f"charge_bulk_many got row {bad} outside {self.owner_prefix!r}'s "
                f"{self.count} rows"
            )
        if units.min() < 0:
            raise ConfigurationError(
                f"cannot charge negative energy to {self.owner_prefix!r}"
            )
        # An increasing cohort with no gap is its row range: update a slice.
        rows = indices
        if ordered is indices and indices[-1] - indices[0] == indices.size - 1:
            rows = slice(int(indices[0]), int(indices[-1]) + 1)
        self._spent[rows] += units
        self.total_spent += float(units.sum())
        per_op = self._by_operation.get(operation)
        if per_op is None:
            per_op = self._by_operation.setdefault(operation, np.zeros(self.count, dtype=float))
        per_op[rows] += units
        return units

    def spent_array(self) -> np.ndarray:
        """Copy of per-device total expenditure, indexed by device row."""

        return self._spent.copy()

    def max_spent(self) -> float:
        """The largest per-device expenditure (0 for an empty population), without a copy."""

        return float(self._spent.max()) if self.count else 0.0

    def spent_on_array(self, operation: EnergyOperation) -> np.ndarray:
        """Copy of per-device expenditure on ``operation`` (zeros if never charged)."""

        per_op = self._by_operation.get(operation)
        return np.zeros(self.count, dtype=float) if per_op is None else per_op.copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LedgerArray(owner_prefix={self.owner_prefix!r}, count={self.count}, "
            f"budget={self.budget:g})"
        )

