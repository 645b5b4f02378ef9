"""Structured trace of a simulation run.

The event log records one *phase-level* summary per executed phase.
Experiments use the phase records to reconstruct how a run unfolded — how
many slots Carol jammed in each phase, how many nodes became informed, when
Alice terminated — without paying the memory cost of a slot trace for
million-slot executions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["PhaseRecord", "EventLog"]


@dataclass(frozen=True)
class PhaseRecord:
    """Summary of one executed phase."""

    round_index: int
    phase_name: str
    num_slots: int
    start_slot: int
    jammed_slots: int
    adversary_spend: float
    newly_informed: int
    alice_cost: float
    nodes_cost: float
    active_uninformed_after: int
    terminated_after: int
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def jammed_fraction(self) -> float:
        """Fraction of the phase's slots that were jammed."""

        if self.num_slots == 0:
            return 0.0
        return self.jammed_slots / self.num_slots


class EventLog:
    """Collects the phase records of one run, in execution order."""

    def __init__(self) -> None:
        self._phases: List[PhaseRecord] = []

    @property
    def phases(self) -> Tuple[PhaseRecord, ...]:
        return tuple(self._phases)

    def record_phase(self, record: PhaseRecord) -> None:
        self._phases.append(record)

    def phases_in_round(self, round_index: int) -> Tuple[PhaseRecord, ...]:
        return tuple(p for p in self._phases if p.round_index == round_index)

    def last_phase(self) -> Optional[PhaseRecord]:
        return self._phases[-1] if self._phases else None

    def total_jammed_slots(self) -> int:
        return sum(p.jammed_slots for p in self._phases)

    def total_slots(self) -> int:
        return sum(p.num_slots for p in self._phases)

    def rounds_executed(self) -> int:
        return len({p.round_index for p in self._phases})

    def __len__(self) -> int:
        return len(self._phases)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventLog(phases={len(self._phases)})"
