"""Running ε-Broadcast without exact knowledge of ``n`` (§4.2).

The protocol's probabilities refer to ``1/n`` and ``ln n``.  §4.2 observes
that a constant-factor approximation of either value only costs a constant
factor, and that even a *polynomial overestimate* ``ν = n^{c'}`` suffices: for
quantities of the form ``ln n`` the overestimate is itself a constant-factor
approximation (``ln ν = c'·ln n``), and for the ``1/n`` sending probability of
the propagation phase the nodes sweep the unknown scale by repeating each
propagation step with sending probabilities ``1/2, 1/4, …, 1/2^{⌈lg ν⌉}``;
one repetition lands within a factor two of the true ``1/n``, and the extra
repetitions multiply cost and latency by only an ``O(lg ν) = O(log n)``
factor.

:class:`SizeEstimateBroadcast` implements that scheme.  Alice still knows the
true ``n`` (she is the trusted, provisioned sender); only the correct nodes
work from the overestimate, which is the asymmetric situation the section
describes.

Scope note (documented substitution): the paper remarks that "the same
technique can be used in the request phase" without spelling out how the
``5·c·ln n`` noisy-slot termination statistic should be aggregated across the
swept repetitions.  We keep the request phase un-swept — uninformed nodes nack
with probability ``1/ν`` and compare against the ``5·c·ln ν`` threshold — and
evaluate the variant (experiment E8) in the light-jamming regime where the
measurable claim is the ``O(log n)`` cost factor, not worst-case termination
behaviour.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..adversary.base import Adversary
from ..simulation.config import SimulationConfig
from ..simulation.errors import ConfigurationError
from ..simulation.phaseplan import PhaseKind, PhasePlan, PhaseResult, PhaseRoles, clip_probability
from .broadcast import EpsilonBroadcast
from .driver import EngineSpec
from .state import ProtocolState

__all__ = ["SizeEstimateBroadcast"]


class SizeEstimateBroadcast(EpsilonBroadcast):
    """ε-Broadcast where nodes only hold a polynomial overestimate of ``n``.

    Parameters
    ----------
    size_estimate:
        The shared overestimate ``ν ≥ n``.  A common choice in experiments is
        ``ν = n²`` (the paper's ``ν_u = n^{c'}``).
    """

    protocol_name = "epsilon-broadcast-size-estimate"

    def __init__(
        self,
        config: SimulationConfig,
        size_estimate: int,
        adversary: Optional[Adversary] = None,
        engine: EngineSpec = "fast",
        **kwargs: object,
    ) -> None:
        if size_estimate < config.n:
            raise ConfigurationError(
                f"size_estimate ({size_estimate}) must be at least the true n ({config.n})"
            )
        self.size_estimate = int(size_estimate)
        super().__init__(
            config,
            adversary=adversary,
            engine=engine,
            **kwargs,  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------ #
    # Hooks                                                               #
    # ------------------------------------------------------------------ #

    def _node_n(self) -> int:
        # Correct nodes only know the overestimate; every probability they
        # compute uses ν in place of n.
        return self.size_estimate

    @property
    def sweep_exponents(self) -> List[int]:
        """The exponents ``g`` swept by the unknown-``n`` propagation repetitions."""

        top = max(1, int(math.ceil(math.log2(self.size_estimate))))
        return list(range(1, top + 1))

    def _build_round_phases(self, round_index: int) -> List[PhasePlan]:
        base = self.schedule.round_phases(round_index)
        phases: List[PhasePlan] = []
        for plan in base:
            if plan.kind is PhaseKind.PROPAGATION:
                phases.extend(self._sweep_propagation(plan))
            else:
                phases.append(plan)
        return phases

    def _sweep_propagation(self, plan: PhasePlan) -> List[PhasePlan]:
        """Replicate a propagation step once per sweep exponent ``g``."""

        repetitions: List[PhasePlan] = []
        for g in self.sweep_exponents:
            repetitions.append(
                PhasePlan(
                    name=f"{plan.name}@g={g}",
                    kind=plan.kind,
                    round_index=plan.round_index,
                    num_slots=plan.num_slots,
                    step=plan.step,
                    relay_send_prob=clip_probability(1.0 / (2.0 ** g)),
                    uninformed_listen_prob=plan.uninformed_listen_prob,
                    decoy_send_prob=plan.decoy_send_prob,
                )
            )
        return repetitions

    def _apply_result(
        self,
        plan: PhasePlan,
        roles: PhaseRoles,
        result: PhaseResult,
        state: ProtocolState,
        round_index: int,
        slot: int,
    ) -> None:
        """Delay relay termination until the final sweep repetition of a step.

        A relay must stay alive for every repetition ``g = 1 … ⌈lg ν⌉`` of its
        propagation step (that is the whole point of the sweep), so the base
        class's "terminate relays at the end of the step" rule is applied only
        when the repetition with the largest ``g`` finishes.
        """

        if plan.kind is PhaseKind.PROPAGATION and not self._is_final_sweep(plan):
            if result.newly_informed.size:
                state.mark_informed(result.newly_informed, slot=slot)
            return
        super()._apply_result(plan, roles, result, state, round_index, slot)

    def _is_final_sweep(self, plan: PhasePlan) -> bool:
        return plan.name.endswith(f"@g={self.sweep_exponents[-1]}")
