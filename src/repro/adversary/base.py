"""Adversary strategy base class.

Every concrete adversary ("Carol") derives from :class:`Adversary`.  Each
orchestrator's :class:`~repro.core.driver.PhaseDriver` shows the strategy a
:class:`~repro.simulation.phaseplan.PhaseContext` before each phase — the
upcoming plan and roles plus everything else an adaptive adversary is allowed
to know — and the strategy answers with a
:class:`~repro.simulation.phaseplan.JamPlan`.  After the phase executes, the
strategy is shown the :class:`~repro.simulation.phaseplan.PhaseResult`, so
adaptive strategies keep whatever history they need in their own state.

Budget enforcement is *not* the strategy's job: the engines cap every plan by
Carol's aggregate ledger.  Strategies may nevertheless budget themselves (for
example to realise "spend exactly T" experiment scenarios) via the
``max_total_spend`` knob handled here in the base class.
"""

from __future__ import annotations

import abc
import copy
import math
from typing import ClassVar, Dict, Optional, Tuple

from ..simulation.errors import ConfigurationError
from ..simulation.phaseplan import JamPlan, PhaseContext, PhaseResult
from .parameters import ParamSpec

__all__ = ["Adversary"]


class Adversary(abc.ABC):
    """Base class for all jamming / spoofing strategies.

    Parameters
    ----------
    max_total_spend:
        Optional self-imposed cap on Carol's total expenditure.  Useful for
        experiments that sweep the adversary's spend ``T`` independently of
        her full budget.  ``None`` means "spend up to the ledger budget".
    """

    name: str = "adversary"

    #: Tunable parameters for introspection and search.  Each spec names a
    #: plain attribute on the instance (subclasses with derived state hook
    #: :meth:`_set_parameter` / :meth:`_validate_parameters` instead of
    #: redefining the surface).  An empty tuple is a legitimate declaration
    #: — e.g. ``NullAdversary`` has nothing to tune — and still satisfies
    #: the tournament's conformance contract.
    tunable: ClassVar[Tuple[ParamSpec, ...]] = ()

    def __init__(self, max_total_spend: Optional[float] = None) -> None:
        if max_total_spend is not None and max_total_spend < 0:
            raise ConfigurationError(
                f"max_total_spend must be non-negative, got {max_total_spend}"
            )
        self.max_total_spend = max_total_spend
        self._spent = 0.0

    # ------------------------------------------------------------------ #
    # Template method                                                     #
    # ------------------------------------------------------------------ #

    def bind_network(self, network) -> None:
        """Attach the strategy to the realised network before the first phase.

        Called once by the orchestrator after the
        :class:`~repro.simulation.network.Network` (and hence the realised
        topology) exists.  The default is a no-op; strategies whose plans
        depend on the realised topology — e.g.
        :class:`~repro.adversary.spatial.SpatialJammer` resolving its disk
        into a victim set — override it.
        """

    def observe_phase(self, context: PhaseContext) -> None:
        """See the upcoming phase before committing a plan.

        Called exactly once per phase by every orchestrator, *before*
        :meth:`plan_phase`.  This is the re-resolution hook for strategies
        whose victim set is a function of time: mobile disk jammers advance
        their trajectory and re-resolve victims here, and adaptive strategies
        may inspect the context's roles.  Unlike :meth:`plan_phase` — which
        combining strategies only forward to the sub-strategy they select —
        the hook is forwarded to *every* nested strategy every phase, so an
        unselected jammer keeps moving while it idles.  The default is a
        no-op.
        """

    def plan_phase(self, context: PhaseContext) -> JamPlan:
        """Return the attack plan for the upcoming phase.

        Applies the self-imposed spend cap around the concrete strategy's
        :meth:`_plan`.
        """

        allowance = self.remaining_allowance(context)
        if allowance <= 0:
            return JamPlan.idle()
        plan = self._plan(context, allowance)
        return self._cap_plan(plan, allowance)

    def observe_result(self, context: PhaseContext, result: PhaseResult) -> None:
        """Add the phase's spend; adaptive subclasses may override to keep history."""

        self._spent += result.adversary_spend

    # ------------------------------------------------------------------ #
    # Parameter introspection                                             #
    # ------------------------------------------------------------------ #

    def tunable_parameters(self) -> Dict[str, ParamSpec]:
        """The strategy's tunable parameters, keyed by name.

        The default reads the class-level :attr:`tunable` declaration;
        combining strategies (``CompositeAdversary``) override this to
        expose their sub-strategies' knobs under prefixed names.
        """

        return {spec.name: spec for spec in type(self).tunable}

    def get_parameter(self, name: str) -> float:
        """Current value of tunable parameter ``name``."""

        spec = self._require_spec(name)
        return getattr(self, spec.name)

    def with_parameters(self, **values: float) -> "Adversary":
        """A deep copy of this (unbound) strategy with parameters replaced.

        Values are validated against each parameter's declared bounds
        before anything is mutated, so a failed call leaves no half-updated
        clone behind.  Must be applied *before* :meth:`bind_network` — the
        tournament's roster factories build a fresh strategy per trial, so
        this is the natural order there.
        """

        if not values:
            return self
        specs = self.tunable_parameters()
        validated = {}
        for name, value in values.items():
            if name not in specs:
                known = ", ".join(sorted(specs)) or "none"
                raise ConfigurationError(
                    f"{type(self).__name__} has no tunable parameter {name!r} (known: {known})"
                )
            validated[name] = specs[name].validate(value)
        clone = copy.deepcopy(self)
        for name, value in validated.items():
            clone._set_parameter(name, value)
        clone._validate_parameters()
        return clone

    def _set_parameter(self, name: str, value: float) -> None:
        """Assign one validated parameter; subclasses with derived state override."""

        setattr(self, name, value)

    def _validate_parameters(self) -> None:
        """Cross-field checks after a :meth:`with_parameters` batch (no-op)."""

    def _require_spec(self, name: str) -> ParamSpec:
        specs = self.tunable_parameters()
        if name not in specs:
            known = ", ".join(sorted(specs)) or "none"
            raise ConfigurationError(
                f"{type(self).__name__} has no tunable parameter {name!r} (known: {known})"
            )
        return specs[name]

    # ------------------------------------------------------------------ #
    # Hooks for subclasses                                                #
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def _plan(self, context: PhaseContext, allowance: float) -> JamPlan:
        """Concrete strategy: decide the attack given a spend allowance."""

    # ------------------------------------------------------------------ #
    # Shared helpers                                                      #
    # ------------------------------------------------------------------ #

    @property
    def spent(self) -> float:
        """Total energy this strategy has spent so far."""

        return self._spent

    def remaining_allowance(self, context: PhaseContext) -> float:
        """How much the strategy may still spend, combining cap and ledger."""

        ledger_remaining = context.adversary_remaining_budget
        if self.max_total_spend is None:
            return ledger_remaining
        return min(ledger_remaining, self.max_total_spend - self._spent)

    @staticmethod
    def _cap_plan(plan: JamPlan, allowance: float) -> JamPlan:
        """Clip a plan so its worst-case spend does not exceed ``allowance``.

        An infinite allowance caps nothing: the plan comes back as it is.
        """

        if allowance <= 0:
            return JamPlan.idle()
        if math.isinf(allowance):
            return plan
        budget = int(math.floor(allowance))

        num_jam = min(plan.num_jam_slots, budget)
        slot_indices = plan.slot_indices
        if slot_indices is not None and len(slot_indices) > budget:
            slot_indices = tuple(slot_indices[:budget])
            jam_committed = len(slot_indices)
        elif slot_indices is not None:
            jam_committed = len(slot_indices)
        else:
            jam_committed = num_jam

        remaining_for_spoofs = max(budget - jam_committed, 0)
        spoof_payload = min(plan.spoof_payload_slots, remaining_for_spoofs)
        remaining_for_spoofs -= spoof_payload
        spoof_nack = min(plan.spoof_nack_slots, remaining_for_spoofs)

        # Rate-based plans cannot be capped exactly in advance; they are
        # bounded by the ledger inside the engines.  We pass them through.
        return JamPlan(
            num_jam_slots=num_jam,
            jam_rate=plan.jam_rate,
            slot_indices=slot_indices,
            targeting=plan.targeting,
            reactive=plan.reactive,
            spoof_nack_slots=spoof_nack,
            spoof_payload_slots=spoof_payload,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(spent={self._spent:g}, cap={self.max_total_spend})"
