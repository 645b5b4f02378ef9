"""Combining adversary strategies.

Real attacks mix tactics: block the inform phases while budget is plentiful,
then switch to cheap request-phase spoofing to squeeze out extra delay.
:class:`CompositeAdversary` dispatches each phase to the first sub-strategy
that produces a non-idle plan, and :class:`RoundSwitchingAdversary` switches
strategy at a given round boundary.  Both keep a single shared spend cap so
experiment budgets remain meaningful.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence, Tuple

from ..simulation.errors import ConfigurationError
from ..simulation.phaseplan import JamPlan, PhaseContext, PhaseResult
from .base import Adversary
from .parameters import ParamSpec

__all__ = ["CompositeAdversary", "RoundSwitchingAdversary"]


def _prefixed_specs(prefix: str, strategy: Adversary) -> Dict[str, ParamSpec]:
    """A sub-strategy's tunables re-keyed under ``prefix.name``.

    Combining strategies expose their members' knobs this way so the
    tournament can enumerate (and the optimiser search) a composite the
    same as any leaf adversary.  Nesting composes: a composite inside a
    composite yields ``s0.s1.radius``-style names.
    """

    return {
        f"{prefix}.{name}": replace(spec, name=f"{prefix}.{name}")
        for name, spec in strategy.tunable_parameters().items()
    }


class CompositeAdversary(Adversary):
    """Try sub-strategies in priority order; use the first non-idle plan."""

    name = "composite"

    def __init__(
        self,
        strategies: Sequence[Adversary],
        max_total_spend: Optional[float] = None,
    ) -> None:
        super().__init__(max_total_spend=max_total_spend)
        if not strategies:
            raise ConfigurationError("CompositeAdversary requires at least one sub-strategy")
        self.strategies = list(strategies)
        self._last_chosen: Optional[Adversary] = None

    def bind_network(self, network) -> None:
        for strategy in self.strategies:
            strategy.bind_network(network)

    def observe_phase(self, context: PhaseContext) -> None:
        # Every sub-strategy sees every phase — a mobile jammer keeps moving
        # (and re-resolving victims) even while another strategy's plan wins.
        for strategy in self.strategies:
            strategy.observe_phase(context)

    def _plan(self, context: PhaseContext, allowance: float) -> JamPlan:
        for strategy in self.strategies:
            plan = strategy.plan_phase(
                _with_allowance(context, min(allowance, strategy.remaining_allowance(context)))
            )
            if plan.attacks_anything:
                self._last_chosen = strategy
                return plan
        self._last_chosen = None
        return JamPlan.idle()

    def observe_result(self, context: PhaseContext, result: PhaseResult) -> None:
        super().observe_result(context, result)
        if self._last_chosen is not None:
            self._last_chosen.observe_result(context, result)

    # -- parameter introspection: route prefixed names to sub-strategies -- #

    def tunable_parameters(self) -> Dict[str, ParamSpec]:
        specs: Dict[str, ParamSpec] = {}
        for index, strategy in enumerate(self.strategies):
            specs.update(_prefixed_specs(f"s{index}", strategy))
        return specs

    def get_parameter(self, name: str) -> float:
        strategy, inner = self._route(name)
        return strategy.get_parameter(inner)

    def _set_parameter(self, name: str, value: float) -> None:
        strategy, inner = self._route(name)
        strategy._set_parameter(inner, value)

    def _validate_parameters(self) -> None:
        for strategy in self.strategies:
            strategy._validate_parameters()

    def _route(self, name: str) -> Tuple[Adversary, str]:
        prefix, _, inner = name.partition(".")
        if inner and prefix.startswith("s") and prefix[1:].isdigit():
            index = int(prefix[1:])
            if 0 <= index < len(self.strategies):
                return self.strategies[index], inner
        raise ConfigurationError(
            f"CompositeAdversary has no tunable parameter {name!r} "
            f"(known: {', '.join(sorted(self.tunable_parameters())) or 'none'})"
        )


class RoundSwitchingAdversary(Adversary):
    """Use one strategy before ``switch_round`` and another from then on."""

    name = "round_switching"

    tunable = (
        ParamSpec("switch_round", 0, 64, integer=True,
                  description="round index at which the late strategy takes over"),
    )

    def __init__(
        self,
        early: Adversary,
        late: Adversary,
        switch_round: int,
        max_total_spend: Optional[float] = None,
    ) -> None:
        super().__init__(max_total_spend=max_total_spend)
        if switch_round < 0:
            raise ConfigurationError(f"switch_round must be non-negative, got {switch_round}")
        self.early = early
        self.late = late
        self.switch_round = switch_round

    def bind_network(self, network) -> None:
        self.early.bind_network(network)
        self.late.bind_network(network)

    def observe_phase(self, context: PhaseContext) -> None:
        # Both halves track time so the late strategy starts from the right
        # trajectory/victim state at the switch round.
        self.early.observe_phase(context)
        self.late.observe_phase(context)

    def _active(self, context: PhaseContext) -> Adversary:
        return self.early if context.plan.round_index < self.switch_round else self.late

    def _plan(self, context: PhaseContext, allowance: float) -> JamPlan:
        active = self._active(context)
        return active.plan_phase(
            _with_allowance(context, min(allowance, active.remaining_allowance(context)))
        )

    def observe_result(self, context: PhaseContext, result: PhaseResult) -> None:
        super().observe_result(context, result)
        self._active(context).observe_result(context, result)

    # -- parameter introspection: own knob plus early./late. prefixes ---- #

    def tunable_parameters(self) -> Dict[str, ParamSpec]:
        specs = {spec.name: spec for spec in type(self).tunable}
        specs.update(_prefixed_specs("early", self.early))
        specs.update(_prefixed_specs("late", self.late))
        return specs

    def get_parameter(self, name: str) -> float:
        if "." not in name:
            return super().get_parameter(name)
        strategy, inner = self._route(name)
        return strategy.get_parameter(inner)

    def _set_parameter(self, name: str, value: float) -> None:
        if "." not in name:
            super()._set_parameter(name, value)
            return
        strategy, inner = self._route(name)
        strategy._set_parameter(inner, value)

    def _validate_parameters(self) -> None:
        self.early._validate_parameters()
        self.late._validate_parameters()

    def _route(self, name: str) -> Tuple[Adversary, str]:
        prefix, _, inner = name.partition(".")
        if inner and prefix in ("early", "late"):
            return (self.early if prefix == "early" else self.late), inner
        raise ConfigurationError(
            f"RoundSwitchingAdversary has no tunable parameter {name!r} "
            f"(known: {', '.join(sorted(self.tunable_parameters())) or 'none'})"
        )


def _with_allowance(context: PhaseContext, allowance: float) -> PhaseContext:
    """Return a copy of ``context`` with the remaining budget replaced."""

    return PhaseContext(
        plan=context.plan,
        roles=context.roles,
        config=context.config,
        adversary_remaining_budget=allowance,
    )
