"""The per-phase driver shared by every orchestrator.

A protocol run — ε-Broadcast, one of its variants, or an epoch baseline — is
a loop over phases.  The loop *shape* differs between them (rounds of
inform / propagation / request phases versus one growing epoch at a time),
but every phase goes through the same steps: show the adversary a
:class:`~repro.simulation.phaseplan.PhaseContext`, let it commit to a jam
plan, hand the phase to the engine, advance the slot counter, apply the
protocol's state transitions, let the adversary observe the result, and
record the phase.  :class:`PhaseDriver` owns those steps, the run's slot
counter (an ``int``: each phase's slot window is its ``"phase"`` event's
``start_slot`` and ``num_slots``), the ``"run-start"`` / ``"phase"`` /
``"run-end"`` trace events, and outcome assembly.  The ``"phase"`` event is
the run's only per-phase record: the trace receives it, and the outcome
carries the same objects as ``events``.  The orchestrators keep only their
loop shape and their state-transition hook, so ε-Broadcast and the baselines
it is compared against are measured by the same machinery.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from ..adversary.base import Adversary
from ..observability.trace import TraceEvent, TraceRecorder
from ..simulation.config import SimulationConfig
from ..simulation.engine import SlotEngine
from ..simulation.errors import ConfigurationError
from ..simulation.fastengine import PhaseEngine
from ..simulation.metrics import CostBreakdown, DeliveryStats
from ..simulation.network import Network
from ..simulation.phaseplan import PhaseContext, PhasePlan, PhaseResult, PhaseRoles
from .outcome import BroadcastOutcome
from .state import ProtocolState

__all__ = ["Engine", "EngineSpec", "PhaseDriver", "StateTransition", "resolve_engine"]

Engine = Union[SlotEngine, PhaseEngine]

#: An engine name: ``"fast"`` (:class:`PhaseEngine`) or ``"slot"`` (:class:`SlotEngine`).
EngineSpec = str

#: A protocol's state-transition hook, called once per phase as
#: ``apply(plan, roles, result, state, round_index, slot)`` where ``slot`` is
#: the slot counter at the end of the phase.
StateTransition = Callable[[PhasePlan, PhaseRoles, PhaseResult, ProtocolState, int, int], None]


def resolve_engine(spec: EngineSpec, network: Network) -> Engine:
    """The engine ``spec`` names (``"fast"`` or ``"slot"``) over ``network``."""

    if spec == "fast":
        return PhaseEngine(network)
    if spec == "slot":
        return SlotEngine(network)
    raise ConfigurationError(f"unknown engine specification {spec!r}")


class PhaseDriver:
    """Executes one run's phases and assembles its outcome.

    Built once per run; :meth:`start`, then one :meth:`step` per phase, then
    :meth:`finish`.
    """

    def __init__(
        self,
        protocol_name: str,
        config: SimulationConfig,
        network: Network,
        engine: Engine,
        adversary: Adversary,
        recorder: TraceRecorder,
        *,
        record_events: bool = True,
    ) -> None:
        self.protocol_name = protocol_name
        self.config = config
        self.network = network
        self.engine = engine
        self.adversary = adversary
        self.recorder = recorder
        self.slot = 0
        """Slots executed so far: the index of the next phase's first slot."""
        self.rounds_executed = 0
        """Distinct rounds with at least one executed phase (rounds run in order)."""
        self._last_round: Optional[int] = None
        self.events: Optional[List[TraceEvent]] = [] if record_events else None
        """The ``"phase"`` events the outcome carries (``None`` if not kept)."""

    @property
    def adversary_name(self) -> str:
        return getattr(self.adversary, "name", type(self.adversary).__name__)

    def start(self, **details: object) -> None:
        """Emit the ``"run-start"`` event; ``details`` extend its payload."""

        recorder = self.recorder
        if recorder.enabled:
            spec = self.config.topology
            data: Dict[str, object] = {
                "protocol": self.protocol_name,
                "adversary": self.adversary_name,
                "engine": type(self.engine).__name__,
                "n": self.config.n,
                "seed": self.config.seed,
                "k": self.config.k,
                "topology": spec.kind if spec is not None else "single_hop",
            }
            data.update(details)
            recorder.record(TraceEvent(kind="run-start", data=data))

    def step(
        self,
        plan: PhasePlan,
        roles: PhaseRoles,
        state: ProtocolState,
        round_index: int,
        apply: StateTransition,
    ) -> PhaseResult:
        """Execute one phase and apply its state transitions via ``apply``."""

        network = self.network
        adversary = self.adversary
        context = PhaseContext(
            plan=plan,
            roles=roles,
            config=self.config,
            adversary_remaining_budget=network.adversary_ledger.remaining,
        )
        # Per-phase re-resolution hook: mobile/adaptive spatial strategies
        # advance their trajectory and re-resolve victims before planning.
        adversary.observe_phase(context)
        jam_plan = adversary.plan_phase(context)

        alice_before = network.alice_cost
        nodes_before = network.node_ledgers.total_spent

        start_slot = self.slot
        result = self.engine.run_phase(plan, roles, jam_plan, start_slot=start_slot)
        self.slot += plan.num_slots
        if round_index != self._last_round:
            self._last_round = round_index
            self.rounds_executed += 1

        apply(plan, roles, result, state, round_index, self.slot)

        adversary.observe_result(context, result)
        recorder = self.recorder
        if recorder.enabled or self.events is not None:
            event = TraceEvent(
                kind="phase",
                round_index=round_index,
                phase=plan.name,
                data={
                    "kind": plan.kind.value,
                    "step": plan.step,
                    "path": result.path,
                    "num_slots": plan.num_slots,
                    "start_slot": start_slot,
                    "newly_informed": int(result.newly_informed.size),
                    "informed_total": state.informed_count(),
                    "frontier": state.active_informed_count(),
                    "active_uninformed": state.active_uninformed_count(),
                    "terminated_informed": state.terminated_informed_count(),
                    "terminated_uninformed": state.terminated_uninformed_count(),
                    "jammed_slots": result.jammed_slots,
                    "jam_victims": result.jam_victims,
                    "busy_slots": result.busy_slots,
                    "delivery_slots": result.delivery_slots,
                    "spoofed_transmissions": result.spoofed_transmissions,
                    "adversary_spend": result.adversary_spend,
                    "alice_cost": network.alice_cost - alice_before,
                    "nodes_cost": network.node_ledgers.total_spent - nodes_before,
                    "alice_noisy_heard": result.alice_noisy_heard,
                    "request_noisy_total": float(result.node_noisy_heard.sum()),
                },
            )
            if self.events is not None:
                self.events.append(event)
            if recorder.enabled:
                recorder.record(event)
        return result

    def finish(
        self,
        state: ProtocolState,
        *,
        round_index: int,
        terminated_by_cap: bool,
        extra: Optional[Dict[str, float]] = None,
    ) -> BroadcastOutcome:
        """Assemble the run's outcome and emit the ``"run-end"`` event.

        ``round_index`` labels the ``"run-end"`` event; ``extra`` becomes the
        outcome's protocol-specific metrics.
        """

        network = self.network
        delivery = DeliveryStats(
            n=self.config.n,
            informed=state.informed_count(),
            terminated_informed=state.terminated_informed_count(),
            terminated_uninformed=state.terminated_uninformed_count(),
            slots_elapsed=self.slot,
            rounds_executed=self.rounds_executed,
            alice_terminated=state.alice_terminated,
        )
        snapshot = network.cost_snapshot()
        costs = CostBreakdown.from_snapshot(snapshot)
        outcome = BroadcastOutcome(
            protocol=self.protocol_name,
            adversary=self.adversary_name,
            config=self.config,
            delivery=delivery,
            costs=costs,
            events=None if self.events is None else tuple(self.events),
            terminated_by_cap=terminated_by_cap,
            extra=extra or {},
        )
        recorder = self.recorder
        if recorder.enabled:
            recorder.record(
                TraceEvent(
                    kind="run-end",
                    round_index=round_index,
                    data={
                        "informed": delivery.informed,
                        "slots_elapsed": delivery.slots_elapsed,
                        "rounds_executed": delivery.rounds_executed,
                        "terminated_by_cap": terminated_by_cap,
                        "alice_cost": float(snapshot["alice"]),
                        "adversary_spend": float(snapshot["adversary"]),
                        "nodes_cost": float(snapshot["node_total"]),
                    },
                )
            )
        return outcome
