"""The per-phase driver shared by every orchestrator.

A protocol run — ε-Broadcast, one of its variants, or an epoch baseline — is
a loop over phases.  The loop *shape* differs between them (rounds of
inform / propagation / request phases versus one growing epoch at a time),
but every phase goes through the same steps: show the adversary a
:class:`~repro.simulation.phaseplan.PhaseContext`, let it commit to a jam
plan, hand the phase to the engine, advance the slot counter, apply the
protocol's state transitions, let the adversary observe the result, and
record the phase.  :class:`PhaseDriver` owns those steps, the run's slot
counter (an ``int``: each phase's slot window is its
:class:`~repro.simulation.events.PhaseRecord`'s ``start_slot`` and
``num_slots``) and :class:`~repro.simulation.events.EventLog`, the
``"run-start"`` /
``"phase"`` / ``"run-end"`` trace events, and outcome assembly.  The
orchestrators keep only their loop shape and their state-transition hook, so
ε-Broadcast and the baselines it is compared against are measured by the same
machinery.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

from ..adversary.base import Adversary
from ..observability.trace import TraceEvent, TraceRecorder
from ..simulation.config import SimulationConfig
from ..simulation.engine import SlotEngine
from ..simulation.errors import ConfigurationError
from ..simulation.events import EventLog, PhaseRecord
from ..simulation.fastengine import PhaseEngine
from ..simulation.metrics import CostBreakdown, DeliveryStats
from ..simulation.network import Network
from ..simulation.phaseplan import PhaseContext, PhasePlan, PhaseResult, PhaseRoles
from .outcome import BroadcastOutcome
from .state import ProtocolState

__all__ = ["Engine", "EngineSpec", "PhaseDriver", "StateTransition", "resolve_engine"]

Engine = Union[SlotEngine, PhaseEngine]
EngineSpec = Union[str, SlotEngine, PhaseEngine]

#: A protocol's state-transition hook, called once per phase as
#: ``apply(plan, roles, result, state, round_index, slot)`` where ``slot`` is
#: the slot counter at the end of the phase.
StateTransition = Callable[[PhasePlan, PhaseRoles, PhaseResult, ProtocolState, int, int], None]


def resolve_engine(spec: EngineSpec, network: Network) -> Engine:
    """The engine ``spec`` names (``"fast"`` or ``"slot"``) over ``network``.

    An already-constructed engine is returned unchanged.
    """

    if isinstance(spec, (SlotEngine, PhaseEngine)):
        return spec
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
    ) -> None:
        self.protocol_name = protocol_name
        self.config = config
        self.network = network
        self.engine = engine
        self.adversary = adversary
        self.recorder = recorder
        self.slot = 0
        """Slots executed so far: the index of the next phase's first slot."""
        self.log = EventLog()

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

        apply(plan, roles, result, state, round_index, self.slot)

        adversary.observe_result(context, result)
        terminated_informed = state.terminated_informed_count()
        terminated_uninformed = state.terminated_uninformed_count()
        # Phase records are cheap (one per phase) and outcome assembly relies
        # on them, so they are always recorded; the orchestrator decides
        # whether the log is attached to the returned outcome.
        record = PhaseRecord(
            round_index=round_index,
            phase_name=plan.name,
            num_slots=plan.num_slots,
            start_slot=start_slot,
            jammed_slots=result.jammed_slots,
            adversary_spend=result.adversary_spend,
            newly_informed=int(result.newly_informed.size),
            alice_cost=network.alice_cost - alice_before,
            nodes_cost=network.node_ledgers.total_spent - nodes_before,
            active_uninformed_after=state.active_uninformed_count(),
            terminated_after=terminated_informed + terminated_uninformed,
        )
        self.log.record_phase(record)
        recorder = self.recorder
        if recorder.enabled:
            recorder.record(
                TraceEvent(
                    kind="phase",
                    round_index=round_index,
                    phase=plan.name,
                    data={
                        "kind": plan.kind.value,
                        "step": plan.step,
                        "num_slots": plan.num_slots,
                        "start_slot": start_slot,
                        "newly_informed": record.newly_informed,
                        "informed_total": state.informed_count(),
                        "frontier": state.active_informed_count(),
                        "active_uninformed": record.active_uninformed_after,
                        "terminated_informed": terminated_informed,
                        "terminated_uninformed": terminated_uninformed,
                        "jammed_slots": result.jammed_slots,
                        "busy_slots": result.busy_slots,
                        "delivery_slots": result.delivery_slots,
                        "spoofed_transmissions": result.spoofed_transmissions,
                        "adversary_spend": result.adversary_spend,
                        "alice_cost": record.alice_cost,
                        "nodes_cost": record.nodes_cost,
                        "alice_noisy_heard": result.alice_noisy_heard,
                        "request_noisy_total": float(result.node_noisy_heard.sum()),
                    },
                )
            )
        return result

    def finish(
        self,
        state: ProtocolState,
        *,
        round_index: int,
        terminated_by_cap: bool,
        record_events: bool = True,
        extra: Optional[Dict[str, float]] = None,
    ) -> BroadcastOutcome:
        """Assemble the run's outcome and emit the ``"run-end"`` event.

        ``round_index`` labels the ``"run-end"`` event; ``record_events``
        attaches the phase log to the outcome; ``extra`` becomes the
        outcome's protocol-specific metrics.
        """

        network = self.network
        delivery = DeliveryStats(
            n=self.config.n,
            informed=state.informed_count(),
            terminated_informed=state.terminated_informed_count(),
            terminated_uninformed=state.terminated_uninformed_count(),
            slots_elapsed=self.slot,
            rounds_executed=self.log.rounds_executed(),
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
            events=self.log if record_events else None,
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
