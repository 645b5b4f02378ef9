"""The ε-Broadcast orchestrator.

:class:`EpsilonBroadcast` drives a full protocol execution: it builds the
per-round phase schedules, lets the adversary commit to an attack before each
phase, hands the phase to an execution engine, and applies the protocol's
state transitions (who is informed, who relays, who terminates) to the
results.  The class implements the ``k = 2`` protocol of Figure 1 by default;
the general-``k``, decoy-traffic, and unknown-``n`` variants subclass it and
override narrow hooks.

:class:`MultiHopBroadcast` is the spatial-topology variant: over a Gilbert or
scale-free radio graph Alice's transmissions reach only her neighbourhood, so
informed nodes keep re-running the ε-Broadcast propagation step towards
*their* neighbourhoods — hop by hop — instead of terminating after one relay
step.  A relay retires once no active uninformed neighbour remains, which
recovers exactly the single-hop termination behaviour on a clique.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

import numpy as np

from ..adversary.base import Adversary
from ..adversary.none import NullAdversary
from ..simulation.config import SimulationConfig
from ..simulation.network import Network
from ..simulation.phaseplan import PhaseKind, PhasePlan, PhaseResult, PhaseRoles
from ..observability.trace import NULL_RECORDER, TraceEvent, TraceRecorder
from .driver import EngineSpec, PhaseDriver, resolve_engine
from .outcome import BroadcastOutcome
from .phases import ScheduleBuilder
from .quietrule import QuietRule, resolve_quiet_rule
from .state import ProtocolState
from .termination import apply_request_phase

__all__ = ["EpsilonBroadcast", "MultiHopBroadcast"]

# Shared empty role cohort: roles are built every phase, so the common empty
# arrays (no relays, no decoys) are allocated once.
_EMPTY_IDS = np.zeros(0, dtype=np.int64)
_EMPTY_IDS.setflags(write=False)


class EpsilonBroadcast:
    """Run the ε-Broadcast protocol of Gilbert & Young against an adversary.

    Parameters
    ----------
    config:
        Model parameters (network size, budgets, ``k``, ``ε``).
    adversary:
        The attack strategy Carol plays; defaults to no attack.
    engine:
        ``"fast"`` (vectorised, default) or ``"slot"`` (slot-faithful).
    network:
        An existing :class:`~repro.simulation.network.Network` to reuse;
        constructed from ``config`` when omitted.
    record_events:
        Attach the run's ``"phase"`` trace events to the returned outcome
        as :attr:`~repro.core.outcome.BroadcastOutcome.events`.
    figure:
        Which pseudocode's probabilities to use (1 = Figure 1, 2 = Figure 2).
        Defaults to Figure 1 for ``k = 2`` and Figure 2 otherwise.
    decoy_traffic:
        Enable the §4.1 decoy-traffic modification.
    recorder:
        A :class:`~repro.observability.trace.TraceRecorder` to stream
        phase-level telemetry to; defaults to the no-op
        :data:`~repro.observability.trace.NULL_RECORDER`.  Recording is
        strictly read-only: traced runs are bit-identical to untraced ones.
    """

    protocol_name = "epsilon-broadcast"

    def __init__(
        self,
        config: SimulationConfig,
        adversary: Optional[Adversary] = None,
        engine: EngineSpec = "fast",
        network: Optional[Network] = None,
        record_events: bool = True,
        figure: Optional[int] = None,
        decoy_traffic: bool = False,
        recorder: Optional[TraceRecorder] = None,
    ) -> None:
        self.config = config
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.adversary = adversary if adversary is not None else NullAdversary()
        self.network = network if network is not None else Network(config)
        self.engine = resolve_engine(engine, self.network)
        # Strategies that depend on the realised topology (e.g. spatial disk
        # jammers) override the bind_network hook; the base default is a no-op.
        self.adversary.bind_network(self.network)
        self.record_events = record_events
        self.schedule = ScheduleBuilder(
            config, self._node_n(), figure=figure, decoy_traffic=decoy_traffic
        )
        self._round_phase_cache: Dict[int, List[PhasePlan]] = {}

    def _node_n(self) -> int:
        """The network size the correct nodes compute with (§4.2 overrides it)."""

        return self.config.n

    # ------------------------------------------------------------------ #
    # Execution                                                           #
    # ------------------------------------------------------------------ #

    def run(self) -> BroadcastOutcome:
        """Execute the protocol to completion and return its outcome."""

        state = ProtocolState(self.config.n)
        driver = PhaseDriver(
            self.protocol_name,
            self.config,
            self.network,
            self.engine,
            self.adversary,
            self.recorder,
            record_events=self.record_events,
        )
        terminated_by_cap = False
        driver.start(**self._run_start_data())

        for round_index in self.schedule.rounds:
            for plan in self._iter_round_phases(round_index, state):
                roles = self._roles_for(plan, state)
                driver.step(plan, roles, state, round_index, self._apply_result)
                if state.everyone_done():
                    break
            if state.everyone_done():
                break
        else:
            terminated_by_cap = True
            self._finalize_at_cap(state, round_index)

        # Keep the per-node end state inspectable: experiments that partition
        # delivery by population (e.g. a spatial jammer's victims) need node
        # identities, which the aggregate outcome deliberately drops.
        self.final_state = state
        extra: Dict[str, float] = {}
        if state.alice_terminated_at_round is not None:
            extra["alice_terminated_round"] = float(state.alice_terminated_at_round)
        return driver.finish(
            state,
            round_index=round_index,
            terminated_by_cap=terminated_by_cap,
            extra=extra,
        )

    def _run_start_data(self) -> Dict[str, object]:
        """Variant-specific additions to the ``"run-start"`` event payload."""

        return {}

    # ------------------------------------------------------------------ #
    # Per-phase machinery                                                 #
    # ------------------------------------------------------------------ #

    def _round_phases(self, round_index: int) -> List[PhasePlan]:
        """The (memoised) phase plans of round ``i``.

        Plans are frozen dataclasses and a pure function of the round index
        (the schedule is immutable after construction), so each
        round's list is built once per orchestrator and reused — ``run()``
        used to rebuild it every round, and repeated runs or round-length
        probes paid the construction again.  Variants override
        :meth:`_build_round_phases`, not this accessor, so they inherit the
        memoisation.
        """

        cached = self._round_phase_cache.get(round_index)
        if cached is None:
            cached = self._round_phase_cache[round_index] = self._build_round_phases(round_index)
        return cached

    def _build_round_phases(self, round_index: int) -> List[PhasePlan]:
        return self.schedule.round_phases(round_index)

    def _iter_round_phases(self, round_index: int, state: ProtocolState) -> Iterator[PhasePlan]:
        """Yield the phase plans of round ``i`` in execution order.

        The base protocol's schedule is static, so this simply walks the
        memoised per-round list.  It is a *generator hook*: variants whose
        schedule depends on how the round unfolds (the pipelined multi-hop
        orchestrator appends propagation steps while fresh frontiers remain
        in flight) override it and inspect the mutated ``state`` between
        yields.
        """

        return iter(self._round_phases(round_index))

    def _roles_for(self, plan: PhasePlan, state: ProtocolState) -> PhaseRoles:
        active_uninformed = state.active_uninformed_array()
        relays = (
            state.active_informed_array() if plan.kind is PhaseKind.PROPAGATION else _EMPTY_IDS
        )
        # Decoys ride exactly the phases whose plan carries a decoy rate.
        decoy_senders = active_uninformed if plan.decoy_send_prob > 0.0 else _EMPTY_IDS
        return PhaseRoles(
            active_uninformed=active_uninformed,
            relays=relays,
            decoy_senders=decoy_senders,
            alice_active=not state.alice_terminated,
        )

    def _apply_result(
        self,
        plan: PhasePlan,
        roles: PhaseRoles,
        result: PhaseResult,
        state: ProtocolState,
        round_index: int,
        slot: int,
    ) -> None:
        """Apply protocol state transitions implied by a phase result."""

        if result.newly_informed.size:
            state.mark_informed(result.newly_informed, slot=slot)

        if plan.kind is PhaseKind.PROPAGATION:
            # Relays transmitted during this step and terminate at its end.
            state.terminate_informed(roles.relay_ids, round_index)
            if plan.step >= self.config.k - 1:
                # Final propagation step of the round: nodes informed during it
                # hold the message and have no further role, so they terminate
                # too (§2.1: keeping S_i around is wasteful).
                state.terminate_informed(state.active_informed_array(), round_index)

        if plan.kind is PhaseKind.REQUEST:
            # Informed-but-active nodes can only exist here if the round had no
            # propagation step (k = 2 always has one); terminate them first so
            # the delivery accounting stays exact.
            leftovers = state.active_informed_array()
            if leftovers.size:
                state.terminate_informed(leftovers, round_index)
            apply_request_phase(state, result, self.schedule, round_index)

    def _finalize_at_cap(self, state: ProtocolState, max_round: int) -> None:
        """Force-terminate every remaining participant at the safety cap."""

        if self.recorder.enabled:
            self.recorder.record(
                TraceEvent(
                    kind="cap",
                    round_index=max_round,
                    data={
                        "active_informed": state.active_informed_count(),
                        "active_uninformed": state.active_uninformed_count(),
                        "alice_active": not state.alice_terminated,
                    },
                )
            )
        state.terminate_informed(state.active_informed_array(), max_round)
        state.terminate_uninformed(state.active_uninformed_array(), max_round)
        state.terminate_alice(max_round)


class MultiHopBroadcast(EpsilonBroadcast):
    """ε-Broadcast with a multi-hop relay layer for spatial topologies.

    The paper's protocol assumes one shared channel: a node informed in round
    ``i`` relays during the next propagation step and then terminates, because
    a single relay step already reaches everyone.  Over a spatial
    :class:`~repro.simulation.topology.Topology` that is no longer true — the
    message must travel hop by hop — so this variant changes exactly one rule:

    * an informed node keeps its relay role (re-running the propagation step
      of every subsequent round towards its own neighbourhood) until **no
      active uninformed neighbour remains**, and only then terminates.

    Within one round the propagation steps chain hops: nodes informed in
    step ``h`` relay in step ``h + 1``.  With **pipelining** (the default)
    the round does not stop after the scheduled ``k - 1`` steps — while the
    previous step informed at least one new node and both a relay frontier
    and an uninformed audience remain, the orchestrator appends further
    propagation steps, so multiple overlapping frontiers stay in flight and
    one round can carry the message across the whole component diameter
    instead of ``k - 1`` hops.  ``pipeline=False`` restores the sequential
    one-wave-per-round schedule.

    The request-phase quiet rule retires uninformed nodes whose budgets run
    out; nodes the rule keeps alive indefinitely (infinite budgets, e.g. a
    super-critical neighbourhood in an Alice-less component) are handled by
    **cap-aware truncation**: after every request phase the orchestrator
    checks, with one masked BFS from the live message holders, whether such
    a node can still be reached by ``m`` through active nodes.  Once every
    path is severed by terminated nodes the stall is unfixable — no future
    phase can change the node's state before the round cap — so it is
    terminated immediately and the schedule truncates as soon as every
    component has either delivered or provably stalled, instead of running
    to the cap.  Rules that use the paper's channel-quiet test
    (``channel_quiet_test=True``) are exempt: their run-to-the-cap blowup
    is protocol behaviour the experiments measure, not a harness artefact.

    On a single-hop topology every rule above degenerates to the base
    protocol (a clique relay retires after one step because every neighbour
    is informed), and this class defers to :class:`EpsilonBroadcast` outright
    to keep outcomes bit-identical — the quiet rule is never consulted there.

    Parameters
    ----------
    quiet_rule:
        The request-phase termination policy for uninformed nodes — a
        :class:`~repro.core.quietrule.QuietRule`, a rule name (``"paper"``,
        ``"constant"``, ``"degree-aware"``), or ``None`` for the default
        :class:`~repro.core.quietrule.DegreeAwareQuietRule`.  The paper's
        channel-quiet test was calibrated for one shared channel and misfires
        in both directions on sparse topologies (early give-up inside Alice's
        component, run-to-the-cap mutual sustain in Alice-less components);
        see :mod:`repro.core.quietrule` for the policy catalogue.
    pipeline:
        Keep appending propagation steps to a round while the frontier
        advances (see the class docstring).  ``False`` restores the
        sequential schedule — one relay wave per scheduled step — which the
        equivalence tests use as the reference behaviour.
    """

    protocol_name = "multihop-epsilon-broadcast"

    def __init__(
        self,
        *args: object,
        quiet_rule: Optional[QuietRule | str] = None,
        pipeline: bool = True,
        **kwargs: object,
    ) -> None:
        self.quiet_rule = resolve_quiet_rule(quiet_rule)
        self.pipeline = pipeline
        # Budgets are a pure function of the realised topology (fixed for the
        # orchestrator's lifetime); resolved lazily so single-hop runs — which
        # never consult the rule — skip the neighbourhood statistics.
        self._quiet_budgets: Optional[np.ndarray] = None
        # Pipelined steps beyond the scheduled k - 1 are built on demand and
        # memoised like the static per-round plans.
        self._extra_step_cache: Dict[tuple, PhasePlan] = {}
        super().__init__(*args, **kwargs)

    def _run_start_data(self) -> Dict[str, object]:
        data = super()._run_start_data()
        data["pipeline"] = self.pipeline
        data["quiet_rule"] = type(self.quiet_rule).__name__
        return data

    def _iter_round_phases(self, round_index: int, state: ProtocolState) -> Iterator[PhasePlan]:
        """The multi-hop round schedule, extended while frontiers are in flight.

        Yields the static schedule (inform, propagation steps ``1..k-1``,
        request) and — when pipelining is on and the topology is multi-hop —
        keeps yielding further propagation steps between the scheduled ones
        and the request phase, as long as the previous step informed at
        least one new node and both an active relay frontier and an active
        uninformed audience remain.  The generator inspects the mutated
        ``state`` between yields, so the decision to extend uses exactly the
        protocol-visible information both engines agree on.
        """

        static = self._round_phases(round_index)
        if self.network.topology.is_single_hop or not self.pipeline:
            yield from static
            return
        yield static[0]  # inform
        informed_before = state.informed_count()
        step = 0
        for plan in static[1:-1]:  # scheduled propagation steps 1..k-1
            step = plan.step
            yield plan
        while True:
            informed_after = state.informed_count()
            progressed = informed_after > informed_before
            informed_before = informed_after
            if (
                not progressed
                or state.active_informed_count() == 0
                or state.active_uninformed_count() == 0
            ):
                break
            step += 1
            yield self._extra_propagation_step(round_index, step)
        yield static[-1]  # request

    def _extra_propagation_step(self, round_index: int, step: int) -> PhasePlan:
        key = (round_index, step)
        plan = self._extra_step_cache.get(key)
        if plan is None:
            plan = self._extra_step_cache[key] = self.schedule.propagation_step(
                round_index, step
            )
        return plan

    def _apply_result(
        self,
        plan: PhasePlan,
        roles: PhaseRoles,
        result: PhaseResult,
        state: ProtocolState,
        round_index: int,
        slot: int,
    ) -> None:
        if self.network.topology.is_single_hop:
            super()._apply_result(plan, roles, result, state, round_index, slot)
            return

        if result.newly_informed.size:
            state.mark_informed(result.newly_informed, slot=slot)

        if plan.kind is PhaseKind.REQUEST:
            apply_request_phase(
                state,
                result,
                self.schedule,
                round_index,
                node_channel_test=self.quiet_rule.channel_quiet_test,
            )
            self._apply_quiet_rule(state, round_index)
            self._truncate_stalled(state, round_index)

        if plan.kind in (PhaseKind.PROPAGATION, PhaseKind.REQUEST):
            # Multi-hop relay retirement: a relay stays active while it still
            # has an active uninformed neighbour to serve (request phases can
            # retire relays too — their last neighbours may just have given
            # up).
            self._retire_satisfied_relays(state, round_index)

    def _quiet_rule_budgets(self) -> np.ndarray:
        if self._quiet_budgets is None:
            self._quiet_budgets = self.quiet_rule.budgets(self.network.topology)
        return self._quiet_budgets

    def _apply_quiet_rule(self, state: ProtocolState, round_index: int) -> None:
        """Give up once a node's quiet/nack-only streak exhausts its budget.

        Every request phase an uninformed node completes is quiet or
        nack-only (the message never travels in a request phase), so the
        per-node streak in :class:`~repro.core.state.ProtocolState` counts
        exactly the futile phases the node has sat through.  Budgets come
        from the configured :class:`~repro.core.quietrule.QuietRule` —
        vectorised over the whole cohort via the topology's cached
        degree/neighbourhood arrays, and evaluated after the channel-quiet
        test so a constant budget reproduces the old retry cap bit for bit.
        The counters live on the per-run state, so a reused orchestrator
        starts every run from a zero streak.  A rule with no finite budget
        anywhere (e.g. the paper rule) skips the bookkeeping entirely — the
        streaks stay zero and the per-phase cohort scan is never paid.
        """

        budgets = self._quiet_rule_budgets()
        if not np.isfinite(budgets).any():
            return
        active = state.active_uninformed_array()
        if active.size == 0:
            return
        streaks = state.record_unserved_request_phase(active)
        exhausted = active[streaks[active] >= budgets[active]]
        if exhausted.size:
            state.terminate_uninformed(exhausted, round_index)
            if self.recorder.enabled:
                self.recorder.record(
                    TraceEvent(
                        kind="quiet-expire",
                        round_index=round_index,
                        phase="request",
                        data={
                            "count": int(exhausted.size),
                            "rule": type(self.quiet_rule).__name__,
                        },
                    )
                )

    def _truncate_stalled(self, state: ProtocolState, round_index: int) -> None:
        """Cap-aware schedule truncation: give up on provably unreachable nodes.

        Budget-based quiet rules (``channel_quiet_test=False``) grant some
        nodes an *infinite* streak budget — e.g. the degree-aware rule's
        super-critical neighbourhoods — on the grounds that the relay
        frontier should reach them.  When such a node sits in a component
        the frontier can no longer enter (every path from a live message
        holder is severed by already-terminated nodes), no future phase can
        change its state: it would sit out every remaining round and be
        force-terminated at the cap, holding the channel the whole time.
        One masked BFS from Alice (if active) and the active relays over the
        still-active nodes detects exactly this, and the stalled nodes
        terminate now instead — the run's delivery, per-node transmissions,
        and informed set are untouched; only the schedule truncates.

        Channel-quiet rules (the paper's) are exempt: their run-to-the-cap
        behaviour on sparse topologies is measured protocol behaviour, and
        finite-budget nodes keep their exact streak semantics (a constant
        budget still reproduces the old retry cap bit for bit).

        The BFS runs only if some node or Alice terminated since the last
        one, and skipping it is exact.  Without a termination no holder is
        lost, and each new holder heard ``m`` from a neighbouring holder, so
        the last BFS reached it.  A path from a holder through a new holder
        now starts at that holder, so every node the last BFS reached is
        still reached, and none is doomed.
        """

        if self.quiet_rule.channel_quiet_test:
            return
        if state.terminations == state.reach_checked_at:
            return
        budgets = self._quiet_rule_budgets()
        if not np.isinf(budgets).any():
            return
        active = state.active_uninformed_array()
        if active.size == 0:
            return
        stuck = active[np.isinf(budgets[active])]
        if stuck.size == 0:
            return
        topology = self.network.topology
        passable = np.zeros(topology.n, dtype=bool)
        passable[active] = True
        holders = [state.active_informed_array()]
        if not state.alice_terminated:
            holders.append(np.array([topology.n], dtype=np.int64))
        reached = topology.frontier_reachable(np.concatenate(holders), passable)
        doomed = stuck[~reached[stuck]]
        if doomed.size:
            state.terminate_uninformed(doomed, round_index)
            if self.recorder.enabled:
                self.recorder.record(
                    TraceEvent(
                        kind="truncate",
                        round_index=round_index,
                        phase="request",
                        data={
                            "count": int(doomed.size),
                            "still_stuck": int(stuck.size - doomed.size),
                        },
                    )
                )
        # Terminating nodes the BFS did not reach cuts no holder's path.
        state.reach_checked_at = state.terminations

    def _retire_satisfied_relays(self, state: ProtocolState, round_index: int) -> None:
        relays = state.active_informed_array()
        if relays.size == 0:
            return
        # One CSR neighbourhood slice answers "does any active uninformed
        # neighbour remain?" for the whole frontier at once — O(sum of relay
        # degrees) instead of per-relay Python set intersections, which is
        # what keeps the relay layer viable at n >> 10^4.  Both cohorts are
        # the state's cached arrays: no sets are materialised or sorted here.
        still_needed = self.network.topology.any_neighbor_in(
            relays, state.active_uninformed_array()
        )
        satisfied = relays[~still_needed]
        if satisfied.size:
            state.terminate_informed(satisfied, round_index)
