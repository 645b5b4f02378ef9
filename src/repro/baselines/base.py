"""Shared machinery for baseline broadcast protocols.

The baselines exist so the experiments can reproduce the paper's *positioning*
claims: the naive always-retransmit strategy pays ``Θ(T)`` per device, the
King–Saia–Young line of work pays ``O(T^{0.62})`` at the sender but ``Θ(T)``
at each receiver, and a simple balanced epoch-backoff achieves ``O(T^{1/2})``
on both sides — all strictly worse than ε-Broadcast's ``Õ(T^{1/(k+1)})``.

Every baseline is an *epoch* protocol: epoch ``i`` is a single
:class:`~repro.simulation.phaseplan.PhasePlan` of geometrically growing length
in which Alice transmits and uninformed nodes listen with epoch-specific
probabilities.  Baselines are deliberately given two advantages ε-Broadcast
does not enjoy — an oracle that stops the run once every node is informed
(they have no termination mechanism of their own) and freedom from the
request-phase overhead — so the cost comparison against them is conservative.
"""

from __future__ import annotations

import abc
import math
from typing import Optional

from ..adversary.base import Adversary
from ..adversary.none import NullAdversary
from ..observability.trace import NULL_RECORDER, TraceRecorder
from ..simulation.config import SimulationConfig
from ..simulation.network import Network
from ..simulation.phaseplan import PhaseKind, PhasePlan, PhaseResult, PhaseRoles
from ..core.driver import EngineSpec, PhaseDriver, resolve_engine
from ..core.outcome import BroadcastOutcome
from ..core.state import ProtocolState

__all__ = ["EpochBaseline"]


class EpochBaseline(abc.ABC):
    """Base class for epoch-structured baseline broadcast protocols.

    The run stops after epoch :attr:`max_epoch`: two epochs past the point
    where a single epoch outlasts Carol's entire aggregate budget, so a
    baseline always finishes once the jamming stops.

    Parameters
    ----------
    config:
        Model parameters shared with ε-Broadcast runs.
    adversary:
        Carol's strategy; defaults to no attack.
    engine:
        ``"fast"`` (default) or ``"slot"``.
    network:
        An existing :class:`~repro.simulation.network.Network` to reuse;
        constructed from ``config`` when omitted.
    recorder:
        A :class:`~repro.observability.trace.TraceRecorder` for the run's
        ``"run-start"`` / ``"phase"`` / ``"run-end"`` events — the same stream
        ε-Broadcast runs emit.
    """

    protocol_name = "epoch-baseline"

    def __init__(
        self,
        config: SimulationConfig,
        adversary: Optional[Adversary] = None,
        engine: EngineSpec = "fast",
        network: Optional[Network] = None,
        recorder: Optional[TraceRecorder] = None,
    ) -> None:
        self.config = config
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.adversary = adversary if adversary is not None else NullAdversary()
        self.network = network if network is not None else Network(config)
        # Topology-dependent strategies (e.g. spatial disk jammers) resolve
        # their victim sets against the realised network; no-op by default.
        self.adversary.bind_network(self.network)
        self.engine = resolve_engine(engine, self.network)
        horizon = max(config.adversary_total_budget, float(config.n))
        self.max_epoch = int(math.ceil(math.log2(horizon))) + 2

    # ------------------------------------------------------------------ #
    # Per-epoch behaviour supplied by subclasses                          #
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def epoch_length(self, epoch: int) -> int:
        """Number of slots in epoch ``i``."""

    @abc.abstractmethod
    def alice_send_probability(self, epoch: int) -> float:
        """Alice's per-slot sending probability during epoch ``i``."""

    @abc.abstractmethod
    def node_listen_probability(self, epoch: int) -> float:
        """An uninformed node's per-slot listening probability during epoch ``i``."""

    # ------------------------------------------------------------------ #
    # Execution                                                           #
    # ------------------------------------------------------------------ #

    def epoch_plan(self, epoch: int) -> PhasePlan:
        """The phase plan realising epoch ``i``."""

        return PhasePlan(
            name=f"epoch:{epoch}",
            kind=PhaseKind.INFORM,
            round_index=epoch,
            num_slots=self.epoch_length(epoch),
            alice_send_prob=self.alice_send_probability(epoch),
            uninformed_listen_prob=self.node_listen_probability(epoch),
        )

    def run(self) -> BroadcastOutcome:
        """Execute the baseline until every node is informed (or the cap)."""

        state = ProtocolState(self.config.n)
        driver = PhaseDriver(
            self.protocol_name, self.config, self.network, self.engine, self.adversary, self.recorder
        )
        driver.start()
        terminated_by_cap = True
        epoch = 0
        for epoch in range(1, self.max_epoch + 1):
            roles = PhaseRoles(active_uninformed=state.active_uninformed_array(), alice_active=True)
            driver.step(self.epoch_plan(epoch), roles, state, epoch, self._apply_result)
            if state.active_uninformed_count() == 0:
                terminated_by_cap = False
                break

        # The oracle stops Alice the moment the last node is informed.
        state.terminate_alice(epoch)
        state.terminate_uninformed(state.active_uninformed_array(), self.max_epoch)
        self.final_state = state
        return driver.finish(state, round_index=epoch, terminated_by_cap=terminated_by_cap)

    def _apply_result(
        self,
        plan: PhasePlan,
        roles: PhaseRoles,
        result: PhaseResult,
        state: ProtocolState,
        round_index: int,
        slot: int,
    ) -> None:
        if result.newly_informed.size:
            state.mark_informed(result.newly_informed, slot=slot)
            # Baseline receivers stop as soon as they hold the message.
            state.terminate_informed(result.newly_informed, round_index)
