"""Spatial (disk) jamming.

Over a spatial :class:`~repro.simulation.topology.Topology` Carol does not
have to blast the whole deployment: a physical jammer has a position and a
range, so she can blanket a *disk* of the unit square and only listeners
inside it perceive noise.  :class:`SpatialJammer` models exactly that — it
resolves its disk against the run's topology into the listener set of a
:class:`~repro.simulation.channel.JamTargeting` and jams payload-carrying
phases for those victims only.

Spatial jamming is the geometric analogue of the paper's n-uniform targeting
(§2.3): the victim set is chosen by geography instead of by identity.  On a
single-hop topology a disk covers the whole clique, so the strategy degrades
gracefully into a plain phase blocker.

The adversary needs the realised topology (positions are sampled per seed),
which only exists once the :class:`~repro.simulation.network.Network` is
built; orchestrators therefore call :meth:`SpatialJammer.bind_network` before
the first phase.  Strategies without that hook are unaffected.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..simulation.auth import ALICE_ID
from ..simulation.channel import JamTargeting
from ..simulation.errors import ConfigurationError
from ..simulation.phaseplan import JamPlan, PhaseContext, PhaseKind
from ..simulation.setops import isin_sorted
from .base import Adversary
from .parameters import ParamSpec

__all__ = ["SpatialJammer", "plan_disk_jam"]


def plan_disk_jam(
    context: PhaseContext,
    victims: np.ndarray,
    jam_request_phases: bool = False,
) -> JamPlan:
    """The shared "jam payload slots for a victim set" planning rule.

    Used by :class:`SpatialJammer` and every mobile variant in
    :mod:`repro.adversary.mobility`: jam all slots of payload-carrying phases
    (optionally request phases too), targeted at the sorted id array
    ``victims``, and idle whenever no *active* victim would perceive the
    noise — jamming outside the victims' earshot is wasted energy.  Payload
    phases matter only to the disk's uninformed listeners; Alice (who listens
    in request phases alone) only when this is one.
    """

    if not victims.size:
        return JamPlan.idle()
    if context.plan.kind is PhaseKind.REQUEST and not jam_request_phases:
        return JamPlan.idle()
    if not context.plan.carries_payload and context.plan.kind is not PhaseKind.REQUEST:
        return JamPlan.idle()
    active = isin_sorted(victims, context.roles.active_uninformed_ids)
    if context.plan.kind is PhaseKind.REQUEST:
        active |= victims == ALICE_ID
    if not active.any():
        return JamPlan.idle()
    return JamPlan(
        num_jam_slots=context.plan.num_slots,
        targeting=JamTargeting.only(victims),
    )


class SpatialJammer(Adversary):
    """Jam every payload-carrying slot inside a disk of the deployment area.

    Parameters
    ----------
    center:
        Centre of the jammed disk in the unit square.
    radius:
        Radius of the jammed disk.
    max_total_spend:
        Optional cap on total expenditure (the experiment knob ``T``).
    jam_request_phases:
        Also jam request phases (delays termination inside the disk at extra
        cost).  Off by default, matching the splitter's economy of §2.3.
    """

    name = "spatial"

    tunable = (
        ParamSpec("radius", 0.02, 0.5,
                  description="jamming-disk radius in the unit square"),
    )

    def __init__(
        self,
        center: Tuple[float, float] = (0.5, 0.5),
        radius: float = 0.25,
        max_total_spend: Optional[float] = None,
        jam_request_phases: bool = False,
    ) -> None:
        super().__init__(max_total_spend=max_total_spend)
        if radius < 0:
            raise ConfigurationError(f"jam radius must be non-negative, got {radius}")
        self.center = (float(center[0]), float(center[1]))
        self.radius = float(radius)
        self.jam_request_phases = jam_request_phases
        self._victims: Optional[np.ndarray] = None

    def _set_parameter(self, name: str, value: float) -> None:
        # The victim set is a function of the disk, so a resized clone must
        # re-resolve it at its next bind.
        super()._set_parameter(name, value)
        self._victims = None

    # ------------------------------------------------------------------ #
    # Topology binding                                                    #
    # ------------------------------------------------------------------ #

    def bind_network(self, network) -> None:
        """Resolve the jammed disk against the run's realised topology.

        Called by the orchestrator after the network (and hence the spatial
        layout) exists.  On aspatial topologies the disk resolves to every
        device.
        """

        self._victims = network.topology.nodes_in_disk(self.center, self.radius)

    @property
    def victims(self) -> np.ndarray:
        """Sorted ids of the devices inside the jammed disk (empty before binding)."""

        return self._victims if self._victims is not None else np.empty(0, dtype=np.int64)

    @property
    def coverage(self) -> np.ndarray:
        """Every device id this jammer has ever targeted.

        For the static disk this equals :attr:`victims`; mobile strategies
        accumulate the union over phases.  Experiments use it to measure
        delivery restricted to the attacked population.
        """

        return self.victims

    # ------------------------------------------------------------------ #
    # Strategy                                                            #
    # ------------------------------------------------------------------ #

    def _plan(self, context: PhaseContext, allowance: float) -> JamPlan:
        if self._victims is None:
            raise ConfigurationError(
                "SpatialJammer used without bind_network(); the orchestrator must "
                "bind the adversary to the realised topology first"
            )
        return plan_disk_jam(context, self._victims, self.jam_request_phases)
