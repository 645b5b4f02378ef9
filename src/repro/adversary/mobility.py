"""Mobile and adaptive spatial adversaries.

PR 1's :class:`~repro.adversary.spatial.SpatialJammer` resolves its disk into
a victim set *once*, at ``bind_network`` time.  Real spatial denial is mobile:
a jammer drives, patrols, or chases.  This module makes the victim set a
function of time — every strategy here re-resolves its disk(s) against the
topology **each phase** through the orchestrators'
:meth:`~repro.adversary.base.Adversary.observe_phase` hook, using the
grid-accelerated :meth:`~repro.simulation.topology.Topology.nodes_in_disk`
query so per-phase re-targeting stays cheap at ``n = 10⁵`` on the CSR
backend.

Three strategy families:

* :class:`MobileJammer` — one disk whose centre follows a :class:`Trajectory`
  (:class:`WaypointPatrol`, :class:`RandomWalk`, :class:`Orbit`).  Oblivious:
  the path is fixed before the run, only the *victims* vary with time.
* :class:`MultiDiskJammer` — one budget split across ``k`` independently
  placed disks (each optionally on its own trajectory); the victim set is the
  union of the disks.  The geometric analogue of hitting several clusters at
  once, motivated by the heavy-tailed Gilbert graphs of arXiv:1411.6824 where
  a few well-placed disks over hubs are disproportionately damaging.
* :class:`ReactiveDiskJammer` — adaptive, knowledge-of-state (in the spirit
  of :mod:`repro.adversary.reactive`): each phase it re-centres greedily on
  the densest cluster of *active uninformed* listeners, optionally limited to
  a maximum speed.  This is the pursuit half of a pursuit/evasion game no
  static adversary can express.

Determinism: trajectories are pure functions of ``(constructor arguments,
phase index)`` — :class:`RandomWalk` derives its steps from a seeded
``numpy`` generator, which is process-stable — so a run with a mobile
adversary remains a pure function of its seeds.
"""

from __future__ import annotations

import abc
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..simulation.errors import ConfigurationError
from ..simulation.phaseplan import JamPlan, PhaseContext
from ..simulation.setops import unique_sorted
from .base import Adversary
from .parameters import ParamSpec
from .spatial import plan_disk_jam

__all__ = [
    "Trajectory",
    "WaypointPatrol",
    "RandomWalk",
    "Orbit",
    "MobileJammer",
    "MultiDiskJammer",
    "ReactiveDiskJammer",
]

Point = Tuple[float, float]


def _as_point(value: Sequence[float], what: str) -> Point:
    try:
        x, y = float(value[0]), float(value[1])
    except (TypeError, IndexError, ValueError) as exc:
        raise ConfigurationError(f"{what} must be an (x, y) pair, got {value!r}") from exc
    return (x, y)


# --------------------------------------------------------------------------- #
# Trajectories                                                                #
# --------------------------------------------------------------------------- #


class Trajectory(abc.ABC):
    """A deterministic path through the plane, sampled once per phase.

    ``position(t)`` is the disk centre during phase ``t`` (0-based count of
    phases since the strategy was bound).  Implementations must be pure
    functions of their constructor arguments and ``t`` — including across
    processes — so that runs stay reproducible; seeded randomness through
    ``numpy`` generators satisfies this.
    """

    @abc.abstractmethod
    def position(self, phase_index: int) -> Point:
        """The centre for phase ``phase_index`` (may lie outside the square)."""


class WaypointPatrol(Trajectory):
    """Patrol a waypoint polyline at constant speed.

    Parameters
    ----------
    waypoints:
        Two or more ``(x, y)`` points (one point gives a stationary jammer).
    speed:
        Distance travelled per phase, in unit-square units.
    closed:
        ``True`` (default) loops back to the first waypoint; ``False``
        ping-pongs back and forth along the open path.
    """

    def __init__(
        self, waypoints: Sequence[Sequence[float]], speed: float, closed: bool = True
    ) -> None:
        if not waypoints:
            raise ConfigurationError("WaypointPatrol needs at least one waypoint")
        if speed < 0:
            raise ConfigurationError(f"patrol speed must be non-negative, got {speed}")
        self.waypoints: List[Point] = [_as_point(w, "waypoint") for w in waypoints]
        self.speed = float(speed)
        self.closed = bool(closed)
        points = np.asarray(self.waypoints, dtype=float)
        if self.closed and len(self.waypoints) > 1 and tuple(points[-1]) != tuple(points[0]):
            points = np.vstack([points, points[0]])
        self._points = points
        segment_lengths = np.sqrt((np.diff(points, axis=0) ** 2).sum(axis=1))
        self._cumulative = np.concatenate([[0.0], np.cumsum(segment_lengths)])
        self._total = float(self._cumulative[-1])

    def position(self, phase_index: int) -> Point:
        if self._total == 0.0 or self.speed == 0.0:
            return self.waypoints[0]
        distance = phase_index * self.speed
        if self.closed:
            distance = distance % self._total
        else:
            period = 2.0 * self._total
            distance = distance % period
            if distance > self._total:
                distance = period - distance
        segment = int(np.searchsorted(self._cumulative, distance, side="right")) - 1
        segment = min(max(segment, 0), self._points.shape[0] - 2)
        seg_start = self._cumulative[segment]
        seg_len = self._cumulative[segment + 1] - seg_start
        fraction = 0.0 if seg_len == 0 else (distance - seg_start) / seg_len
        point = self._points[segment] + fraction * (self._points[segment + 1] - self._points[segment])
        return (float(point[0]), float(point[1]))


class Orbit(Trajectory):
    """Circle a fixed point: ``centre + r·(cos θ_t, sin θ_t)``.

    ``θ_t = initial_angle + angular_speed · t`` (radians per phase).
    """

    def __init__(
        self,
        center: Sequence[float] = (0.5, 0.5),
        orbit_radius: float = 0.25,
        angular_speed: float = 0.2,
        initial_angle: float = 0.0,
    ) -> None:
        if orbit_radius < 0:
            raise ConfigurationError(f"orbit radius must be non-negative, got {orbit_radius}")
        self.center = _as_point(center, "orbit center")
        self.orbit_radius = float(orbit_radius)
        self.angular_speed = float(angular_speed)
        self.initial_angle = float(initial_angle)

    def position(self, phase_index: int) -> Point:
        angle = self.initial_angle + self.angular_speed * phase_index
        return (
            self.center[0] + self.orbit_radius * math.cos(angle),
            self.center[1] + self.orbit_radius * math.sin(angle),
        )


class RandomWalk(Trajectory):
    """A seeded random walk with boundary reflection.

    Each phase the centre takes one step of length ``step`` in a uniformly
    random direction, reflecting off the unit-square walls.  The walk is a
    pure function of ``(start, step, seed)``: steps come from
    ``numpy.random.default_rng(seed)``, which is process-stable, and
    positions are memoised so ``position(t)`` may be queried in any order.
    """

    def __init__(
        self, start: Sequence[float] = (0.5, 0.5), step: float = 0.05, seed: int = 0
    ) -> None:
        if step < 0:
            raise ConfigurationError(f"walk step must be non-negative, got {step}")
        if seed < 0:
            raise ConfigurationError(f"walk seed must be non-negative, got {seed}")
        self.start = _as_point(start, "walk start")
        self.step = float(step)
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self._points: List[Point] = [self.start]

    @staticmethod
    def _reflect(value: float) -> float:
        value = value % 2.0
        return 2.0 - value if value > 1.0 else value

    def position(self, phase_index: int) -> Point:
        if phase_index < 0:
            raise ConfigurationError(f"phase index must be non-negative, got {phase_index}")
        while len(self._points) <= phase_index:
            angle = float(self._rng.uniform(0.0, 2.0 * math.pi))
            x, y = self._points[-1]
            self._points.append(
                (
                    self._reflect(x + self.step * math.cos(angle)),
                    self._reflect(y + self.step * math.sin(angle)),
                )
            )
        return self._points[phase_index]


# --------------------------------------------------------------------------- #
# Per-phase re-resolving disk jammers                                         #
# --------------------------------------------------------------------------- #


class _PerPhaseDiskJammer(Adversary):
    """Shared machinery: victims re-resolved from disk geometry every phase.

    Subclasses implement :meth:`_resolve_victims`, which maps the current
    phase (index + context) to a sorted ``int64`` victim id array via
    :meth:`~repro.simulation.topology.Topology.nodes_in_disk`.  Resolution
    happens in :meth:`observe_phase` — the orchestrators call it before every
    :meth:`plan_phase`, and combining strategies forward it to every nested
    strategy — so the victim set tracks time even while the strategy idles.
    """

    def __init__(
        self,
        max_total_spend: Optional[float] = None,
        jam_request_phases: bool = False,
    ) -> None:
        super().__init__(max_total_spend=max_total_spend)
        self.jam_request_phases = jam_request_phases
        self._network = None
        self._victims: Optional[np.ndarray] = None
        self._phase_index = 0
        self._coverage = np.empty(0, dtype=np.int64)

    # -- binding ------------------------------------------------------- #

    def bind_network(self, network) -> None:
        self._network = network
        self._victims = None
        self._phase_index = 0
        self._coverage = np.empty(0, dtype=np.int64)

    def _require_bound(self):
        if self._network is None:
            raise ConfigurationError(
                f"{type(self).__name__} used without bind_network(); the orchestrator "
                "must bind the adversary to the realised topology first"
            )
        return self._network

    # -- per-phase re-resolution --------------------------------------- #

    def observe_phase(self, context: PhaseContext) -> None:
        self._require_bound()
        self._victims = self._resolve_victims(context)
        self._phase_index += 1

    def _plan(self, context: PhaseContext, allowance: float) -> JamPlan:
        self._require_bound()
        if self._victims is None:
            # plan_phase without a preceding observe_phase (direct engine
            # harnesses): resolve in place without advancing the clock.
            self._victims = self._resolve_victims(context)
        plan = plan_disk_jam(context, self._victims, self.jam_request_phases)
        if plan.attacks_anything and allowance >= 1.0:
            # Coverage counts devices actually subjected to jamming: the disk
            # keeps moving after the budget dies, but those fly-overs are not
            # victims.  A fractional residual allowance (< 1) floors to zero
            # jam slots in the base class's plan cap, so it does not count
            # either.
            self._coverage = unique_sorted(np.concatenate((self._coverage, self._victims)))
        return plan

    @abc.abstractmethod
    def _resolve_victims(self, context: PhaseContext) -> np.ndarray:
        """Sorted victim device ids for the phase about to run."""

    # -- reporting ------------------------------------------------------ #

    @property
    def victims(self) -> np.ndarray:
        """Sorted ids of the devices targeted this phase (empty before binding)."""

        return self._victims if self._victims is not None else np.empty(0, dtype=np.int64)

    @property
    def coverage(self) -> np.ndarray:
        """Sorted union of every victim set this strategy actually attacked.

        Phases where the plan came out idle (no active victims, empty disk,
        exhausted budget) do not count: a disk flying over already-informed
        nodes victimises nobody.
        """

        return self._coverage

    @property
    def phases_observed(self) -> int:
        """How many phases this strategy has been shown."""

        return self._phase_index


class MobileJammer(_PerPhaseDiskJammer):
    """A disk jammer whose centre follows a :class:`Trajectory`.

    On a single-hop topology every disk resolves to the whole clique
    (``nodes_in_disk`` returns everyone), so the strategy degrades to a plain
    payload-phase blocker exactly like the static
    :class:`~repro.adversary.spatial.SpatialJammer`.

    Parameters
    ----------
    trajectory:
        The path the disk centre follows (sampled once per phase).
    radius:
        Disk radius.
    max_total_spend:
        Optional cap on total expenditure (the experiment knob ``T``).
    jam_request_phases:
        Also jam request phases inside the disk (off by default).
    """

    name = "mobile"

    tunable = (
        ParamSpec("radius", 0.02, 0.5,
                  description="moving-disk radius in the unit square"),
    )

    def __init__(
        self,
        trajectory: Trajectory,
        radius: float = 0.25,
        max_total_spend: Optional[float] = None,
        jam_request_phases: bool = False,
    ) -> None:
        super().__init__(max_total_spend=max_total_spend, jam_request_phases=jam_request_phases)
        if not isinstance(trajectory, Trajectory):
            raise ConfigurationError(
                f"trajectory must be a Trajectory, got {type(trajectory).__name__}"
            )
        if radius < 0:
            raise ConfigurationError(f"jam radius must be non-negative, got {radius}")
        self.trajectory = trajectory
        self.radius = float(radius)
        self._center: Optional[Point] = None

    @property
    def center(self) -> Optional[Point]:
        """The disk centre used for the most recently resolved phase."""

        return self._center

    def _resolve_victims(self, context: PhaseContext) -> np.ndarray:
        network = self._require_bound()
        self._center = self.trajectory.position(self._phase_index)
        return network.topology.nodes_in_disk(self._center, self.radius)


class MultiDiskJammer(_PerPhaseDiskJammer):
    """One budget split across ``k`` independently-placed disks.

    The victim set is the union of the disks, re-resolved every phase; the
    strategy's single ledger (and optional ``max_total_spend`` cap) pays for
    all of them, so adding disks widens coverage without adding budget —
    the spatial analogue of the paper's n-uniform splitting.

    Parameters
    ----------
    centers:
        One ``(x, y)`` centre per disk.
    radius:
        Shared disk radius, or one radius per disk.
    trajectories:
        Optional per-disk :class:`Trajectory` (``None`` entries stay at their
        centre); length must match ``centers``.
    """

    name = "multi_disk"

    tunable = (
        ParamSpec("radius", 0.02, 0.5,
                  description="shared radius applied to every disk"),
    )

    def __init__(
        self,
        centers: Sequence[Sequence[float]],
        radius: "float | Sequence[float]" = 0.15,
        trajectories: Optional[Sequence[Optional[Trajectory]]] = None,
        max_total_spend: Optional[float] = None,
        jam_request_phases: bool = False,
    ) -> None:
        super().__init__(max_total_spend=max_total_spend, jam_request_phases=jam_request_phases)
        if not centers:
            raise ConfigurationError("MultiDiskJammer needs at least one disk centre")
        self.centers: List[Point] = [_as_point(c, "disk centre") for c in centers]
        k = len(self.centers)
        radii = [float(radius)] * k if np.isscalar(radius) else [float(r) for r in radius]
        if len(radii) != k:
            raise ConfigurationError(
                f"got {len(radii)} radii for {k} disks; pass one radius or one per disk"
            )
        if any(r < 0 for r in radii):
            raise ConfigurationError(f"disk radii must be non-negative, got {radii}")
        self.radii = radii
        if trajectories is not None and len(trajectories) != k:
            raise ConfigurationError(
                f"got {len(trajectories)} trajectories for {k} disks"
            )
        self.trajectories = list(trajectories) if trajectories is not None else [None] * k
        for trajectory in self.trajectories:
            if trajectory is not None and not isinstance(trajectory, Trajectory):
                raise ConfigurationError(
                    f"trajectories entries must be Trajectory or None, "
                    f"got {type(trajectory).__name__}"
                )

    @property
    def radius(self) -> float:
        """The shared disk radius (the first, under per-disk radii)."""

        return self.radii[0]

    @radius.setter
    def radius(self, value: float) -> None:
        # The introspection surface exposes one "radius" knob; setting it
        # resizes every disk, matching the scalar-radius constructor form.
        self.radii = [float(value)] * len(self.radii)

    def _resolve_victims(self, context: PhaseContext) -> np.ndarray:
        network = self._require_bound()
        topology = network.topology
        disks: List[np.ndarray] = []
        for center, radius, trajectory in zip(self.centers, self.radii, self.trajectories):
            if trajectory is not None:
                center = trajectory.position(self._phase_index)
            disks.append(topology.nodes_in_disk(center, radius))
        return unique_sorted(np.concatenate(disks))


class ReactiveDiskJammer(_PerPhaseDiskJammer):
    """Re-centre greedily each phase on the densest active uninformed cluster.

    The adaptive member of the family: per §1.1 Carol has full knowledge of
    past behaviour and protocol state, so each phase this strategy buckets
    the *active uninformed* listeners into disk-sized cells, targets the
    fullest cell's centre of mass, and moves its disk there (teleporting when
    ``speed`` is ``None``, else by at most ``speed`` per phase).  On aspatial
    topologies there is nothing to chase and the disk covers the whole
    clique, degrading to a phase blocker.

    Parameters
    ----------
    radius:
        Disk radius (also the clustering cell size).
    speed:
        Maximum centre movement per phase; ``None`` re-places the disk freely.
    start:
        Initial disk centre.
    """

    name = "reactive_disk"

    tunable = (
        ParamSpec("radius", 0.02, 0.5,
                  description="pursuit-disk radius in the unit square"),
    )

    def __init__(
        self,
        radius: float = 0.25,
        speed: Optional[float] = None,
        start: Sequence[float] = (0.5, 0.5),
        max_total_spend: Optional[float] = None,
        jam_request_phases: bool = False,
    ) -> None:
        super().__init__(max_total_spend=max_total_spend, jam_request_phases=jam_request_phases)
        if radius < 0:
            raise ConfigurationError(f"jam radius must be non-negative, got {radius}")
        if speed is not None and speed < 0:
            raise ConfigurationError(f"speed must be non-negative or None, got {speed}")
        self.radius = float(radius)
        self.speed = speed if speed is None else float(speed)
        self.start = _as_point(start, "start")
        self._center: Point = self.start
        self._positions: Optional[np.ndarray] = None

    def bind_network(self, network) -> None:
        super().bind_network(network)
        self._center = self.start
        # One copy of the (n+1, 2) position table per run: per-phase cluster
        # detection then indexes it directly instead of issuing n Python
        # position() calls.  None on aspatial topologies (nothing to chase).
        self._positions = getattr(network.topology, "positions", None)

    @property
    def center(self) -> Point:
        """The disk centre used for the most recently resolved phase."""

        return self._center

    def _densest_cluster(self, positions: np.ndarray) -> Point:
        """Centre of mass of the fullest disk-sized window of listener positions.

        Listeners are bucketed into cells of side ``radius`` and each occupied
        cell is scored by its 3×3 neighbourhood (a disk of radius ``r``
        centred in a cell of side ``r`` spills into the adjacent cells); the
        disk targets the centre of mass of the winning window.  All
        vectorised: ``O(active listeners)`` per phase.
        """

        cell = max(self.radius, 1e-3)
        coords = np.floor(positions / cell).astype(np.int64)
        # Collapse (x, y) cells to scalar keys; the grid is tiny (≤ ~1/r per
        # axis) so a plain shift cannot collide.
        shift = np.int64(2 ** 20)
        keys = coords[:, 0] * shift + coords[:, 1]
        unique, counts = np.unique(keys, return_counts=True)
        # Score per occupied cell = points in its 3x3 window.
        scores = np.zeros(unique.size, dtype=np.int64)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                neighbor = unique + dx * shift + dy
                pos = np.searchsorted(unique, neighbor)
                pos_clipped = np.minimum(pos, unique.size - 1)
                found = (pos < unique.size) & (unique[pos_clipped] == neighbor)
                scores[found] += counts[pos_clipped[found]]
        best = unique[int(np.argmax(scores))]
        in_window = (np.abs(coords[:, 0] - (best // shift)) <= 1) & (
            np.abs(coords[:, 1] - (best % shift)) <= 1
        )
        target = positions[in_window].mean(axis=0)
        return (float(target[0]), float(target[1]))

    def _step_towards(self, target: Point) -> Point:
        if self.speed is None:
            return target
        dx = target[0] - self._center[0]
        dy = target[1] - self._center[1]
        distance = math.hypot(dx, dy)
        if distance <= self.speed or distance == 0.0:
            return target
        scale = self.speed / distance
        return (self._center[0] + dx * scale, self._center[1] + dy * scale)

    def _resolve_victims(self, context: PhaseContext) -> np.ndarray:
        network = self._require_bound()
        topology = network.topology
        if self._positions is not None:
            # Sorted, non-negative node ids, which are topology rows
            # (Alice-last convention).
            active = context.roles.active_uninformed_ids
            if active.size:
                positions = self._positions[active]
                self._center = self._step_towards(self._densest_cluster(positions))
        return topology.nodes_in_disk(self._center, self.radius)
