"""Spatial network topologies: single-hop, Gilbert graphs, and scale-free variants.

The paper's game is played on a *single shared channel* — every transmission
is audible to every listener.  Its motivating setting, however, is a dense
sensor network deployed over an area, where radios have limited range and the
message must travel multiple hops.  This module supplies the spatial layer:

* :class:`SingleHop` — the seed model.  Every device hears every other
  device; the topology layer is a no-op and both engines take exactly the
  code paths they took before topologies existed (bit-identical outcomes).
* :class:`GilbertGraph` — the classical random geometric graph of Gilbert
  (1961): ``n`` points placed uniformly at random in the unit square, with an
  edge between two devices iff their Euclidean distance is at most a radius
  ``r``.  The connectivity threshold sits at ``r_c = sqrt(ln n / (π n))``
  (see "Limit theory for the Gilbert graph", arXiv:1312.4861): below it the
  graph shatters into components, above it it is connected w.h.p.
* :class:`ScaleFreeGilbert` — a heavy-tailed variant in the spirit of "From
  heavy-tailed Boolean models to scale-free Gilbert graphs"
  (arXiv:1411.6824): each device draws its own radio radius from a Pareto
  distribution, and ``u ~ v`` iff ``dist(u, v) <= max(r_u, r_v)``.  Nodes
  with large radii become hubs, producing a power-law degree tail.

Adjacency storage
-----------------

Spatial topologies hold the realised radio graph as a :class:`NeighborCSR`
compressed-sparse-row neighbour list, built with a uniform-grid cell index:
points are bucketed into cells of the connection radius, and only points in
adjacent cells are compared, so construction is ``O(n · E[deg])`` and memory
is ``O(n + |edges|)`` at every size.  The same representation serves a few
dozen devices and the ``n ≫ 10⁴`` regime where the Gilbert-graph
asymptotics of arXiv:1312.4861 / arXiv:1411.6824 actually bite.
:meth:`Topology.memory_bytes` reports the adjacency footprint.

Model notes and deliberate approximations
-----------------------------------------

* Radio links are **symmetric**: ``u`` hears ``v`` iff ``v`` hears ``u``.
  For :class:`ScaleFreeGilbert` this means the *stronger* radio of a pair
  carries the link both ways (the undirected ``max`` convention; the cited
  paper also studies directed and ``min`` variants).
* Alice is a device with a position like any other; by default she is placed
  at the centre of the unit square so radius sweeps are comparable across
  seeds (``alice_placement="random"`` samples her position instead).
* Byzantine/spoofed transmitters (synthetic sender ids ``<= -2``) are
  assumed audible everywhere: Carol controls ``f·n`` devices and the model
  grants her one wherever it hurts most.  Jamming, by contrast, can be made
  *spatial* via :meth:`Topology.nodes_in_disk`, which resolves a disk of the
  deployment area into the listener set for
  :class:`~repro.simulation.channel.JamTargeting`.
* Topology generation draws from the dedicated ``"topology"`` substream of
  the network's :class:`~repro.simulation.rng.RandomSource`, so enabling a
  spatial topology never perturbs the engines' random streams.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .auth import ALICE_ID
from .errors import ConfigurationError
from .setops import unique_sorted

__all__ = [
    "Topology",
    "SingleHop",
    "GilbertGraph",
    "ScaleFreeGilbert",
    "TopologySpec",
    "NeighborCSR",
    "build_topology",
    "gilbert_connectivity_radius",
]


def gilbert_connectivity_radius(n: int) -> float:
    """The Gilbert-graph connectivity threshold ``sqrt(ln n / (π n))``.

    For uniform points in the unit square the graph is connected w.h.p. when
    the radius exceeds this value by any constant factor, and disconnected
    below it (Penrose; see arXiv:1312.4861 for the sparse-regime limit
    theory).  Experiments sweep multiples of this radius to cross the
    threshold.
    """

    if n < 2:
        raise ConfigurationError(f"connectivity radius needs n >= 2, got {n}")
    return math.sqrt(math.log(n) / (math.pi * n))


# --------------------------------------------------------------------------- #
# Compressed-sparse-row neighbourhoods                                        #
# --------------------------------------------------------------------------- #


def _gather_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[start, start + count)`` index ranges, vectorised.

    The workhorse behind every CSR multi-row slice: given per-row start
    offsets and lengths it returns the flat index array selecting all of the
    rows' entries at once, without a Python loop.  Output entry ``i`` of
    range ``r`` is ``starts[r] + i − (entries before range r)``: one
    ``arange`` shifted in place by one per-range ``repeat``, so the working
    set is two output-length arrays.
    """

    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shift = np.asarray(starts, dtype=np.int64) - (np.cumsum(counts) - counts)
    flat = np.arange(total, dtype=np.int64)
    flat += np.repeat(shift, counts)
    return flat


@dataclass(frozen=True)
class NeighborCSR:
    """Compressed-sparse-row adjacency over device *rows*.

    Row indexing follows the adjacency-matrix convention used throughout the
    topology layer: rows ``0 .. n-1`` are the correct nodes (row = node id)
    and row ``n`` is Alice.  Synthetic Byzantine sender ids (``<= -2``) have
    no row — they are audible everywhere by model fiat and are handled by the
    callers, not the graph.

    Attributes
    ----------
    indptr:
        ``int64`` array of shape ``(num_rows + 1,)``; row ``r``'s neighbours
        live at ``indices[indptr[r]:indptr[r+1]]``.
    indices:
        ``int32`` array of shape ``(nnz,)`` holding neighbour *rows*, sorted
        ascending within each row.  Symmetric (``v in row(u)`` iff
        ``u in row(v)``) with an empty diagonal (no self-loops).
    """

    indptr: np.ndarray
    indices: np.ndarray

    @property
    def num_rows(self) -> int:
        return int(self.indptr.size - 1)

    @property
    def nnz(self) -> int:
        """Number of stored directed edges (twice the undirected edge count)."""

        return int(self.indices.size)

    def row(self, row_index: int) -> np.ndarray:
        """Neighbour rows of ``row_index`` (a sorted ``int32`` view, not a copy)."""

        return self.indices[self.indptr[row_index] : self.indptr[row_index + 1]]

    def degrees(self) -> np.ndarray:
        """Per-row neighbour counts, shape ``(num_rows,)``, dtype ``int64``."""

        return np.diff(self.indptr)

    def contains(self, row_index: int, neighbor_row: int) -> bool:
        """Whether ``neighbor_row`` appears in ``row_index``'s neighbour list."""

        row = self.row(row_index)
        pos = np.searchsorted(row, neighbor_row)
        return bool(pos < row.size and row[pos] == neighbor_row)

    def expand(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Slice many rows at once: the per-listener/per-sender bulk primitive.

        Returns ``(origins, neighbors)`` where ``origins[i]`` indexes into the
        input ``rows`` array and ``neighbors[i]`` is one neighbour row of
        ``rows[origins[i]]``.  Cost is ``O(sum of the rows' degrees)`` — this
        is what the vectorised engine uses to resolve audibility over only the
        currently-active device sets.
        """

        rows = np.asarray(rows, dtype=np.int64)
        counts = self.indptr[rows + 1] - self.indptr[rows]
        origins = np.repeat(np.arange(rows.size, dtype=np.int64), counts)
        flat = _gather_ranges(self.indptr[rows], counts)
        return origins, self.indices[flat].astype(np.int64, copy=False)

    def memory_bytes(self) -> int:
        """Bytes held by the CSR arrays."""

        return int(self.indptr.nbytes + self.indices.nbytes)


def _edges_to_csr(us: np.ndarray, vs: np.ndarray, num_rows: int) -> NeighborCSR:
    """Build a symmetric :class:`NeighborCSR` from unordered edge endpoints.

    ``(us[i], vs[i])`` are undirected edges with ``us[i] != vs[i]``, each
    unordered pair appearing exactly once, so the directed keys
    ``row·num_rows + col`` are distinct and one sort orders them by row,
    then column.
    """

    m = np.int64(num_rows)
    keys = np.sort(np.concatenate([us * m + vs, vs * m + us]))
    rows = keys // m
    cols = keys % m
    counts = np.bincount(rows, minlength=num_rows)
    indptr = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)])
    return NeighborCSR(indptr=indptr, indices=cols.astype(np.int32))


def _directed_edges_to_csr(us: np.ndarray, vs: np.ndarray, num_rows: int) -> NeighborCSR:
    """Symmetrise a *directed* edge list (possibly with duplicates) into CSR."""

    m = np.int64(num_rows)
    keys = np.concatenate([us * m + vs, vs * m + us])
    keys = unique_sorted(keys)
    rows = keys // m
    cols = keys % m
    counts = np.bincount(rows, minlength=num_rows)
    indptr = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)])
    return NeighborCSR(indptr=indptr, indices=cols.astype(np.int32))


# --------------------------------------------------------------------------- #
# Grid-index edge construction                                                #
# --------------------------------------------------------------------------- #


class _CellGrid:
    """Uniform-grid spatial index over points in the unit square.

    Buckets the ``m`` points into square cells of side ``cell`` and exposes
    the occupied cells as contiguous runs of a sorted point permutation, so
    neighbourhood queries touch only nearby buckets.  Construction is
    ``O(m log m)``; memory is ``O(m)`` regardless of the grid resolution
    (empty cells are never materialised).
    """

    def __init__(self, positions: np.ndarray, cell: float) -> None:
        self.cell = cell
        self.grid_dim = max(1, int(math.ceil(1.0 / cell)))
        coords = np.clip((positions / cell).astype(np.int64), 0, self.grid_dim - 1)
        self.coords = coords
        self.cell_ids = coords[:, 0] * self.grid_dim + coords[:, 1]
        self.order = np.argsort(self.cell_ids, kind="stable")
        sorted_ids = self.cell_ids[self.order]
        self.occupied, self.starts, self.counts = np.unique(
            sorted_ids, return_index=True, return_counts=True
        )

    def lookup(self, cell_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Map cell ids to ``(slot, found)`` in the occupied-cell table."""

        slot = np.searchsorted(self.occupied, cell_ids)
        slot_clipped = np.minimum(slot, self.occupied.size - 1)
        found = (slot < self.occupied.size) & (self.occupied[slot_clipped] == cell_ids)
        return slot_clipped, found


def _cross_pairs(
    a_starts: np.ndarray, a_counts: np.ndarray, b_starts: np.ndarray, b_counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """All (a, b) index pairs between matched bucket runs, vectorised."""

    a_counts = np.asarray(a_counts, dtype=np.int64)
    b_counts = np.asarray(b_counts, dtype=np.int64)
    rep = a_counts * b_counts
    total = int(rep.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    pair_bucket = np.repeat(np.arange(rep.size, dtype=np.int64), rep)
    within = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(rep) - rep, rep)
    bc = b_counts[pair_bucket]
    ai = within // bc
    bi = within % bc
    return a_starts[pair_bucket] + ai, b_starts[pair_bucket] + bi


# Offsets covering each unordered pair of adjacent cells exactly once
# (the standard half-neighbourhood sweep for symmetric predicates).
_HALF_OFFSETS = ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))


def _gilbert_edges_grid(positions: np.ndarray, radius: float) -> Tuple[np.ndarray, np.ndarray]:
    """Edge list of the Gilbert graph via a uniform grid: ``O(m · E[deg])``.

    Cells have side ``radius``, so every edge joins points in the same or
    adjacent cells; only those candidate pairs are distance-checked, with the
    predicate ``dist² <= radius²``.
    """

    grid = _CellGrid(positions, min(radius, 1.0))
    g = grid.grid_dim
    r2 = radius * radius
    cx = grid.occupied // g
    cy = grid.occupied % g
    us: List[np.ndarray] = []
    vs: List[np.ndarray] = []
    for dx, dy in _HALF_OFFSETS:
        if dx == 0 and dy == 0:
            busy = np.flatnonzero(grid.counts > 1)
            a_pos, b_pos = _cross_pairs(
                grid.starts[busy], grid.counts[busy], grid.starts[busy], grid.counts[busy]
            )
            keep = a_pos < b_pos
            a_pos, b_pos = a_pos[keep], b_pos[keep]
        else:
            nx, ny = cx + dx, cy + dy
            valid = (nx < g) & (ny >= 0) & (ny < g)
            a_slots = np.flatnonzero(valid)
            slot, found = grid.lookup(nx[valid] * g + ny[valid])
            a_slots, b_slots = a_slots[found], slot[found]
            a_pos, b_pos = _cross_pairs(
                grid.starts[a_slots],
                grid.counts[a_slots],
                grid.starts[b_slots],
                grid.counts[b_slots],
            )
        if a_pos.size == 0:
            continue
        u = grid.order[a_pos]
        v = grid.order[b_pos]
        deltas = positions[u] - positions[v]
        close = (deltas ** 2).sum(axis=1) <= r2
        us.append(u[close])
        vs.append(v[close])
    if not us:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(us), np.concatenate(vs)


_SCALE_FREE_GRID_BANDS = 8
"""Radius bands (in cell units) resolved through the grid; devices with even
larger radii are hubs that genuinely reach a large fraction of the square, so
they fall back to a direct distance sweep."""


def _scale_free_edges_grid(
    positions: np.ndarray, radii: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Directed edge list ``u -> v`` with ``dist(u, v) <= r_u`` via the grid.

    Symmetrising the result yields the undirected ``max``-linkage graph:
    ``dist <= max(r_u, r_v)`` iff ``dist <= r_u`` or ``dist <= r_v``.  Each
    device scans the ``(2k+1)²`` cell window covering its own radius
    (``k = ceil(r_u / cell)``), so work is proportional to its true degree.
    One sweep over the largest window's offsets serves every device: at
    offset ``(dx, dy)`` only devices with ``k ≥ max(|dx|, |dy|)`` look, and
    sorting the devices by ``k`` descending makes them a prefix.  The few
    heavy-tailed hubs whose window would exceed
    :data:`_SCALE_FREE_GRID_BANDS` bands are resolved against all points
    directly (they connect to a large fraction of them anyway).
    """

    cell = min(max(float(np.median(radii)), 1e-6), 1.0)
    grid = _CellGrid(positions, cell)
    g = grid.grid_dim
    bands = np.maximum(np.ceil(radii / cell).astype(np.int64), 1)
    grid_devices = bands <= _SCALE_FREE_GRID_BANDS
    us: List[np.ndarray] = []
    vs: List[np.ndarray] = []

    # Grid devices by band, widest first: those whose window reaches ring r
    # (band >= r) are a prefix.
    scanners = np.flatnonzero(grid_devices)
    scanners = scanners[np.argsort(-bands[scanners], kind="stable")]
    ascending = bands[scanners][::-1]
    widest = int(ascending[-1]) if scanners.size else -1
    gx = grid.coords[scanners, 0]
    gy = grid.coords[scanners, 1]
    for dx in range(-widest, widest + 1):
        for dy in range(-widest, widest + 1):
            ring = max(abs(dx), abs(dy))
            count = scanners.size - int(np.searchsorted(ascending, ring, side="left"))
            nx, ny = gx[:count] + dx, gy[:count] + dy
            valid = (nx >= 0) & (nx < g) & (ny >= 0) & (ny < g)
            srcs = scanners[:count][valid]
            slot, found = grid.lookup(nx[valid] * g + ny[valid])
            srcs, slots = srcs[found], slot[found]
            if srcs.size == 0:
                continue
            rep = grid.counts[slots]
            u = np.repeat(srcs, rep)
            v = grid.order[_gather_ranges(grid.starts[slots], rep)]
            deltas = positions[u] - positions[v]
            close = ((deltas ** 2).sum(axis=1) <= radii[u] ** 2) & (u != v)
            us.append(u[close])
            vs.append(v[close])

    hubs = np.flatnonzero(~grid_devices)
    for start in range(0, hubs.size, 64):
        chunk = hubs[start : start + 64]
        deltas = positions[chunk][:, None, :] - positions[None, :, :]
        close = (deltas ** 2).sum(axis=-1) <= radii[chunk][:, None] ** 2
        u_idx, v_idx = np.nonzero(close)
        u = chunk[u_idx]
        v = v_idx.astype(np.int64)
        keep = u != v
        us.append(u[keep])
        vs.append(v[keep])

    if not us:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(us), np.concatenate(vs)


# --------------------------------------------------------------------------- #
# Topology specification                                                      #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class TopologySpec:
    """Declarative description of a topology, carried by ``SimulationConfig``.

    Keeping the *spec* (not the realised graph) on the configuration keeps
    configurations hashable, comparable, and serialisable; the
    :class:`~repro.simulation.network.Network` realises the spec
    deterministically from its own seeded random source.

    Attributes
    ----------
    kind:
        ``"single_hop"``, ``"gilbert"``, or ``"scale_free"``.
    radius:
        Connection radius for ``"gilbert"``; defaults to twice the
        connectivity threshold (comfortably connected).
    alpha:
        Pareto tail exponent for ``"scale_free"`` radii (smaller = heavier
        tail = more pronounced hubs).
    min_radius:
        Pareto scale (minimum radius) for ``"scale_free"``; defaults to the
        connectivity-threshold radius.
    alice_placement:
        ``"center"`` (default) pins Alice to (0.5, 0.5); ``"random"`` samples
        her position like any node.
    """

    kind: str = "single_hop"
    radius: Optional[float] = None
    alpha: float = 2.5
    min_radius: Optional[float] = None
    alice_placement: str = "center"

    def __post_init__(self) -> None:
        if self.kind not in ("single_hop", "gilbert", "scale_free"):
            raise ConfigurationError(
                f"topology kind must be one of 'single_hop', 'gilbert', 'scale_free'; "
                f"got {self.kind!r}"
            )
        if self.radius is not None and self.radius <= 0:
            raise ConfigurationError(f"radius must be positive, got {self.radius}")
        if self.alpha <= 0:
            raise ConfigurationError(f"alpha must be positive, got {self.alpha}")
        if self.min_radius is not None and self.min_radius <= 0:
            raise ConfigurationError(f"min_radius must be positive, got {self.min_radius}")
        if self.alice_placement not in ("center", "random"):
            raise ConfigurationError(
                f"alice_placement must be 'center' or 'random', got {self.alice_placement!r}"
            )

    @staticmethod
    def single_hop() -> "TopologySpec":
        return TopologySpec(kind="single_hop")

    @staticmethod
    def gilbert(radius: Optional[float] = None, alice_placement: str = "center") -> "TopologySpec":
        return TopologySpec(kind="gilbert", radius=radius, alice_placement=alice_placement)

    @staticmethod
    def scale_free(
        alpha: float = 2.5,
        min_radius: Optional[float] = None,
        alice_placement: str = "center",
    ) -> "TopologySpec":
        return TopologySpec(
            kind="scale_free",
            alpha=alpha,
            min_radius=min_radius,
            alice_placement=alice_placement,
        )


# --------------------------------------------------------------------------- #
# Topology base class                                                         #
# --------------------------------------------------------------------------- #


class Topology(abc.ABC):
    """Who can hear whom.

    Addressing follows the rest of the simulator: correct nodes are
    ``0 .. n-1`` and Alice is :data:`~repro.simulation.auth.ALICE_ID` (-1).
    Synthetic adversarial sender ids (``<= -2``) are audible everywhere.

    Internally every concrete topology indexes devices by *row*: node ``i``
    is row ``i`` and Alice is row ``n`` (the **Alice-last convention**).
    The public query API speaks device ids; only :meth:`neighbor_csr` (the
    bulk interface consumed by the vectorised engine) exposes rows directly.
    """

    name: str = "topology"

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ConfigurationError(f"topology needs at least one node, got n={n}")
        self.n = n
        # Degree/neighbourhood statistics are pure functions of the immutable
        # realised graph, and the termination rules consult them once per
        # request phase — memoise them (read-only, so a cached array cannot
        # be corrupted through an aliased reference).
        self._degrees_cache: Optional[np.ndarray] = None
        self._neighborhood_size_cache: dict = {}
        self._alice_within_cache: dict = {}

    # ------------------------------------------------------------------ #
    # Core audibility interface                                           #
    # ------------------------------------------------------------------ #

    @property
    def is_single_hop(self) -> bool:
        """Whether every device hears every other device (the seed model)."""

        return False

    def _index(self, device_id: int) -> int:
        """Map a device id to its row (Alice last: nodes ``0..n-1``, Alice ``n``)."""

        if device_id == ALICE_ID:
            return self.n
        if 0 <= device_id < self.n:
            return device_id
        raise ConfigurationError(f"unknown device id {device_id} for topology over n={self.n}")

    @abc.abstractmethod
    def can_hear(self, listener_id: int, sender_id: int) -> bool:
        """Whether ``listener_id`` receives a transmission by ``sender_id``.

        Synthetic Byzantine sender ids (``<= -2``) are audible everywhere
        (the model grants Carol a transmitter wherever it hurts most); a
        radio never hears itself.
        """

    @abc.abstractmethod
    def neighbor_csr(self) -> NeighborCSR:
        """The adjacency as a :class:`NeighborCSR` over device rows.

        Rows are Alice-last (``0..n-1`` nodes, ``n`` Alice); the result is
        symmetric with an empty diagonal and is cached on first call.  This
        is the bulk neighbourhood interface the vectorised engine slices per
        phase.  For :class:`SingleHop` the clique CSR is Θ(n²) — call it only
        at small ``n`` (the engines never do; they special-case single-hop).
        """

    def neighbor_slice(self, device_id: int) -> np.ndarray:
        """Ids of the devices audible from ``device_id`` as a sorted ``int64`` array.

        Node ids ascending, with :data:`~repro.simulation.auth.ALICE_ID` (-1)
        *first* when Alice is in range (ids are returned in device-id order,
        and Alice's id is -1) — the one id-group form of
        :mod:`repro.simulation.setops`.
        """

        csr = self.neighbor_csr()
        rows = csr.row(self._index(device_id)).astype(np.int64, copy=True)
        out = np.where(rows == self.n, ALICE_ID, rows)
        out.sort()
        return out

    def any_neighbor_in(self, device_ids: np.ndarray, member_ids: np.ndarray) -> np.ndarray:
        """For each node in ``device_ids``, whether a neighbour is in ``member_ids``.

        Both arguments are arrays of correct-node ids (``0..n-1``), which are
        their own adjacency rows.  Returns a boolean array aligned with
        ``device_ids``.  This is the multi-hop frontier primitive:
        :class:`~repro.core.broadcast.MultiHopBroadcast` retires a relay
        exactly when it has no active uninformed neighbour left.  Cost is
        ``O(sum of the devices' degrees)`` via one CSR slice.
        """

        rows = np.asarray(device_ids, dtype=np.int64)
        out = np.zeros(rows.size, dtype=bool)
        member_ids = np.asarray(member_ids, dtype=np.int64)
        if rows.size == 0 or member_ids.size == 0:
            return out
        member_mask = np.zeros(self.n + 1, dtype=bool)
        member_mask[member_ids] = True
        csr = self.neighbor_csr()
        origins, nbrs = csr.expand(rows)
        out[origins[member_mask[nbrs]]] = True
        return out

    def frontier_reachable(self, source_rows: np.ndarray, passable: np.ndarray) -> np.ndarray:
        """Passable nodes reachable from ``source_rows`` through passable nodes.

        ``source_rows`` are adjacency rows (node rows or Alice's row ``n``);
        ``passable`` is a boolean mask over nodes.  The BFS expands only
        through nodes the mask admits, which is exactly the multi-hop
        message-flow question: a node outside the returned mask cannot ever
        receive ``m`` from the given sources, because every path to it is
        severed by a non-passable (terminated) node.  Cost is ``O(edges
        touched)`` via chunked CSR expansion — no per-node Python loop.
        """

        reached = np.zeros(self.n, dtype=bool)
        if source_rows.size == 0:
            return reached
        csr = self.neighbor_csr()
        _, nbrs = csr.expand(source_rows.astype(np.int64, copy=False))
        nbrs = nbrs[nbrs < self.n]
        frontier = unique_sorted(nbrs[passable[nbrs]])
        reached[frontier] = True
        while frontier.size:
            _, nbrs = csr.expand(frontier)
            nbrs = nbrs[nbrs < self.n]
            nbrs = unique_sorted(nbrs)
            new = nbrs[passable[nbrs] & ~reached[nbrs]]
            reached[new] = True
            frontier = new
        return reached

    def memory_bytes(self) -> int:
        """Bytes held by the realised adjacency (0 for implicit topologies)."""

        return 0

    # ------------------------------------------------------------------ #
    # Spatial queries (used by spatial jamming and experiments)           #
    # ------------------------------------------------------------------ #

    def position(self, device_id: int) -> Optional[Tuple[float, float]]:
        """The device's position in the unit square, or ``None`` if aspatial."""

        return None

    def nodes_in_disk(self, center: Tuple[float, float], radius: float) -> np.ndarray:
        """Ids of the devices (nodes, plus Alice if inside) within a disk.

        This is how a *spatial* Carol targets her jamming: instead of the
        paper's global channel blast, she blankets a disk of the deployment
        area, and only listeners inside it perceive noise.  Returned as a
        sorted ``int64`` id array, Alice (-1) first when inside.  Aspatial
        topologies return every device (a disk over a clique is the clique).
        """

        return np.arange(ALICE_ID, self.n, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Graph statistics (used by property tests and experiments)           #
    # ------------------------------------------------------------------ #

    def degrees(self) -> np.ndarray:
        """Per-node degree counting correct-node neighbours only.

        Shape ``(n,)``, dtype ``int64``, indexed by node id; Alice's row is
        excluded from the output and her column from every count (the
        **Alice-exclusion convention** shared by the component statistics).
        Cached on first call (the graph is immutable); the returned array is
        read-only.
        """

        if self._degrees_cache is None:
            degrees = self._compute_degrees()
            degrees.setflags(write=False)
            self._degrees_cache = degrees
        return self._degrees_cache

    def _compute_degrees(self) -> np.ndarray:
        csr = self.neighbor_csr()
        node_edge = csr.indices < self.n
        cumulative = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(node_edge, dtype=np.int64)]
        )
        return cumulative[csr.indptr[1 : self.n + 1]] - cumulative[csr.indptr[: self.n]]

    def neighborhood_sizes(self, hops: int = 1, cap: Optional[int] = None) -> np.ndarray:
        """Number of devices within ``hops`` edges of each node (self excluded).

        Shape ``(n,)``, dtype ``int64``, indexed by node id.  Unlike
        :meth:`degrees`, **Alice counts as a device** here: this statistic
        feeds the degree-aware termination rules, and a node whose only radio
        neighbour is Alice has a live neighbourhood, not an empty one.

        ``hops=1`` is the device degree; larger ``hops`` give the size of the
        hop-ball, the locally-observable quantity that separates a
        sub-critical component (ball bounded by the component) from the giant
        component (ball ≈ degree × mean degree per extra hop) in the
        Gilbert-graph sparse regime of arXiv:1312.4861.  Computed by chunked
        CSR neighbourhood expansion — no Python loop per node — and cached
        per ``(hops, cap)``.

        ``cap`` saturates the count: values below ``cap`` are exact, values
        at or above ``cap`` only promise "at least ``cap``" (the true ball
        may be larger).  Callers that merely threshold the ball — the
        degree-aware quiet rule's super-critical cut — pass their threshold
        here, which lets nodes stop expanding the moment they clear it and
        keeps the large-``n`` cost at ``O(n · cap · E[deg])`` instead of
        walking every giant-component ball to completion.
        """

        if hops < 1:
            raise ConfigurationError(f"neighborhood_sizes needs hops >= 1, got {hops}")
        if cap is not None and cap < 1:
            raise ConfigurationError(f"neighborhood_sizes cap must be >= 1, got {cap}")
        key = (hops, cap)
        cached = self._neighborhood_size_cache.get(key)
        if cached is None:
            cached = self._compute_neighborhood_sizes(hops, cap)
            cached.setflags(write=False)
            self._neighborhood_size_cache[key] = cached
        return cached

    def alice_within(self, hops: int = 1) -> np.ndarray:
        """Per-node boolean: is Alice within ``hops`` edges of the node?

        Shape ``(n,)``, dtype ``bool``, cached per ``hops``.  One BFS from
        Alice's row answers the query for every node at once — O(edges within
        ``hops`` of Alice) regardless of how large other neighbourhoods are.
        The degree-aware termination rules treat a neighbourhood containing
        the source as super-critical regardless of size: a node that knows
        Alice is ``hops`` edges away is reachable by construction and must
        not give up while the relay frontier closes those last hops.
        """

        if hops < 1:
            raise ConfigurationError(f"alice_within needs hops >= 1, got {hops}")
        cached = self._alice_within_cache.get(hops)
        if cached is None:
            cached = self._compute_alice_within(hops)
            cached.setflags(write=False)
            self._alice_within_cache[hops] = cached
        return cached

    def _compute_alice_within(self, hops: int) -> np.ndarray:
        csr = self.neighbor_csr()
        within = np.zeros(self.n, dtype=bool)
        frontier = csr.row(self.n).astype(np.int64, copy=False)
        frontier = frontier[frontier < self.n]
        for _ in range(hops):
            frontier = frontier[~within[frontier]]
            if frontier.size == 0:
                break
            within[frontier] = True
            _, nbrs = csr.expand(frontier)
            frontier = unique_sorted(nbrs[nbrs < self.n])
        return within

    def _compute_neighborhood_sizes(self, hops: int, cap: Optional[int] = None) -> np.ndarray:
        csr = self.neighbor_csr()
        m = self.n + 1
        degrees = np.diff(csr.indptr)[: self.n].astype(np.int64, copy=True)
        if hops == 1:
            return degrees
        if cap is None:
            pending = np.arange(self.n, dtype=np.int64)
        else:
            # One hop already proves `degree` members: only nodes still below
            # the cap need deeper expansion.  In a super-critical graph this
            # prunes almost everyone after the degree check alone.
            pending = np.flatnonzero(degrees < cap)
        sizes = degrees
        # Per-chunk boolean membership masks sidestep any sorting: marking a
        # candidate is a fancy-index write and the next frontier falls out of
        # an xor against the pre-expansion mask.  The chunk size caps the
        # mask at ~2^25 cells, so memory stays ~32 MiB however large n gets.
        chunk = max(64, min(2048, (1 << 25) // m))
        for start in range(0, pending.size, chunk):
            rows = pending[start : start + chunk]
            size = rows.size
            ball = np.zeros((size, m), dtype=bool)
            ball[np.arange(size), rows] = True  # {self}; excluded at the end
            frontier_origin = np.arange(size, dtype=np.int64)
            frontier_row = rows
            for hop in range(hops):
                origins, nbrs = csr.expand(frontier_row)
                origins = frontier_origin[origins]
                before = ball.copy()
                ball[origins, nbrs] = True
                frontier_origin, frontier_row = np.nonzero(ball & ~before)
                if frontier_origin.size == 0:
                    break
                if cap is not None and hop + 1 < hops:
                    # Origins that already cleared the cap stop expanding:
                    # their reported size saturates at "at least cap".
                    counts = ball.sum(axis=1, dtype=np.int64) - 1
                    active = counts[frontier_origin] < cap
                    frontier_origin = frontier_origin[active]
                    frontier_row = frontier_row[active]
                    if frontier_origin.size == 0:
                        break
            # Minus one per origin: the node itself is not its own neighbour.
            sizes[rows] = ball.sum(axis=1, dtype=np.int64) - 1
        return sizes

    def _node_frontier_bfs(self, start_rows: np.ndarray, seen: np.ndarray) -> np.ndarray:
        """Rows of nodes reachable from ``start_rows`` over node-node edges."""

        csr = self.neighbor_csr()
        members = [start_rows]
        frontier = start_rows
        while frontier.size:
            _, nbrs = csr.expand(frontier)
            nbrs = nbrs[nbrs < self.n]
            nbrs = unique_sorted(nbrs)
            new = nbrs[~seen[nbrs]]
            seen[new] = True
            members.append(new)
            frontier = new
        return np.concatenate(members)

    def connected_components(self) -> List[np.ndarray]:
        """Connected components of the node-node graph (Alice excluded).

        Each component is a sorted ``int64`` array of node ids; components
        are listed in order of their smallest id.
        """

        seen = np.zeros(self.n, dtype=bool)
        components: List[np.ndarray] = []
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            rows = self._node_frontier_bfs(np.array([start], dtype=np.int64), seen)
            rows.sort()
            components.append(rows)
        return components

    def largest_component_fraction(self) -> float:
        """Size of the largest node component as a fraction of ``n``."""

        if self.n == 0:
            return 0.0
        return max(len(c) for c in self.connected_components()) / self.n

    # repro-lint: disable=R12 -- callers test membership once per informed node; a frozenset keeps that O(1)
    def reachable_from_alice(self) -> frozenset[int]:
        """Node ids connected to Alice through the radio graph.

        An upper bound on who can ever be informed: the message spreads only
        along edges, so nodes outside Alice's component are unreachable no
        matter how many hops relays provide.
        """

        csr = self.neighbor_csr()
        alice_nbrs = csr.row(self.n).astype(np.int64, copy=False)
        alice_nbrs = alice_nbrs[alice_nbrs < self.n]
        if alice_nbrs.size == 0:
            return frozenset()
        seen = np.zeros(self.n, dtype=bool)
        seen[alice_nbrs] = True
        rows = self._node_frontier_bfs(alice_nbrs, seen)
        return frozenset(int(r) for r in rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n={self.n})"


class SingleHop(Topology):
    """The seed model: one shared channel, everyone hears everyone.

    This class exists so the rest of the stack can treat topology uniformly;
    both engines and the channel check :attr:`is_single_hop` and take their
    original code paths, keeping seed outcomes bit-identical.  No adjacency
    is stored; :meth:`neighbor_csr` materialises the clique on demand and is
    intended for small-``n`` diagnostics only.
    """

    name = "single_hop"

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self._csr: Optional[NeighborCSR] = None

    @property
    def is_single_hop(self) -> bool:
        return True

    def can_hear(self, listener_id: int, sender_id: int) -> bool:
        return listener_id != sender_id

    def neighbor_csr(self) -> NeighborCSR:
        if self._csr is None:
            m = self.n + 1
            indptr = np.arange(m + 1, dtype=np.int64) * (m - 1)
            grid = np.broadcast_to(np.arange(m, dtype=np.int32), (m, m))
            indices = grid[~np.eye(m, dtype=bool)]
            self._csr = NeighborCSR(indptr=indptr, indices=np.ascontiguousarray(indices))
        return self._csr

    def any_neighbor_in(self, device_ids: np.ndarray, member_ids: np.ndarray) -> np.ndarray:
        # Everyone neighbours everyone else: a node has a member neighbour
        # unless the members are at most the node itself.
        rows = np.asarray(device_ids, dtype=np.int64)
        members = unique_sorted(np.asarray(member_ids, dtype=np.int64))
        if members.size != 1:
            return np.full(rows.size, members.size > 1, dtype=bool)
        return rows != members[0]

    def _compute_degrees(self) -> np.ndarray:
        return np.full(self.n, self.n - 1, dtype=np.int64)

    def _compute_neighborhood_sizes(self, hops: int, cap: Optional[int] = None) -> np.ndarray:
        # Every other device (n - 1 nodes plus Alice) is one hop away; no
        # need to materialise the Θ(n²) clique CSR to know that.
        return np.full(self.n, self.n, dtype=np.int64)

    def _compute_alice_within(self, hops: int) -> np.ndarray:
        return np.ones(self.n, dtype=bool)

    def connected_components(self) -> List[np.ndarray]:
        return [np.arange(self.n, dtype=np.int64)]

    # repro-lint: disable=R12 -- the base class's membership-test frozenset, on the clique
    def reachable_from_alice(self) -> frozenset[int]:
        return frozenset(range(self.n))


class _SpatialTopology(Topology):
    """Shared implementation for position-based topologies.

    Subclasses provide positions (rows ``0..n-1`` for nodes, row ``n`` for
    Alice) and the realised symmetric adjacency as a :class:`NeighborCSR`
    with an empty diagonal.
    """

    def __init__(self, positions: np.ndarray, csr: NeighborCSR) -> None:
        n = positions.shape[0] - 1
        super().__init__(n)
        if positions.shape != (n + 1, 2):
            raise ConfigurationError(f"positions must have shape (n+1, 2), got {positions.shape}")
        if csr.num_rows != n + 1:
            raise ConfigurationError(
                f"CSR adjacency must have {n + 1} rows, got {csr.num_rows}"
            )
        self._positions = positions
        self._csr = csr
        # Point index for disk queries: built lazily on the first
        # nodes_in_disk call (mobile jammers query a disk every phase).
        self._disk_grid: Optional[_CellGrid] = None

    @property
    def positions(self) -> np.ndarray:
        """Copy of all positions: shape ``(n+1, 2)`` float64, row ``n`` is Alice."""

        return self._positions.copy()

    def neighbor_csr(self) -> NeighborCSR:
        return self._csr

    def memory_bytes(self) -> int:
        return self._csr.memory_bytes()

    def can_hear(self, listener_id: int, sender_id: int) -> bool:
        if sender_id <= -2:  # synthetic Byzantine transmitter: audible everywhere
            return True
        return self._csr.contains(self._index(listener_id), self._index(sender_id))

    def position(self, device_id: int) -> Tuple[float, float]:
        x, y = self._positions[self._index(device_id)]
        return (float(x), float(y))

    def nodes_in_disk(self, center: Tuple[float, float], radius: float) -> np.ndarray:
        if radius < 0:
            raise ConfigurationError(f"disk radius must be non-negative, got {radius}")
        rows = self._disk_rows(center, radius)
        if rows.size and rows[-1] == self.n:
            # Alice's row is last among the sorted rows and first among ids.
            rows = np.concatenate(([ALICE_ID], rows[:-1]))
        return rows

    def _disk_rows(self, center: Tuple[float, float], radius: float) -> np.ndarray:
        """Rows inside the disk via a cached uniform-grid point index.

        Only cells intersecting the disk's bounding box are inspected, so a
        phase-by-phase mobile jammer pays ``O(points near the disk)`` instead
        of ``O(n)`` per query.  Candidate points go through the exact float
        predicate ``dist² <= radius²``.
        """

        if self._disk_grid is None:
            # ~1 point per cell in expectation: queries touch O(area · n) work.
            cell = 1.0 / max(1, int(math.sqrt(self._positions.shape[0])))
            self._disk_grid = _CellGrid(self._positions, cell)
        grid = self._disk_grid
        g = grid.grid_dim
        cx, cy = float(center[0]), float(center[1])
        x0 = max(int(math.floor((cx - radius) / grid.cell)), 0)
        y0 = max(int(math.floor((cy - radius) / grid.cell)), 0)
        x1 = min(int(math.floor((cx + radius) / grid.cell)), g - 1)
        y1 = min(int(math.floor((cy + radius) / grid.cell)), g - 1)
        if x0 > x1 or y0 > y1:  # disk entirely outside the unit square
            return np.empty(0, dtype=np.int64)
        window_cells = (x1 - x0 + 1) * (y1 - y0 + 1)
        if window_cells <= grid.occupied.size:
            xs = np.arange(x0, x1 + 1, dtype=np.int64)
            ys = np.arange(y0, y1 + 1, dtype=np.int64)
            ids = (xs[:, None] * g + ys[None, :]).ravel()
            slot, found = grid.lookup(ids)
            slots = slot[found]
        else:
            # Huge disk: filtering the occupied-cell table directly is cheaper
            # than enumerating the window.
            occ_x = grid.occupied // g
            occ_y = grid.occupied % g
            slots = np.flatnonzero(
                (occ_x >= x0) & (occ_x <= x1) & (occ_y >= y0) & (occ_y <= y1)
            )
        if slots.size == 0:
            return np.empty(0, dtype=np.int64)
        rows = grid.order[_gather_ranges(grid.starts[slots], grid.counts[slots])]
        deltas = self._positions[rows] - np.asarray(center, dtype=float)[None, :]
        inside = rows[(deltas ** 2).sum(axis=1) <= radius ** 2]
        inside.sort()
        return inside


def _sample_positions(n: int, rng: np.random.Generator, alice_placement: str) -> np.ndarray:
    positions = np.empty((n + 1, 2), dtype=float)
    positions[:n] = rng.random((n, 2))
    if alice_placement == "center":
        positions[n] = (0.5, 0.5)
    else:
        positions[n] = rng.random(2)
    return positions


class GilbertGraph(_SpatialTopology):
    """Random geometric (Gilbert) graph over the unit square.

    ``u ~ v`` iff ``dist(u, v) <= radius``; positions are uniform i.i.d.
    Use :meth:`sample` to build one deterministically from a generator.

    Parameters
    ----------
    positions:
        Float64 array of shape ``(n+1, 2)``; row ``n`` is Alice (Alice-last
        convention).
    radius:
        Connection radius in unit-square coordinates; must be positive.
    """

    name = "gilbert"

    def __init__(self, positions: np.ndarray, radius: float) -> None:
        if radius <= 0:
            raise ConfigurationError(f"radius must be positive, got {radius}")
        us, vs = _gilbert_edges_grid(positions, radius)
        super().__init__(positions, _edges_to_csr(us, vs, positions.shape[0]))
        self.radius = radius

    @classmethod
    def sample(
        cls,
        n: int,
        radius: float,
        rng: np.random.Generator,
        alice_placement: str = "center",
    ) -> "GilbertGraph":
        """Sample positions from ``rng`` and realise the graph.

        ``n`` correct nodes plus Alice (pinned to the centre unless
        ``alice_placement="random"``).
        """

        return cls(_sample_positions(n, rng, alice_placement), radius)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GilbertGraph(n={self.n}, radius={self.radius:.4f})"


class ScaleFreeGilbert(_SpatialTopology):
    """Heavy-tailed Gilbert graph: per-device Pareto radii, ``max`` linkage.

    Each device ``u`` draws ``r_u = min_radius · U^(-1/alpha)`` (Pareto with
    scale ``min_radius`` and tail index ``alpha``); ``u ~ v`` iff
    ``dist(u, v) <= max(r_u, r_v)``.  A device whose radius covers area ``A``
    links to roughly ``n·A`` others, so Pareto radii translate into a
    power-law degree tail — the scale-free Gilbert construction of
    arXiv:1411.6824 (undirected ``max`` convention; radii are truncated at
    ``sqrt(2)``, the diameter of the unit square, which only affects the
    extreme tail).

    Parameters
    ----------
    positions:
        Float64 array of shape ``(n+1, 2)``; row ``n`` is Alice.
    radii:
        Float64 array of shape ``(n+1,)`` — one radio radius per device,
        Alice-last like ``positions``.
    alpha, min_radius:
        The Pareto parameters the radii were drawn with (kept for reporting).
    """

    name = "scale_free"

    def __init__(
        self,
        positions: np.ndarray,
        radii: np.ndarray,
        alpha: float,
        min_radius: float,
    ) -> None:
        if radii.shape[0] != positions.shape[0]:
            raise ConfigurationError("one radius per device (including Alice) is required")
        us, vs = _scale_free_edges_grid(positions, radii)
        super().__init__(positions, _directed_edges_to_csr(us, vs, positions.shape[0]))
        self.alpha = alpha
        self.min_radius = min_radius
        self.radii = radii

    @classmethod
    def sample(
        cls,
        n: int,
        alpha: float,
        min_radius: float,
        rng: np.random.Generator,
        alice_placement: str = "center",
    ) -> "ScaleFreeGilbert":
        """Sample positions and Pareto radii from ``rng`` and realise the graph."""

        positions = _sample_positions(n, rng, alice_placement)
        uniforms = rng.random(n + 1)
        radii = np.minimum(min_radius * uniforms ** (-1.0 / alpha), math.sqrt(2.0))
        return cls(positions, radii, alpha, min_radius)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScaleFreeGilbert(n={self.n}, alpha={self.alpha:g}, "
            f"min_radius={self.min_radius:.4f})"
        )


def build_topology(
    spec: Optional[TopologySpec],
    n: int,
    random_source,
) -> Topology:
    """Realise a :class:`TopologySpec` into a concrete :class:`Topology`.

    ``random_source`` is the network's :class:`~repro.simulation.rng.RandomSource`;
    spatial topologies draw from its dedicated ``"topology"`` substream, so a
    single-hop build touches no random state at all (preserving seed-for-seed
    compatibility with pre-topology code).
    """

    if spec is None or spec.kind == "single_hop":
        return SingleHop(n)
    rng = random_source.stream("topology")
    if spec.kind == "gilbert":
        radius = spec.radius if spec.radius is not None else 2.0 * gilbert_connectivity_radius(n)
        return GilbertGraph.sample(n, radius, rng, alice_placement=spec.alice_placement)
    if spec.kind == "scale_free":
        min_radius = (
            spec.min_radius if spec.min_radius is not None else gilbert_connectivity_radius(n)
        )
        return ScaleFreeGilbert.sample(
            n, spec.alpha, min_radius, rng, alice_placement=spec.alice_placement
        )
    raise ConfigurationError(f"unknown topology kind {spec.kind!r}")  # pragma: no cover
