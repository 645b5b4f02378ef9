"""Brute-force references for the CSR topology layer.

The library builds every spatial graph with a grid cell index and answers
disk queries through a cached point grid.  The functions here recompute the
same objects the slow, obvious way — all pairs of devices, every point for a
disk — so tests can check the fast constructions against them.  They are
Θ(n²) in time and memory: keep ``n`` to a few hundred.

Row order follows the topology layer's Alice-last convention: rows
``0 .. n-1`` are the correct nodes and row ``n`` is Alice.
"""

from __future__ import annotations

import numpy as np

from repro.simulation import GilbertGraph, NeighborCSR, ScaleFreeGilbert, SingleHop, Topology


def pairwise_sq_distances(positions: np.ndarray) -> np.ndarray:
    deltas = positions[:, None, :] - positions[None, :, :]
    return (deltas ** 2).sum(axis=-1)


def brute_force_reach_matrix(topo: Topology) -> np.ndarray:
    """The ``(n+1)×(n+1)`` boolean adjacency from the all-pairs edge predicate.

    Gilbert: ``dist² <= r²``.  Scale-free: ``dist² <= max(r_u, r_v)²``.
    Single-hop: the clique.  The diagonal is empty (a radio never hears
    itself).
    """

    m = topo.n + 1
    if isinstance(topo, SingleHop):
        reach = np.ones((m, m), dtype=bool)
    elif isinstance(topo, GilbertGraph):
        reach = pairwise_sq_distances(topo.positions) <= topo.radius ** 2
    elif isinstance(topo, ScaleFreeGilbert):
        link_radius = np.maximum(topo.radii[:, None], topo.radii[None, :])
        reach = pairwise_sq_distances(topo.positions) <= link_radius ** 2
    else:  # pragma: no cover - a new topology class needs a reference here
        raise TypeError(f"no brute-force reference for {type(topo).__name__}")
    np.fill_diagonal(reach, False)
    return reach


def csr_to_dense(csr: NeighborCSR) -> np.ndarray:
    """Expand a CSR neighbour list into its boolean adjacency matrix."""

    m = csr.num_rows
    dense = np.zeros((m, m), dtype=bool)
    rows = np.repeat(np.arange(m, dtype=np.int64), csr.degrees())
    dense[rows, csr.indices.astype(np.int64)] = True
    return dense


def brute_force_disk_rows(
    positions: np.ndarray, center: "tuple[float, float]", radius: float
) -> np.ndarray:
    """Sorted rows whose position lies in the closed disk (every point scanned)."""

    deltas = positions - np.asarray(center, dtype=float)[None, :]
    return np.flatnonzero((deltas ** 2).sum(axis=1) <= radius ** 2)
