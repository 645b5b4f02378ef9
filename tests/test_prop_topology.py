"""Property tests for spatial topology generation.

Checks the structural invariants the engines rely on (determinism under the
run's seed, adjacency symmetry, no self-loops) and the two statistical
regimes the experiments exploit: the Gilbert connectivity threshold
``r_c = sqrt(ln n / (π n))`` and the heavy degree tail of the scale-free
variant.  All trials are seeded, so every assertion is deterministic.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from topology_reference import brute_force_reach_matrix, csr_to_dense

from repro.simulation import (
    ALICE_ID,
    GilbertGraph,
    Network,
    RandomSource,
    ScaleFreeGilbert,
    SimulationConfig,
    SingleHop,
    TopologySpec,
    build_topology,
    gilbert_connectivity_radius,
)
from repro.simulation.errors import ConfigurationError


def make_gilbert(n=64, radius=0.3, seed=0):
    return build_topology(TopologySpec.gilbert(radius=radius), n, RandomSource(seed))


def make_scale_free(n=64, alpha=2.0, seed=0):
    return build_topology(TopologySpec.scale_free(alpha=alpha), n, RandomSource(seed))


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            TopologySpec(kind="torus")

    @pytest.mark.parametrize("kwargs", [
        {"kind": "gilbert", "radius": 0.0},
        {"kind": "gilbert", "radius": -1.0},
        {"kind": "scale_free", "alpha": 0.0},
        {"kind": "scale_free", "min_radius": -0.5},
        {"kind": "gilbert", "alice_placement": "corner"},
    ])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TopologySpec(**kwargs)

    def test_config_rejects_non_spec_topology(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(n=16, topology="gilbert")


class TestSeedDeterminism:
    @pytest.mark.parametrize("maker", [make_gilbert, make_scale_free])
    def test_same_seed_same_graph(self, maker):
        a, b = maker(seed=42), maker(seed=42)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.neighbor_csr().indptr, b.neighbor_csr().indptr)
        assert np.array_equal(a.neighbor_csr().indices, b.neighbor_csr().indices)

    @pytest.mark.parametrize("maker", [make_gilbert, make_scale_free])
    def test_different_seed_different_graph(self, maker):
        a, b = maker(seed=1), maker(seed=2)
        assert not np.array_equal(a.positions, b.positions)

    def test_network_realises_spec_deterministically(self):
        config = SimulationConfig(n=48, seed=7, topology=TopologySpec.gilbert(radius=0.25))
        net_a, net_b = Network(config), Network(config)
        assert np.array_equal(
            csr_to_dense(net_a.topology.neighbor_csr()), csr_to_dense(net_b.topology.neighbor_csr())
        )

    def test_topology_build_does_not_perturb_engine_streams(self):
        plain = Network(SimulationConfig(n=32, seed=5))
        spatial = Network(SimulationConfig(n=32, seed=5, topology=TopologySpec.gilbert(radius=0.3)))
        draws_plain = plain.random_source.stream("engine:alice").random(8)
        draws_spatial = spatial.random_source.stream("engine:alice").random(8)
        assert np.array_equal(draws_plain, draws_spatial)


class TestAdjacencyInvariants:
    @pytest.mark.parametrize("maker", [make_gilbert, make_scale_free])
    def test_symmetric_no_self_loops(self, maker):
        topo = maker(seed=3)
        adjacency = csr_to_dense(topo.neighbor_csr())
        assert np.array_equal(adjacency, adjacency.T)
        assert not adjacency.diagonal().any()

    def test_can_hear_matches_adjacency_and_is_symmetric(self, ):
        topo = make_gilbert(n=32, seed=9)
        devices = [ALICE_ID] + list(range(32))
        for u in devices[:8]:
            for v in devices[:8]:
                assert topo.can_hear(u, v) == topo.can_hear(v, u)
                if u == v:
                    assert not topo.can_hear(u, v)

    def test_byzantine_senders_audible_everywhere(self):
        topo = make_gilbert(n=16, radius=0.01, seed=0)
        # Audible even on a radius so small no real edge exists.
        for listener in (ALICE_ID, 0, 1):
            assert topo.can_hear(listener, -2)
            assert topo.can_hear(listener, -5)
        assert not topo.can_hear(0, 0)  # a radio never hears itself
        assert not topo.can_hear(0, 1)

    def test_reach_matrix_agrees_with_can_hear(self):
        topo = make_gilbert(n=24, seed=11)
        matrix = brute_force_reach_matrix(topo)
        for u in [ALICE_ID, 0, 5, 7]:
            for v in [3, 5, ALICE_ID]:
                assert matrix[topo._index(u), topo._index(v)] == topo.can_hear(u, v)

    def test_edges_match_radius_geometry(self):
        topo = make_gilbert(n=40, radius=0.2, seed=13)
        positions = topo.positions
        adjacency = csr_to_dense(topo.neighbor_csr())
        deltas = positions[:, None, :] - positions[None, :, :]
        distances = np.sqrt((deltas ** 2).sum(axis=-1))
        expected = distances <= 0.2
        np.fill_diagonal(expected, False)
        assert np.array_equal(adjacency, expected)

    def test_single_hop_hears_everyone(self):
        topo = SingleHop(8)
        assert topo.is_single_hop
        assert topo.neighbors(0) == frozenset(range(1, 8)) | {ALICE_ID}
        assert topo.neighbors(ALICE_ID) == frozenset(range(8))
        assert topo.largest_component_fraction() == 1.0


class TestConnectivityThreshold:
    """Empirical connectivity agrees with the Gilbert threshold regime."""

    N = 400

    def _fractions(self, multiplier, seeds=range(5)):
        r = multiplier * gilbert_connectivity_radius(self.N)
        return [
            build_topology(
                TopologySpec.gilbert(radius=r), self.N, RandomSource(1000 + s)
            ).largest_component_fraction()
            for s in seeds
        ]

    def test_subcritical_radius_fragments(self):
        fractions = self._fractions(0.4)
        assert max(fractions) < 0.5

    def test_supercritical_radius_connects(self):
        fractions = self._fractions(2.0)
        assert min(fractions) > 0.95

    def test_fraction_increases_across_threshold(self):
        below = np.mean(self._fractions(0.6))
        above = np.mean(self._fractions(1.5))
        assert above > below + 0.3

    def test_reachable_from_alice_subset_of_component(self):
        topo = make_gilbert(n=100, radius=0.12, seed=4)
        reachable = topo.reachable_from_alice()
        assert reachable  # Alice at the centre of a near-critical graph
        components = topo.connected_components()
        # Every node reachable from Alice lies in a single node-component
        # (Alice's edges can merge node-components, so take the union of the
        # components her neighbours touch).
        neighbor_components = [c for c in components if c & topo.node_neighbors(ALICE_ID)]
        union = frozenset().union(*neighbor_components) if neighbor_components else frozenset()
        assert reachable == union


def _disk_in_square_area(dx: np.ndarray, dy: np.ndarray, r: float) -> np.ndarray:
    """Area of a radius-``r`` disk clipped to the unit square (``r <= 1/2``).

    ``dx``/``dy`` are the centre's distances to the nearest vertical and
    horizontal edge.  With ``r <= 1/2`` at most one edge per axis cuts the
    disk, so the area is the full disk minus the two circular segments plus
    the corner piece both segments remove.
    """

    def segment(d):
        d = np.minimum(d, r)
        return r * r * np.arccos(d / r) - d * np.sqrt(r * r - d * d)

    def antiderivative(t):  # of sqrt(r² - t²)
        return 0.5 * (t * np.sqrt(r * r - t * t) + r * r * np.arcsin(t / r))

    corner = dx * dx + dy * dy < r * r
    b = np.sqrt(np.maximum(r * r - dy * dy, 0.0))
    overlap = np.where(
        corner, antiderivative(b) - antiderivative(np.minimum(dx, b)) - dy * (b - dx), 0.0
    )
    return math.pi * r * r - segment(dx) - segment(dy) + overlap


class TestClosedFormEdgeCount:
    """Gilbert edge counts against the closed form of arXiv:1312.4861.

    For ``n`` uniform points in the unit square two points link with
    probability ``p = πr² − 8r³/3 + r⁴/2``, so ``E[edges] = C(n, 2)·p``.  The
    edge count is a U-statistic, whose variance is
    ``C(n, 2)·p(1 − p) + 6·C(n, 3)·(E[A(X)²] − p²)`` where ``A(X)`` is the
    area of the radius-``r`` disk around a uniform point, clipped to the
    square.  The panel mean over fixed seeds must sit within 3 standard
    errors of ``E[edges]`` (Alice's edges excluded: she is not uniform).
    """

    SEEDS = range(20)

    @staticmethod
    def edge_probability(r: float) -> float:
        return math.pi * r * r - 8.0 * r ** 3 / 3.0 + r ** 4 / 2.0

    @staticmethod
    def clipped_area_moments(r: float, grid: int = 1500) -> "tuple[float, float]":
        # By symmetry the distance to the nearest vertical (horizontal) edge
        # is uniform on [0, 1/2]: a midpoint rule over that quarter cell.
        d = (np.arange(grid) + 0.5) / (2 * grid)
        area = _disk_in_square_area(d[:, None], d[None, :], r)
        return float(area.mean()), float((area ** 2).mean())

    @pytest.mark.parametrize("n", [500, 5000])
    def test_mean_edge_count_matches_closed_form(self, n):
        r = 1.5 * gilbert_connectivity_radius(n)
        p = self.edge_probability(r)
        mean_area, mean_area_sq = self.clipped_area_moments(r)
        assert mean_area == pytest.approx(p, rel=1e-5)  # quadrature self-check
        pairs, triples = math.comb(n, 2), math.comb(n, 3)
        variance = pairs * p * (1 - p) + 6 * triples * (mean_area_sq - p * p)
        edges = [
            int(build_topology(TopologySpec.gilbert(radius=r), n, RandomSource(seed)).degrees().sum())
            // 2
            for seed in self.SEEDS
        ]
        z = (np.mean(edges) - pairs * p) / math.sqrt(variance / len(edges))
        assert abs(z) < 3.0, (n, np.mean(edges), pairs * p, z)


class TestScaleFreeDegreeTail:
    def test_degree_tail_heavier_than_gilbert(self):
        n = 300
        sf = build_topology(TopologySpec.scale_free(alpha=1.5), n, RandomSource(21))
        degrees = sf.degrees()
        median = np.median(degrees)
        # Hubs: some node's degree dwarfs the median; a homogeneous Gilbert
        # graph (Poisson degrees) never shows this spread.
        assert degrees.max() >= 6 * max(median, 1.0)
        gilbert = build_topology(
            TopologySpec.gilbert(radius=2.0 * gilbert_connectivity_radius(n)),
            n,
            RandomSource(21),
        )
        g_degrees = gilbert.degrees()
        g_ratio = g_degrees.max() / max(np.median(g_degrees), 1.0)
        sf_ratio = degrees.max() / max(median, 1.0)
        assert sf_ratio > 2.0 * g_ratio

    def test_radii_are_pareto_bounded_below(self):
        sf = make_scale_free(n=128, alpha=2.5, seed=8)
        assert isinstance(sf, ScaleFreeGilbert)
        assert (sf.radii >= sf.min_radius - 1e-12).all()
        assert (sf.radii <= np.sqrt(2.0) + 1e-12).all()


class TestSpatialQueries:
    def test_nodes_in_disk_matches_geometry(self):
        topo = make_gilbert(n=60, seed=17)
        center, radius = (0.5, 0.5), 0.3
        inside = topo.nodes_in_disk(center, radius)
        assert ALICE_ID in inside  # Alice sits at the centre by default
        positions = topo.positions
        for node in range(60):
            d2 = (positions[node, 0] - 0.5) ** 2 + (positions[node, 1] - 0.5) ** 2
            assert (node in inside) == (d2 <= radius ** 2)

    def test_single_hop_disk_is_everyone(self):
        topo = SingleHop(10)
        assert topo.nodes_in_disk((0.0, 0.0), 0.01) == frozenset(range(10)) | {ALICE_ID}

    def test_gilbert_default_radius_is_supercritical(self):
        topo = build_topology(TopologySpec.gilbert(), 200, RandomSource(2))
        assert isinstance(topo, GilbertGraph)
        assert topo.radius == pytest.approx(2.0 * gilbert_connectivity_radius(200))
