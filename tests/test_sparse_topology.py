"""CSR topology layer: brute-force references and slot-engine parity.

Every spatial topology is held as a grid-built CSR neighbour list, and the
vectorised engine resolves multi-hop phases from transmission events over
it.  The checks here:

* the CSR neighbourhoods must expand to exactly the brute-force all-pairs
  reach matrix for every topology class (``topology_reference``), and the
  grid-indexed disk queries must select exactly the brute-force scan's rows;
* no size threshold or backend knob remains; and
* the event-driven multi-hop engine path must be statistically equivalent
  to the slot engine (the ``equivalence`` KS/moment harness).

All trials are seeded, so every assertion is deterministic.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivalence import (
    assert_means_close,
    assert_same_distribution,
    column,
    paired_phase_records,
)
from topology_reference import brute_force_disk_rows, brute_force_reach_matrix, csr_to_dense

from repro.core.api import run_broadcast
from repro.observability import TraceCollector
from repro.simulation import (
    ALICE_ID,
    GilbertGraph,
    JamPlan,
    JamTargeting,
    Network,
    PhaseKind,
    PhasePlan,
    PhaseRoles,
    RandomSource,
    ScaleFreeGilbert,
    SimulationConfig,
    SingleHop,
    TopologySpec,
    build_topology,
    gilbert_connectivity_radius,
)
from repro.simulation.errors import ConfigurationError
from repro.simulation.fastengine import PhaseEngine, _listener_pairs, _sample_bernoulli_events
from repro.simulation.topology import _edges_to_csr, _gather_ranges, _gilbert_edges_grid


def sample_topology(kind, n=64, seed=0, radius=0.25, alpha=2.0, min_radius=0.05):
    """A Gilbert or scale-free graph sampled from a seeded generator."""

    rng = np.random.default_rng(seed)
    if kind == "gilbert":
        return GilbertGraph.sample(n, radius, rng)
    return ScaleFreeGilbert.sample(n, alpha, min_radius, rng)


ALL_SPECS = [
    TopologySpec.single_hop(),
    TopologySpec.gilbert(radius=0.22),
    TopologySpec.scale_free(alpha=2.0),
]


class TestCsrMatchesReachMatrix:
    """`neighbor_csr()` expands to exactly the brute-force reach matrix."""

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_csr_expands_to_reach_matrix(self, spec, seed):
        topo = build_topology(spec, 48, RandomSource(seed))
        assert np.array_equal(csr_to_dense(topo.neighbor_csr()), brute_force_reach_matrix(topo))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_per_listener_slices_match(self, spec):
        n = 40
        topo = build_topology(spec, n, RandomSource(3))
        for device in [ALICE_ID, 0, 5, n - 1]:
            ids = topo.neighbor_slice(device)
            row = topo.neighbor_csr().row(topo._index(device))
            as_ids = [ALICE_ID if r == n else int(r) for r in row]
            assert ids.dtype == np.int64
            assert ids.tolist() == sorted(as_ids)  # Alice (-1) first when in range
            assert list(row) == sorted(row)  # sorted within each row
            assert topo._index(device) not in row  # empty diagonal

    def test_csr_is_symmetric_and_cached(self):
        topo = sample_topology("gilbert", n=80, seed=5)
        csr = topo.neighbor_csr()
        assert csr is topo.neighbor_csr()  # memoised
        mat = csr_to_dense(csr)
        assert np.array_equal(mat, mat.T)
        assert not mat.diagonal().any()
        assert csr.nnz == int(mat.sum())


class TestGridEqualsBruteForce:
    """The grid cell index realises the identical edge set as all-pairs."""

    @pytest.mark.parametrize("radius", [0.03, 0.1, 0.25, 0.6, 1.3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_gilbert(self, radius, seed):
        topo = sample_topology("gilbert", n=150, seed=seed, radius=radius)
        assert np.array_equal(csr_to_dense(topo.neighbor_csr()), brute_force_reach_matrix(topo))

    @pytest.mark.parametrize("alpha,min_radius", [(2.5, 0.04), (1.2, 0.05), (0.7, 0.02)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_scale_free(self, alpha, min_radius, seed):
        topo = sample_topology("scale_free", n=150, seed=seed, alpha=alpha, min_radius=min_radius)
        assert np.array_equal(csr_to_dense(topo.neighbor_csr()), brute_force_reach_matrix(topo))

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 120),
        seed=st.integers(0, 2**32 - 1),
        min_radius=st.floats(0.01, 0.3),
        alpha=st.floats(0.5, 4.0),
    )
    def test_scale_free_one_sweep(self, n, seed, min_radius, alpha):
        """One sweep over the widest band's window keeps every device's own
        window: the CSR is the ``dist ≤ max(r_u, r_v)`` graph, hubs included."""

        rng = np.random.default_rng(seed)
        positions = rng.random((n + 1, 2))
        radii = np.minimum(min_radius * rng.random(n + 1) ** (-1.0 / alpha), math.sqrt(2.0))
        topo = ScaleFreeGilbert(positions, radii, alpha, min_radius)
        assert np.array_equal(csr_to_dense(topo.neighbor_csr()), brute_force_reach_matrix(topo))

    def test_statistics_agree_across_backends(self):
        """The CSR graph statistics equal those of the brute-force matrix."""

        topo = sample_topology("gilbert", n=200, seed=11, radius=0.08)
        reach = brute_force_reach_matrix(topo)
        n = topo.n
        assert np.array_equal(topo.degrees(), reach[:n, :n].sum(axis=1))
        # Plain BFS over the reference matrix: Alice's component, and all
        # node components (Alice excluded).
        reached = set(np.flatnonzero(reach[n, :n]).tolist())
        frontier = list(reached)
        while frontier:
            nxt = set(np.flatnonzero(reach[frontier][:, :n].any(axis=0)).tolist()) - reached
            reached |= nxt
            frontier = list(nxt)
        assert topo.reachable_from_alice() == frozenset(reached)
        components = topo.connected_components()
        assert np.array_equal(np.sort(np.concatenate(components)), np.arange(n))
        sizes = sorted(c.size for c in components)
        assert topo.largest_component_fraction() == sizes[-1] / n

    def test_reach_matrix_and_can_hear_on_sparse_backend(self):
        topo = sample_topology("gilbert", n=60, seed=2, radius=0.2)
        reach = brute_force_reach_matrix(topo)
        for u in [ALICE_ID, 0, 7, 31]:
            for v in [5, 7, ALICE_ID]:
                assert topo.can_hear(u, v) == bool(reach[topo._index(u), topo._index(v)])
            assert topo.can_hear(u, -3)  # synthetic Byzantine sender: audible everywhere

    def test_any_neighbor_in_matches_set_intersection(self):
        topo = sample_topology("scale_free", n=90, seed=4)
        members = np.arange(0, 90, 7)
        devices = np.arange(0, 90, 3)
        expected = np.array(
            [np.intersect1d(topo.neighbor_slice(d), members).size > 0 for d in devices]
        )
        assert np.array_equal(topo.any_neighbor_in(devices, members), expected)
        assert not topo.any_neighbor_in(devices, members[:0]).any()
        # SingleHop: every other member is a neighbour.
        clique = SingleHop(10)
        got = clique.any_neighbor_in(np.array([0, 1, 9]), np.array([1]))
        assert got.tolist() == [True, False, True]
        assert clique.any_neighbor_in(np.array([0, 1]), np.array([1, 1, 3])).all()
        assert clique.any_neighbor_in(np.array([0, 1]), np.array([], dtype=np.int64)).size == 2
        assert not clique.any_neighbor_in(np.array([0, 1]), np.array([], dtype=np.int64)).any()


def lexsort_csr(us, vs, num_rows):
    """The ``np.lexsort`` CSR construction ``_edges_to_csr`` replaced."""

    rows = np.concatenate([us, vs])
    cols = np.concatenate([vs, us])
    order = np.lexsort((cols, rows))
    counts = np.bincount(rows[order], minlength=num_rows)
    indptr = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)])
    return indptr, cols[order].astype(np.int32)


class TestEdgesToCsr:
    """The int64-key sort builds the same CSR as the lexsort it replaced."""

    @staticmethod
    def assert_matches_lexsort(us, vs, num_rows):
        csr = _edges_to_csr(us, vs, num_rows)
        indptr, indices = lexsort_csr(us, vs, num_rows)
        assert csr.indptr.dtype == indptr.dtype and csr.indices.dtype == indices.dtype
        assert np.array_equal(csr.indptr, indptr)
        assert np.array_equal(csr.indices, indices)

    @staticmethod
    def scrambled(us, vs, seed):
        """The same unordered pairs in a random order, endpoints randomly swapped."""

        rng = np.random.default_rng(seed)
        order = rng.permutation(us.size)
        us, vs = us[order], vs[order]
        swap = rng.random(us.size) < 0.5
        return np.where(swap, vs, us), np.where(swap, us, vs)

    @pytest.mark.parametrize("radius", [0.03, 0.1, 0.3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_gilbert_edge_lists(self, radius, seed):
        positions = np.random.default_rng(seed).random((301, 2))
        us, vs = _gilbert_edges_grid(positions, radius)
        assert us.size > 0
        self.assert_matches_lexsort(us, vs, 301)
        self.assert_matches_lexsort(*self.scrambled(us, vs, seed), 301)

    @pytest.mark.parametrize("alpha,min_radius", [(2.5, 0.04), (1.2, 0.05)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_scale_free_edge_lists(self, alpha, min_radius, seed):
        topo = sample_topology("scale_free", n=300, seed=seed, alpha=alpha, min_radius=min_radius)
        origins, targets = topo.neighbor_csr().expand(np.arange(topo.n + 1))
        upper = origins < targets
        us, vs = self.scrambled(origins[upper], targets[upper], seed)
        self.assert_matches_lexsort(us, vs, topo.n + 1)

    def test_empty_and_single_edge(self):
        empty = np.empty(0, dtype=np.int64)
        self.assert_matches_lexsort(empty, empty, 5)
        self.assert_matches_lexsort(np.array([3], dtype=np.int64), np.array([1], dtype=np.int64), 5)


class TestCrossover:
    """No dense/sparse crossover remains: one CSR representation at every size."""

    def test_real_threshold_value(self):
        # 4096 devices is where the removed crossover sat; at and below it
        # graphs used to be held as an (n+1)² boolean matrix.
        n = 4096
        topo = GilbertGraph.sample(n, 0.05, np.random.default_rng(1))
        assert topo.memory_bytes() == topo.neighbor_csr().memory_bytes()
        assert topo.memory_bytes() < (n + 1) ** 2 // 4

    def test_spec_rejects_non_bool_sparse(self):
        # The removed backend knob fails loudly instead of being ignored.
        for value in ("yes", True, False):
            with pytest.raises(TypeError):
                TopologySpec(kind="gilbert", sparse=value)
            with pytest.raises(ConfigurationError):
                run_broadcast(
                    n=16, seed=1, variant="multihop", topology="gilbert",
                    topology_kwargs={"radius": 0.3, "sparse": value},
                )

    def test_single_hop_stores_nothing(self):
        assert SingleHop(50).memory_bytes() == 0


def chi_square_fits(observed, expected, alpha_z=3.09):
    """Pearson's χ² goodness of fit at α ≈ 10⁻³ (Wilson–Hilferty critical value).

    ``observed`` and ``expected`` are per-bin counts over the same total;
    adjacent bins are pooled left to right until each expects at least 5.
    """

    pooled_obs, pooled_exp, obs_acc, exp_acc = [], [], 0.0, 0.0
    for obs, exp in zip(observed, expected):
        obs_acc, exp_acc = obs_acc + obs, exp_acc + exp
        if exp_acc >= 5:
            pooled_obs.append(obs_acc)
            pooled_exp.append(exp_acc)
            obs_acc = exp_acc = 0.0
    pooled_obs[-1] += obs_acc
    pooled_exp[-1] += exp_acc
    obs, exp = np.array(pooled_obs), np.array(pooled_exp)
    statistic = float(((obs - exp) ** 2 / exp).sum())
    df = obs.size - 1
    assert df >= 1, "too few bins for a χ² test"
    critical = df * (1 - 2 / (9 * df) + alpha_z * math.sqrt(2 / (9 * df))) ** 3
    return statistic < critical, statistic, critical


def binomial_pmf(trials, p):
    """``P(m = k)`` for ``k = 0..trials`` (log-space, so large ``trials`` stay finite)."""

    k = np.arange(trials + 1)
    log_choose = np.array(
        [math.lgamma(trials + 1) - math.lgamma(i + 1) - math.lgamma(trials - i + 1) for i in k]
    )
    return np.exp(log_choose + k * math.log(p) + (trials - k) * math.log1p(-p))


class TestBernoulliEventSampler:
    """The multi-hop path's exact ``O(events)`` sampler of a Bernoulli grid."""

    DRAWS = 2000

    def test_matches_bernoulli_grid_moments(self):
        rng = np.random.default_rng(0)
        num, s, p = 40, 5000, 0.001
        counts = []
        for _ in range(30):
            idx, slots = _sample_bernoulli_events(rng, num, s, p)
            assert idx.size == slots.size
            assert ((0 <= idx) & (idx < num)).all()
            assert ((0 <= slots) & (slots < s)).all()
            # no duplicate (device, slot) cells
            assert np.unique(idx * s + slots).size == idx.size
            counts.append(idx.size)
        expected = num * s * p
        assert abs(np.mean(counts) - expected) < 5 * np.sqrt(expected / 30)

    @pytest.mark.parametrize(
        "num,s,p",
        [
            (1, 1, 0.5),  # one cell
            (6, 5, 0.25),
            (6, 5, 0.5),
            (6, 5, 0.6),  # from here on the complement branch draws most grids
            (6, 5, 0.9),
            (40, 50, 0.01),
            (20, 10_000, 0.0005),
        ],
    )
    def test_exact_distribution_and_contract(self, num, s, p):
        """Count ~ Binomial(num·s, p); rows and slots hit uniformly; sorted int64 keys."""

        rng = np.random.default_rng(num * 1000 + s)
        cells = num * s
        counts = np.zeros(self.DRAWS, dtype=np.int64)
        row_hits = np.zeros(num, dtype=np.int64)
        slot_hits = np.zeros(s, dtype=np.int64)
        for draw in range(self.DRAWS):
            idx, slots = _sample_bernoulli_events(rng, num, s, p)
            assert idx.dtype == np.int64 and slots.dtype == np.int64
            keys = idx * s + slots
            assert (np.diff(keys) > 0).all()  # grouped by row, slots ascending, no duplicates
            assert keys.size == 0 or (0 <= keys[0] and keys[-1] < cells)
            counts[draw] = keys.size
            row_hits += np.bincount(idx, minlength=num)
            slot_hits += np.bincount(slots, minlength=s)

        observed = np.bincount(counts, minlength=cells + 1)
        fits, statistic, critical = chi_square_fits(observed, self.DRAWS * binomial_pmf(cells, p))
        assert fits, f"count χ² {statistic:.1f} ≥ {critical:.1f}"
        for hits in (row_hits, slot_hits):
            if hits.size > 1:
                uniform = np.full(hits.size, hits.sum() / hits.size)
                fits, statistic, critical = chi_square_fits(hits, uniform)
                assert fits, f"uniformity χ² {statistic:.1f} ≥ {critical:.1f}"

    def test_degenerate_inputs(self):
        rng = np.random.default_rng(1)
        for num, s, p in [(0, 10, 0.5), (10, 0, 0.5), (10, 10, 0.0), (0, 0, 1.0), (4, 4, -0.1)]:
            idx, slots = _sample_bernoulli_events(rng, num, s, p)
            assert idx.size == 0 and slots.size == 0
            assert idx.dtype == np.int64 and slots.dtype == np.int64
        for p in (1.0, 1.5):  # p ≥ 1 fills the grid, in row-major order
            idx, slots = _sample_bernoulli_events(rng, 3, 4, p)
            assert idx.tolist() == [0] * 4 + [1] * 4 + [2] * 4
            assert slots.tolist() == [0, 1, 2, 3] * 3

    def test_memory_is_proportional_to_events(self):
        """A sparse draw over 2·10⁶ cells allocates nothing grid-sized."""

        rng = np.random.default_rng(2)
        tracemalloc.start()
        try:
            idx, _ = _sample_bernoulli_events(rng, 20_000, 100, 5e-5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < idx.size < 1000
        assert peak < 1 << 20, f"peak {peak / 2**20:.1f} MiB"


def expand_then_filter(csr, u_pos, s, cohort, idx, slots):
    """The per-pair expansion ``_listener_pairs`` replaced: every event's whole
    CSR row, then the inactive listeners dropped.  Alice (the last row) hears
    the slot of every event whose sender neighbours her."""

    heard = np.zeros(s, dtype=bool)
    if idx.size == 0:
        return np.empty(0, dtype=np.int64), heard
    origins, nbrs = csr.expand(cohort[idx])
    pair_slots = slots[origins]
    heard[pair_slots[nbrs == csr.num_rows - 1]] = True
    pos = u_pos[nbrs]
    active = pos >= 0
    return pos[active] * s + pair_slots[active], heard


def listener_positions(listeners, num_rows):
    u_pos = np.full(num_rows, -1, dtype=np.int64)
    u_pos[np.asarray(listeners, dtype=np.int64)] = np.arange(len(listeners), dtype=np.int64)
    return u_pos


@st.composite
def phase_events(draw):
    """A small graph (last row Alice), a listener set, a cohort and its events."""

    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    us = np.array([u for u, _ in edges], dtype=np.int64)
    vs = np.array([v for _, v in edges], dtype=np.int64)
    csr = _edges_to_csr(us, vs, n + 1)
    listeners = sorted(draw(st.sets(st.integers(0, n - 1))))
    # Cohorts are sorted rows; Alice's row n is a cohort of its own in the engine.
    cohort = np.array(sorted(draw(st.sets(st.integers(0, n), min_size=1))), dtype=np.int64)
    s = draw(st.integers(1, 5))
    flat = np.array(sorted(draw(st.sets(st.integers(0, cohort.size * s - 1)))), dtype=np.int64)
    return csr, listener_positions(listeners, n + 1), s, cohort, flat // s, flat % s


class TestListenerPairs:
    """Per-sender expansion onto active listeners equals per-event expansion."""

    @staticmethod
    def assert_matches_reference(csr, u_pos, s, cohort, idx, slots):
        reference_keys, reference_heard = expand_then_filter(csr, u_pos, s, cohort, idx, slots)
        for alice_listens in (False, True):
            keys, heard = _listener_pairs(csr, u_pos, s, cohort, idx, slots, alice_listens)
            assert keys.dtype == np.int64
            assert keys.tolist() == reference_keys.tolist()  # same keys, same order
            heard_mask = np.zeros(s, dtype=bool)
            heard_mask[heard] = True
            expected = reference_heard if alice_listens else np.zeros(s, dtype=bool)
            assert heard_mask.tolist() == expected.tolist()

    @settings(max_examples=300, deadline=None)
    @given(phase_events())
    def test_matches_expand_then_filter(self, case):
        self.assert_matches_reference(*case)

    # Rows 0–3 are nodes and row 4 is Alice; node 1 neighbours Alice.
    GRAPH = _edges_to_csr(np.array([0, 0, 1, 2]), np.array([1, 2, 4, 3]), 5)

    @pytest.mark.parametrize(
        "listeners,cohort,idx,slots",
        [
            ([0, 2, 3], [0, 1, 2], [], []),  # no events
            ([1, 2, 3], [0], [0, 0, 0], [1, 4, 5]),  # one sender, several events
            ([0, 3], [1, 2], [0, 0, 1], [0, 3, 3]),  # sender 1 neighbours Alice
            ([], [0, 1, 2, 3], [0, 1, 1, 3], [2, 0, 5, 5]),  # no active listener
            ([1], [4], [0, 0], [2, 3]),  # Alice as the sender
            ([0, 1, 2], [3], [0], [5]),  # sender with no active neighbour
        ],
    )
    def test_edge_cases(self, listeners, cohort, idx, slots):
        self.assert_matches_reference(
            self.GRAPH,
            listener_positions(listeners, 5),
            6,
            np.array(cohort, dtype=np.int64),
            np.array(idx, dtype=np.int64),
            np.array(slots, dtype=np.int64),
        )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 4)), max_size=8))
    def test_gather_ranges_concatenates_ranges(self, ranges):
        starts = np.array([start for start, _ in ranges], dtype=np.int64)
        counts = np.array([count for _, count in ranges], dtype=np.int64)
        expected = [i for start, count in ranges for i in range(start, start + count)]
        flat = _gather_ranges(starts, counts)
        assert flat.dtype == np.int64 and flat.tolist() == expected


class TestMultiHopPhaseMemory:
    """A multi-hop phase's working set is its active-listener pairs.

    The phase shapes are the worst of the quick registry at n = 256: an E11
    propagation phase (57 relays, 47 listeners, about 7,300 relay events, mean
    degree about 30) and an E13 request phase (255 listeners, about 33,000
    nacks, mean degree about 8).  Expanding every event's whole CSR row and
    copying the pairs per set operation peaked at 7.9 and 14.6 MiB here.
    """

    S = 32_768

    @staticmethod
    def traced_peak(plan, roles, radius_factor, n=256):
        radius = radius_factor * gilbert_connectivity_radius(n)
        config = SimulationConfig(n=n, seed=7, topology=TopologySpec.gilbert(radius=radius))
        network = Network(config)
        engine = PhaseEngine(network)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            result = engine.run_phase(plan, roles, JamPlan.idle())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak - before

    def test_propagation_phase(self):
        plan = PhasePlan(
            name="propagation:1", kind=PhaseKind.PROPAGATION, round_index=9,
            num_slots=self.S, step=1, relay_send_prob=0.004, uninformed_listen_prob=0.004,
        )
        roles = PhaseRoles(range(47), relays=range(47, 104))
        result, peak = self.traced_peak(plan, roles, radius_factor=2.5)
        assert result.newly_informed.size > 0
        assert peak < 4 << 20, f"peak {peak / 2**20:.2f} MiB"

    def test_request_phase(self):
        plan = PhasePlan(
            name="request", kind=PhaseKind.REQUEST, round_index=9, num_slots=self.S,
            alice_listen_prob=0.004, uninformed_listen_prob=0.004, nack_send_prob=0.004,
        )
        result, peak = self.traced_peak(plan, PhaseRoles(range(255)), radius_factor=1.3)
        assert result.node_noisy_heard.sum() > 0
        assert peak < 9 << 20, f"peak {peak / 2**20:.2f} MiB"


def multihop_phase_records(plan, roles_builder, jam_builder=JamPlan.idle, n=48):
    """One phase on the slot and fast engines over a Gilbert graph, 30 seeds."""

    return paired_phase_records(
        plan,
        roles_builder,
        jam_builder,
        n=n,
        trials=30,
        base_seed=500,
        config_kwargs={"topology": TopologySpec.gilbert(radius=0.3)},
    )


class TestEnginePathEquivalence:
    """The event-driven multi-hop fast path matches the slot engine."""

    N = 48

    def _check(self, records, keys, rel=0.2):
        for key in keys:
            a, b = column(records["slot"], key), column(records["fast"], key)
            assert_same_distribution(a, b, alpha=0.01, label=key)
            assert_means_close(a, b, rel=rel, abs_tol=2.0, label=key)

    def _check_overcount(self, records, keys, max_ratio):
        """The documented approximation: nodes informed mid-phase keep their
        sampled nack/decoy events, so the fast engine hears more noise than
        the slot engine, which mutes them — by at most ``max_ratio``."""

        for key in keys:
            slot = float(np.mean(column(records["slot"], key)))
            fast = float(np.mean(column(records["fast"], key)))
            assert slot <= fast <= max_ratio * slot, (key, slot, fast)

    def test_inform_phase(self):
        plan = PhasePlan(
            name="inform", kind=PhaseKind.INFORM, round_index=5, num_slots=256,
            alice_send_prob=0.05, uninformed_listen_prob=0.2,
        )
        records = multihop_phase_records(plan, lambda net: PhaseRoles(range(net.n)), n=self.N)
        self._check(records, ["informed", "alice_cost", "node_total", "busy_slots"])

    def test_propagation_phase_with_relays(self):
        plan = PhasePlan(
            name="propagation:1", kind=PhaseKind.PROPAGATION, round_index=5,
            num_slots=256, step=1, relay_send_prob=0.02, uninformed_listen_prob=0.25,
        )
        records = multihop_phase_records(
            plan,
            lambda net: PhaseRoles(range(net.n // 2), relays=range(net.n // 2, net.n)),
            n=self.N,
        )
        self._check(records, ["informed", "node_total", "delivery_slots"])

    def test_request_phase_noise_counts(self):
        plan = PhasePlan(
            name="request", kind=PhaseKind.REQUEST, round_index=5, num_slots=256,
            alice_listen_prob=0.3, uninformed_listen_prob=0.3, nack_send_prob=0.05,
        )
        records = multihop_phase_records(plan, lambda net: PhaseRoles(range(net.n)), n=self.N)
        self._check(
            records, ["alice_noisy", "node_noisy_total", "node_total", "alice_cost"]
        )

    def test_request_phase_under_targeted_jamming(self):
        plan = PhasePlan(
            name="request", kind=PhaseKind.REQUEST, round_index=5, num_slots=192,
            alice_listen_prob=0.3, uninformed_listen_prob=0.3, nack_send_prob=0.04,
        )
        jam = lambda: JamPlan(
            jam_rate=0.3, targeting=JamTargeting.only(range(0, self.N, 2))
        )
        records = multihop_phase_records(
            plan, lambda net: PhaseRoles(range(net.n)), jam_builder=jam, n=self.N
        )
        self._check(records, ["alice_noisy", "node_noisy_total", "node_total"])

    def test_request_phase_with_payload_senders(self):
        # A request phase that also carries payload (never built by the
        # protocol schedules, but legal through the engine API): delivery and
        # costs are exact; noise over-counts because nodes informed mid-phase
        # keep nacking for their neighbours (measured x1.8-2.0).
        plan = PhasePlan(
            name="request+payload", kind=PhaseKind.REQUEST, round_index=5,
            num_slots=256, alice_listen_prob=0.3, uninformed_listen_prob=0.3,
            nack_send_prob=0.03, relay_send_prob=0.02,
        )
        records = multihop_phase_records(
            plan,
            lambda net: PhaseRoles(range(net.n // 2), relays=range(net.n // 2, net.n)),
            n=self.N,
        )
        self._check(records, ["informed", "node_total", "delivery_slots"])
        self._check_overcount(records, ["node_noisy_total", "alice_noisy"], max_ratio=2.5)

    def test_inform_phase_with_spoofing_and_decoys(self):
        plan = PhasePlan(
            name="inform", kind=PhaseKind.INFORM, round_index=5, num_slots=192,
            alice_send_prob=0.08, uninformed_listen_prob=0.25, decoy_send_prob=0.02,
        )
        jam = lambda: JamPlan(spoof_payload_slots=20, spoof_nack_slots=10)
        records = multihop_phase_records(
            plan,
            lambda net: PhaseRoles(range(net.n), decoy_senders=range(net.n)),
            jam_builder=jam,
            n=self.N,
        )
        self._check(records, ["informed", "node_total"])
        # Decoy senders informed mid-phase keep sending (measured x1.12).
        self._check_overcount(records, ["busy_slots"], max_ratio=1.25)


class TestFullRunEquivalence:
    """Whole multi-hop executions agree across engines in distribution."""

    def _outcomes(self, engine, trials=12, **kwargs):
        return [
            run_broadcast(
                n=64,
                seed=900 + seed,
                variant="multihop",
                engine=engine,
                topology="gilbert",
                topology_kwargs={"radius": 0.3},
                **kwargs,
            )
            for seed in range(trials)
        ]

    def test_delivery_and_costs_match(self):
        slot = self._outcomes("slot")
        fast = self._outcomes("fast")
        assert_same_distribution(
            [o.delivery.informed for o in slot],
            [o.delivery.informed for o in fast],
            alpha=0.01,
            label="informed",
        )
        assert_means_close(
            [o.mean_node_cost for o in slot],
            [o.mean_node_cost for o in fast],
            rel=0.3,
            label="mean_node_cost",
        )
        assert_means_close(
            [o.delivery.slots_elapsed for o in slot],
            [o.delivery.slots_elapsed for o in fast],
            rel=0.3,
            label="slots_elapsed",
        )

    def test_sparse_run_is_seed_deterministic(self):
        kwargs = dict(
            n=64, seed=42, variant="multihop", topology="gilbert",
            topology_kwargs={"radius": 0.3},
        )
        a, b = run_broadcast(**kwargs), run_broadcast(**kwargs)
        assert a.delivery.informed == b.delivery.informed
        assert a.delivery.slots_elapsed == b.delivery.slots_elapsed
        assert a.mean_node_cost == b.mean_node_cost


class TestDiskQueryGrid:
    """Grid-accelerated nodes_in_disk selects exactly the brute-force scan's rows.

    Mobile jammers query a disk every phase, so the query goes through a
    cached point grid at every network size; it must agree with scanning
    every point — including disks that are empty, huge, or (partly) outside
    the unit square.
    """

    PROBES = [
        ((0.3, 0.4), 0.2),
        ((0.95, 0.95), 0.1),
        ((1.5, 1.5), 0.2),      # entirely outside the square
        ((0.5, 0.5), 0.0),      # degenerate disk
        ((0.5, 0.5), 2.0),      # covers everything
        ((-0.2, 0.5), 0.25),    # straddles the boundary
        ((0.5, 0.5), 0.03),     # smaller than a grid cell
    ]

    @pytest.mark.parametrize("kind", ["gilbert", "scale_free"])
    def test_grid_path_equals_scan_path(self, kind):
        topo = sample_topology(kind, n=300, seed=6)
        for center, radius in self.PROBES:
            scan = brute_force_disk_rows(topo.positions, center, radius)
            grid = np.asarray(topo._disk_rows(center, radius))
            assert np.array_equal(scan, grid), (kind, center, radius)

    def test_backends_agree_on_disk_queries(self):
        """The public query maps the grid's rows to device ids (Alice = row n)."""

        topo = sample_topology("gilbert", n=150, seed=1, radius=0.1)
        for center, radius in self.PROBES:
            rows = brute_force_disk_rows(topo.positions, center, radius)
            expected = sorted(ALICE_ID if r == topo.n else int(r) for r in rows)
            got = topo.nodes_in_disk(center, radius)
            assert got.dtype == np.int64
            assert got.tolist() == expected

    def test_dispatch_by_device_count(self):
        # Even a tiny graph answers disk queries through the cached grid.
        topo = sample_topology("gilbert", n=8, seed=3, radius=0.2)
        assert topo._disk_grid is None
        first = topo.nodes_in_disk((0.4, 0.4), 0.3)
        grid = topo._disk_grid
        assert grid is not None
        assert np.array_equal(topo.nodes_in_disk((0.4, 0.4), 0.3), first)
        assert topo._disk_grid is grid  # built once, reused


EXTREME_INPUTS = [
    # (label, run_broadcast kwargs, expected outcome)
    ("n=2 complete", dict(n=2, topology_kwargs={"radius": math.sqrt(2.0)}), "all"),
    ("n=3 complete", dict(n=3, topology_kwargs={"radius": math.sqrt(2.0)}), "all"),
    ("n=16 isolated Alice", dict(n=16, topology_kwargs={"radius": 1e-9}), "none"),
    ("scale-free n=4", dict(n=4, topology="scale_free", topology_kwargs=None), "runs"),
    ("n=1", dict(n=1, topology_kwargs={"radius": 0.5}), ConfigurationError),
    ("r=0", dict(n=16, topology_kwargs={"radius": 0.0}), ConfigurationError),
]


class TestExtremeInputs:
    """Sizes the removed dense path used to serve, pinned on the CSR path."""

    @pytest.mark.parametrize("engine", ["fast", "slot"])
    @pytest.mark.parametrize(
        "kwargs,expected", [case[1:] for case in EXTREME_INPUTS], ids=[c[0] for c in EXTREME_INPUTS]
    )
    def test_outcome(self, kwargs, expected, engine):
        kwargs = {"topology": "gilbert", **kwargs}
        run = dict(seed=1, variant="multihop", engine=engine, **kwargs)
        if expected is ConfigurationError:
            with pytest.raises(ConfigurationError):
                run_broadcast(**run)
            return
        recorder = TraceCollector()
        outcome = run_broadcast(**run, recorder=recorder)
        delivery = outcome.delivery
        assert not outcome.terminated_by_cap
        if expected == "all":
            assert delivery.informed == kwargs["n"]
        elif expected == "none":
            assert delivery.informed == 0
            # Every node is retired by the multi-hop termination rules.
            retired = sum(
                int(event.data["count"])
                for event in recorder.events
                if event.kind in ("quiet-expire", "truncate")
            )
            assert delivery.terminated_uninformed == retired == kwargs["n"]
        else:
            assert delivery.informed <= kwargs["n"]
