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

import numpy as np
import pytest

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
    PhaseKind,
    PhasePlan,
    PhaseRoles,
    RandomSource,
    ScaleFreeGilbert,
    SingleHop,
    TopologySpec,
    build_topology,
)
from repro.simulation.errors import ConfigurationError
from repro.simulation.fastengine import _sample_bernoulli_events


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
            assert list(ids) == sorted(topo.neighbors(device))
            row = topo.neighbor_csr().row(topo._index(device))
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
        sizes = sorted(len(c) for c in topo.connected_components())
        assert sum(sizes) == n
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
        members = set(range(0, 90, 7))
        devices = list(range(0, 90, 3)) + [ALICE_ID]
        expected = np.array(
            [bool(topo.node_neighbors(d) & members) for d in devices], dtype=bool
        )
        assert np.array_equal(topo.any_neighbor_in(devices, members), expected)
        # SingleHop: every other member is a neighbour.
        clique = SingleHop(10)
        got = clique.any_neighbor_in([0, 1, 9], {1})
        assert got.tolist() == [True, False, True]


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


class TestBernoulliEventSampler:
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

    def test_degenerate_inputs(self):
        rng = np.random.default_rng(1)
        for num, s, p in [(0, 10, 0.5), (10, 0, 0.5), (10, 10, 0.0)]:
            idx, slots = _sample_bernoulli_events(rng, num, s, p)
            assert idx.size == 0 and slots.size == 0
        idx, slots = _sample_bernoulli_events(rng, 3, 4, 1.0)
        assert idx.size == 12  # p = 1 fills the grid


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
        records = multihop_phase_records(plan, lambda net: PhaseRoles.of(range(net.n)), n=self.N)
        self._check(records, ["informed", "alice_cost", "node_total", "busy_slots"])

    def test_propagation_phase_with_relays(self):
        plan = PhasePlan(
            name="propagation:1", kind=PhaseKind.PROPAGATION, round_index=5,
            num_slots=256, step=1, relay_send_prob=0.02, uninformed_listen_prob=0.25,
        )
        records = multihop_phase_records(
            plan,
            lambda net: PhaseRoles.of(range(net.n // 2), relays=range(net.n // 2, net.n)),
            n=self.N,
        )
        self._check(records, ["informed", "node_total", "delivery_slots"])

    def test_request_phase_noise_counts(self):
        plan = PhasePlan(
            name="request", kind=PhaseKind.REQUEST, round_index=5, num_slots=256,
            alice_listen_prob=0.3, uninformed_listen_prob=0.3, nack_send_prob=0.05,
        )
        records = multihop_phase_records(plan, lambda net: PhaseRoles.of(range(net.n)), n=self.N)
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
            plan, lambda net: PhaseRoles.of(range(net.n)), jam_builder=jam, n=self.N
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
            lambda net: PhaseRoles.of(range(net.n // 2), relays=range(net.n // 2, net.n)),
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
            lambda net: PhaseRoles.of(range(net.n), decoy_senders=range(net.n)),
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
            expected = frozenset(ALICE_ID if r == topo.n else int(r) for r in rows)
            assert topo.nodes_in_disk(center, radius) == expected

    def test_dispatch_by_device_count(self):
        # Even a tiny graph answers disk queries through the cached grid.
        topo = sample_topology("gilbert", n=8, seed=3, radius=0.2)
        assert topo._disk_grid is None
        first = topo.nodes_in_disk((0.4, 0.4), 0.3)
        grid = topo._disk_grid
        assert grid is not None
        assert topo.nodes_in_disk((0.4, 0.4), 0.3) == first
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
