"""Tests for the per-node, degree-aware quiet-rule termination machinery.

Covers the :mod:`repro.core.quietrule` policy catalogue (budgets, validation,
the deprecated ``max_quiet_retries`` alias), the topology-side neighbourhood
statistics the budgets derive from, the per-run streak state (including the
reused-orchestrator regression), both E11 misfire directions as behavioural
regressions, cross-engine statistical equivalence of the degree-aware rule on
Gilbert and scale-free topologies, and the trial-store pruning added
alongside.
"""

from __future__ import annotations

import os
import pickle
import time

import numpy as np
import pytest

from equivalence import assert_means_close, assert_same_distribution

from repro import run_broadcast
from repro.core.broadcast import MultiHopBroadcast
from repro.core.quietrule import (
    ConstantQuietRule,
    DegreeAwareQuietRule,
    PaperQuietRule,
    resolve_quiet_rule,
)
from repro.experiments.cache import TrialCache
from repro.experiments.harness import ExperimentSettings
from repro.simulation import SimulationConfig, TopologySpec
from repro.simulation.errors import ConfigurationError
from repro.simulation.network import Network
from repro.simulation.rng import RandomSource
from repro.simulation.topology import SingleHop, build_topology, gilbert_connectivity_radius


def make_topology(kind="gilbert", n=48, seed=3, **kwargs):
    spec = TopologySpec(kind=kind, **kwargs)
    return build_topology(spec, n, RandomSource(seed))


# --------------------------------------------------------------------------- #
# Topology neighbourhood statistics                                           #
# --------------------------------------------------------------------------- #


class TestNeighborhoodStatistics:
    def brute_force_ball(self, topo, node, hops):
        """Reference BFS ball over device ids (Alice included, self excluded)."""

        frontier = {node}
        ball = {node}
        for _ in range(hops):
            frontier = {v for u in frontier for v in topo.neighbors(u)} - ball
            ball |= frontier
        return ball - {node}

    @staticmethod
    def alice_placement(random_alice):
        return "random" if random_alice else "center"

    @pytest.mark.parametrize("random_alice", [False, True])
    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_matches_brute_force_bfs(self, random_alice, hops):
        topo = make_topology(
            n=40, seed=7, radius=0.14, alice_placement=self.alice_placement(random_alice)
        )
        sizes = topo.neighborhood_sizes(hops)
        has_alice = topo.alice_within(hops)
        for node in range(topo.n):
            ball = self.brute_force_ball(topo, node, hops)
            assert sizes[node] == len(ball), f"node {node} hops {hops}"
            assert has_alice[node] == (-1 in ball), f"node {node} hops {hops}"

    def test_hops_one_counts_devices_not_just_nodes(self):
        """Unlike degrees(), neighborhood_sizes counts Alice as a device."""

        topo = make_topology(n=40, seed=7, radius=0.14)
        degrees = topo.degrees()
        sizes = topo.neighborhood_sizes(1)
        alice_adjacent = topo.alice_within(1)
        assert np.array_equal(sizes, degrees + alice_adjacent.astype(np.int64))

    def test_degrees_and_sizes_are_cached_and_read_only(self):
        topo = make_topology(n=32, seed=2, radius=0.2)
        assert topo.degrees() is topo.degrees()
        assert topo.neighborhood_sizes(2) is topo.neighborhood_sizes(2)
        with pytest.raises(ValueError):
            topo.degrees()[0] = 99
        with pytest.raises(ValueError):
            topo.neighborhood_sizes(2)[0] = 99

    def test_single_hop_ball_is_everyone(self):
        topo = SingleHop(16)
        for hops in (1, 2):
            assert np.array_equal(topo.neighborhood_sizes(hops), np.full(16, 16))
            assert topo.alice_within(hops).all()

    def test_hops_validated(self):
        topo = make_topology(n=16, seed=1, radius=0.3)
        with pytest.raises(ConfigurationError):
            topo.neighborhood_sizes(0)
        with pytest.raises(ConfigurationError):
            topo.neighborhood_sizes(2, cap=0)
        with pytest.raises(ConfigurationError):
            topo.alice_within(0)

    @pytest.mark.parametrize("random_alice", [False, True])
    def test_capped_sizes_are_exact_below_the_cap(self, random_alice):
        """The saturating fast path: values below cap exact, others >= cap."""

        topo = make_topology(
            n=80, seed=4, radius=0.09, alice_placement=self.alice_placement(random_alice)
        )
        exact = topo.neighborhood_sizes(3)
        for cap in (2, 6, 15):
            capped = topo.neighborhood_sizes(3, cap=cap)
            below = exact < cap
            assert np.array_equal(capped[below], exact[below])
            assert (capped[~below] >= cap).all()

    def test_capped_cut_gives_identical_budgets(self):
        """The rule's saturating query must not change a single budget."""

        topo = make_topology(n=80, seed=4, radius=0.09)
        fast = DegreeAwareQuietRule().budgets(topo)
        slow_sizes = topo.neighborhood_sizes(3).astype(float)
        cut = 1.8 * np.log(80)
        slow = 1 + np.ceil(1.25 * np.log2(1.0 + slow_sizes))
        slow = np.where(slow_sizes >= cut, np.inf, slow)
        slow = np.where(topo.alice_within(6), np.inf, slow)
        assert np.array_equal(fast, slow)


# --------------------------------------------------------------------------- #
# QuietRule policies                                                          #
# --------------------------------------------------------------------------- #


class TestQuietRulePolicies:
    def test_paper_rule_budgets_are_unlimited(self):
        topo = make_topology(n=24, seed=1, radius=0.2)
        rule = PaperQuietRule()
        assert rule.channel_quiet_test
        assert np.isinf(rule.budgets(topo)).all()

    def test_constant_rule_is_uniform(self):
        topo = make_topology(n=24, seed=1, radius=0.2)
        rule = ConstantQuietRule(retries=4)
        assert rule.channel_quiet_test
        assert np.array_equal(rule.budgets(topo), np.full(24, 4.0))

    def test_degree_aware_budget_formula(self):
        topo = make_topology(n=48, seed=3, radius=0.12)
        rule = DegreeAwareQuietRule(
            coefficient=1.25,
            base=1,
            hops=3,
            unlimited_factor=1.8,
            protect_source_neighborhood=True,
        )
        assert not rule.channel_quiet_test
        budgets = rule.budgets(topo)
        sizes = topo.neighborhood_sizes(3)
        cut = 1.8 * np.log(48)
        protected = topo.alice_within(2 * 3)
        for node in range(48):
            if sizes[node] >= cut or protected[node]:
                assert np.isinf(budgets[node])
            else:
                assert budgets[node] == 1 + np.ceil(1.25 * np.log2(1 + sizes[node]))

    def test_unlimited_factor_none_disables_the_cut(self):
        topo = make_topology(n=48, seed=3, radius=0.3)
        rule = DegreeAwareQuietRule(unlimited_factor=None, protect_source_neighborhood=False)
        assert np.isfinite(rule.budgets(topo)).all()

    def test_hops_one_is_the_plain_degree_form(self):
        topo = make_topology(n=48, seed=3, radius=0.12)
        rule = DegreeAwareQuietRule(
            coefficient=2.0, base=2, hops=1, unlimited_factor=None,
            protect_source_neighborhood=False,
        )
        sizes = topo.neighborhood_sizes(1)
        expected = 2 + np.ceil(2.0 * np.log2(1 + sizes.astype(float)))
        assert np.array_equal(rule.budgets(topo), expected)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ConstantQuietRule(retries=0)
        with pytest.raises(ConfigurationError):
            DegreeAwareQuietRule(coefficient=0)
        with pytest.raises(ConfigurationError):
            DegreeAwareQuietRule(base=0)
        with pytest.raises(ConfigurationError):
            DegreeAwareQuietRule(hops=0)
        with pytest.raises(ConfigurationError):
            DegreeAwareQuietRule(unlimited_factor=-1.0)

    def test_resolve(self):
        assert isinstance(resolve_quiet_rule(None), DegreeAwareQuietRule)
        assert resolve_quiet_rule(None, 7) == ConstantQuietRule(retries=7)
        assert isinstance(resolve_quiet_rule("paper"), PaperQuietRule)
        assert isinstance(resolve_quiet_rule("degree-aware"), DegreeAwareQuietRule)
        custom = DegreeAwareQuietRule(coefficient=3.0)
        assert resolve_quiet_rule(custom) is custom
        with pytest.raises(ConfigurationError):
            resolve_quiet_rule("no-such-rule")
        with pytest.raises(ConfigurationError):
            resolve_quiet_rule(PaperQuietRule(), 4)
        with pytest.raises(ConfigurationError):
            resolve_quiet_rule(None, 0)
        with pytest.raises(ConfigurationError):
            resolve_quiet_rule(object())

    def test_rules_are_picklable_policy_values(self):
        """Experiments ship rules as sweep params across process boundaries."""

        for rule in (PaperQuietRule(), ConstantQuietRule(5), DegreeAwareQuietRule()):
            clone = pickle.loads(pickle.dumps(rule))
            assert clone == rule
            assert rule.describe()


# --------------------------------------------------------------------------- #
# Behavioural regressions (both E11 misfire directions)                       #
# --------------------------------------------------------------------------- #

FRAGMENTED = dict(
    n=96,
    seed=11,
    variant="multihop",
    engine="fast",
    topology="gilbert",
    topology_kwargs={"radius": 0.06},
)


class TestQuietRuleBehaviour:
    def test_default_rule_is_degree_aware(self):
        config = SimulationConfig(n=16, seed=1, topology=TopologySpec.gilbert(radius=0.3))
        protocol = MultiHopBroadcast(config)
        assert protocol.quiet_rule == DegreeAwareQuietRule()

    def test_sub_threshold_cost_bound(self):
        """Direction 2: no retry cap configured, yet the Alice-less blowup is
        cured — within 2× of the uniform ConstantQuietRule(6) reference."""

        paper = run_broadcast(**FRAGMENTED, quiet_rule="paper")
        constant = run_broadcast(**FRAGMENTED, max_quiet_retries=6)
        degree = run_broadcast(**FRAGMENTED)
        assert degree.mean_node_cost <= 2.0 * constant.mean_node_cost
        assert degree.mean_node_cost <= 0.2 * paper.mean_node_cost

    def test_near_threshold_delivery_recovered(self):
        """Direction 1: at the E11 near-threshold profile the degree-aware
        rule returns delivery-vs-reachable to ~1 where the paper rule dips
        (nodes quit at the earliest reliable round, ahead of the frontier)."""

        settings = ExperimentSettings(n=256, trials=3, quick=True, seed=2012)
        r_c = gilbert_connectivity_radius(settings.n)
        label = "gilbert r=1.3·r_c"
        paper_dvr, degree_dvr = [], []
        for trial in range(settings.trials):
            seed = settings.trial_seed("E11", label, trial)
            config = SimulationConfig(
                n=settings.n, k=2, f=1.0, seed=seed,
                topology=TopologySpec.gilbert(radius=1.3 * r_c),
            )
            for rule, bucket in (("paper", paper_dvr), (None, degree_dvr)):
                protocol = MultiHopBroadcast(config, engine="fast", quiet_rule=rule)
                reachable = len(protocol.network.topology.reachable_from_alice())
                outcome = protocol.run()
                bucket.append(outcome.delivery.informed / reachable)
        assert np.mean(degree_dvr) >= 0.99
        assert abs(np.mean(degree_dvr) - 1.0) <= 0.01
        # And it stays within one node of the paper rule on every trial.
        # (Strict dominance held when one relay wave ran per round; pipelined
        # frontiers cure most of the paper rule's own dip at this profile, so
        # a single early-give-up node can now put the degree rule a hair
        # below a perfect paper trial.)
        for paper_value, degree_value in zip(paper_dvr, degree_dvr):
            assert degree_value >= paper_value - 1.5 / settings.n

    def test_small_alice_components_still_served(self):
        """Sub-threshold nodes in Alice's own (small) component are reachable
        and must not be starved by finite budgets: the source-neighbourhood
        protection keeps them patient."""

        settings = ExperimentSettings(n=96, trials=4, quick=True, seed=2012)
        r_c = gilbert_connectivity_radius(settings.n)
        informed = reachable_total = 0
        for trial in range(settings.trials):
            seed = settings.trial_seed("E11", "gilbert r=0.6·r_c", trial)
            config = SimulationConfig(
                n=settings.n, k=2, f=1.0, seed=seed,
                topology=TopologySpec.gilbert(radius=0.6 * r_c),
            )
            protocol = MultiHopBroadcast(config, engine="fast")
            reachable = protocol.network.topology.reachable_from_alice()
            # Only components that fit inside the protection radius are
            # guaranteed; sub-threshold Alice components are that small.
            outcome = protocol.run()
            informed += outcome.delivery.informed
            reachable_total += len(reachable)
        assert reachable_total > 0
        assert informed / reachable_total >= 0.99

    def test_single_hop_never_consults_the_rule(self):
        base = run_broadcast(n=48, seed=21, variant="multihop", quiet_rule="paper")
        degree = run_broadcast(n=48, seed=21, variant="multihop")
        assert degree.delivery.slots_elapsed == base.delivery.slots_elapsed
        assert degree.mean_node_cost == base.mean_node_cost
        assert degree.delivery_fraction == base.delivery_fraction == 1.0

    def test_reused_orchestrator_resets_the_streaks(self):
        """Regression for the stale-counter bug: the retry state used to live
        on the orchestrator and survive into the next run, so a reused
        orchestrator could cap its second run's very first request phase.
        The streaks now live on the per-run ProtocolState."""

        config = SimulationConfig(
            n=48, seed=13, topology=TopologySpec.gilbert(radius=0.4)
        )
        protocol = MultiHopBroadcast(config, engine="fast", max_quiet_retries=8)
        first = protocol.run()
        assert first.delivery_fraction == 1.0
        second = protocol.run()
        # With the stale run-level counter the second run terminated every
        # uninformed node in its first request phase; delivery collapsed.
        assert second.delivery_fraction == 1.0
        assert protocol.final_state.quiet_streaks.max() <= 8

    def test_streaks_only_count_uninformed_phases(self):
        config = SimulationConfig(
            n=32, seed=5, topology=TopologySpec.gilbert(radius=0.4)
        )
        protocol = MultiHopBroadcast(config, engine="fast")
        outcome = protocol.run()
        assert outcome.delivery_fraction == 1.0
        streaks = protocol.final_state.quiet_streaks
        # Nodes informed in round r stop accruing streak afterwards; nobody
        # can have more streak than executed rounds.
        assert streaks.max() <= outcome.delivery.rounds_executed


# --------------------------------------------------------------------------- #
# Cross-engine equivalence of the degree-aware rule                           #
# --------------------------------------------------------------------------- #


class TestDegreeRuleEngineEquivalence:
    """KS/moment equivalence of full degree-aware-rule runs on both engines.

    Fragmented profiles are the interesting ones: there the budgets actually
    fire (connected graphs deliver before any budget is reached).  The rule
    is applied by the orchestrator, so the engines must agree on the signals
    it consumes (per-node request-phase participation and cohort sizes).
    """

    @staticmethod
    def _run_many(engine, kind, trials=10, **topology_kwargs):
        outs = []
        for trial in range(trials):
            outs.append(
                run_broadcast(
                    n=32,
                    seed=500 + trial,
                    variant="multihop",
                    engine=engine,
                    topology=kind,
                    topology_kwargs=topology_kwargs,
                )
            )
        return outs

    @pytest.mark.parametrize(
        "kind,kwargs",
        [
            ("gilbert", {"radius": 0.09}),
            ("scale_free", {"alpha": 2.5, "min_radius": 0.05}),
        ],
    )
    def test_fragmented_full_runs_agree(self, kind, kwargs):
        fast = self._run_many("fast", kind, **kwargs)
        slot = self._run_many("slot", kind, **kwargs)
        for metric, rel, abs_tol in (
            ("delivery_fraction", 0.1, 0.05),
            ("mean_node_cost", 0.3, 0.0),
            ("alice_cost", 0.25, 0.0),
        ):
            assert_means_close(
                [getattr(o, metric) for o in slot],
                [getattr(o, metric) for o in fast],
                rel=rel,
                abs_tol=abs_tol,
                label=f"{kind} degree-rule {metric}",
            )
        assert_same_distribution(
            [o.delivery.terminated_uninformed for o in slot],
            [o.delivery.terminated_uninformed for o in fast],
            label=f"{kind} degree-rule terminated-uninformed counts",
        )

    def test_give_up_rounds_match_across_engines(self):
        """The budgets fire at the same request phases on both engines (the
        rule consumes no randomness; cohort membership drives it)."""

        for engine_pair in range(3):
            seed = 700 + engine_pair
            rounds = {}
            for engine in ("fast", "slot"):
                config = SimulationConfig(
                    n=24, seed=seed, topology=TopologySpec.gilbert(radius=0.08)
                )
                protocol = MultiHopBroadcast(config, engine=engine)
                protocol.run()
                state = protocol.final_state
                rounds[engine] = sorted(
                    state.terminated_at_round[node]
                    for node, status in state.statuses.items()
                    if status.value == "terminated_uninformed"
                )
            # Identical topology (seeded) and deterministic budgets: the two
            # engines may differ on *who* got informed, but every node that
            # exhausts its budget does so at the same round.
            exhausted_fast = [r for r in rounds["fast"]]
            exhausted_slot = [r for r in rounds["slot"]]
            assert exhausted_fast and exhausted_slot
            assert (
                np.median(exhausted_fast) == np.median(exhausted_slot)
            ), f"seed {seed}: {rounds}"


# --------------------------------------------------------------------------- #
# Trial-store pruning                                                         #
# --------------------------------------------------------------------------- #


class TestTrialCachePrune:
    def fill(self, cache, count, size=100, start_mtime=None):
        keys = []
        for index in range(count):
            key = f"{index:02x}" + "0" * 62
            cache.put(key, {"index": index, "blob": "x" * size})
            if start_mtime is not None:
                os.utime(cache.path_for(key), (start_mtime + index, start_mtime + index))
            keys.append(key)
        return keys

    def test_prune_by_age(self, tmp_path):
        cache = TrialCache(tmp_path)
        now = time.time()
        keys = self.fill(cache, 4, start_mtime=now - 10 * 86400)
        os.utime(cache.path_for(keys[-1]), (now, now))
        stats = cache.prune(max_age_days=5)
        assert stats.scanned == 4 and stats.removed == 3
        assert cache.get(keys[-1]) is not None
        assert all(cache.get(key) is None for key in keys[:-1])
        assert "pruned 3/4" in stats.describe()

    def test_prune_by_bytes_is_lru_by_mtime(self, tmp_path):
        cache = TrialCache(tmp_path)
        now = time.time()
        keys = self.fill(cache, 6, start_mtime=now - 600)
        entry_size = cache.path_for(keys[0]).stat().st_size
        stats = cache.prune(max_bytes=2 * entry_size)
        # Newest two mtimes survive; the four oldest are evicted.
        assert stats.removed == 4
        assert cache.get(keys[4]) is not None and cache.get(keys[5]) is not None
        assert all(cache.get(key) is None for key in keys[:4])
        assert stats.kept_bytes <= 2 * entry_size

    def test_prune_zero_budget_empties_the_store_and_shards(self, tmp_path):
        cache = TrialCache(tmp_path)
        self.fill(cache, 3)
        stats = cache.prune(max_bytes=0)
        assert stats.removed == 3 and len(cache) == 0
        assert not any(p.is_dir() for p in cache.root.iterdir())

    def test_prune_validation(self, tmp_path):
        cache = TrialCache(tmp_path)
        with pytest.raises(ValueError):
            cache.prune()
        with pytest.raises(ValueError):
            cache.prune(max_bytes=-1)
        with pytest.raises(ValueError):
            cache.prune(max_age_days=-1)

    def test_touch_refreshes_mtime_for_lru(self, tmp_path):
        cache = TrialCache(tmp_path)
        now = time.time()
        keys = self.fill(cache, 2, start_mtime=now - 1000)
        cache.touch(keys[0])  # a "hit" on the older entry
        entry_size = cache.path_for(keys[0]).stat().st_size
        cache.prune(max_bytes=entry_size)
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[1]) is None
