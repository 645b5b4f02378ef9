"""Regressions for pipelined relay waves and cap-aware schedule truncation.

The sub-threshold E11 stall fix has two halves, each pinned here:

* **Pipelining** — the multi-hop orchestrator appends extra propagation
  steps while the previous step made progress, so one round carries the
  message across the component diameter instead of ``k - 1`` hops.
* **Cap-aware truncation** — after each request phase, infinite-budget
  uninformed nodes that no live message holder can still reach are
  terminated immediately, so the schedule ends as soon as every component
  has delivered or provably stalled instead of running to the round cap.

Also pinned alongside: pipelined-vs-sequential statistical equivalence on
Gilbert and scale-free graphs, that configuring a quiet rule emits no
deprecation warning, and the no-allocation contract of the cached active-id
arrays the hot path now runs on.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from equivalence import assert_means_close, assert_same_distribution

from repro import run_broadcast
from repro.core.broadcast import MultiHopBroadcast
from repro.core.quietrule import ConstantQuietRule, resolve_quiet_rule
from repro.core.state import ProtocolState
from repro.simulation.phaseplan import PhaseRoles
from repro.simulation import SimulationConfig, TopologySpec
from repro.simulation.topology import Topology

# The E11 sub-threshold profile: radius well below the Gilbert connectivity
# threshold, so the graph fragments into an Alice component plus Alice-less
# components whose super-critical cores receive infinite quiet budgets from
# the degree-aware rule — exactly the cohort that used to hold the channel
# to the cap.
SUB_THRESHOLD = dict(
    n=96,
    seed=11,
    variant="multihop",
    engine="fast",
    topology="gilbert",
    topology_kwargs={"radius": 0.09},
)


def cap_slots(protocol: MultiHopBroadcast) -> int:
    """Total slots of the full static schedule up to the round cap."""

    schedule = protocol.schedule
    return sum(schedule.round_length(i) for i in schedule.rounds)


# --------------------------------------------------------------------------- #
# Cap-aware truncation                                                        #
# --------------------------------------------------------------------------- #


class TestCapAwareTruncation:
    def test_sub_threshold_ends_strictly_below_cap(self):
        """The headline regression: a sub-threshold run with the default
        degree-aware rule must end well before the round cap — no more
        run-to-the-cap stall from unreachable infinite-budget nodes.

        At this profile the pre-fix orchestrator ran to the cap (11 rounds,
        ~430k slots, ``terminated_by_cap=True``); the truncated schedule
        ends at ~8k slots with identical delivery."""

        spec = TopologySpec.gilbert(radius=SUB_THRESHOLD["topology_kwargs"]["radius"])
        config = SimulationConfig(
            n=SUB_THRESHOLD["n"], seed=SUB_THRESHOLD["seed"], topology=spec
        )
        protocol = MultiHopBroadcast(config, engine="fast")
        max_round = protocol.schedule.rounds[-1]
        budget = cap_slots(protocol)
        reachable = len(protocol.network.topology.reachable_from_alice())

        outcome = protocol.run()

        assert not outcome.terminated_by_cap
        assert outcome.delivery.rounds_executed < max_round
        assert outcome.delivery.slots_elapsed < budget
        # The truncation is a harness fix, not a protocol change: delivery
        # inside Alice's component is untouched.
        assert outcome.delivery.informed <= reachable
        assert outcome.delivery_fraction > 0

    def test_paper_rule_exempt_from_truncation(self):
        """Rules using the paper's channel-quiet test are exempt: their
        sub-threshold channel-holding blowup is measured protocol behaviour
        (the E13 cost gates depend on it), so it must survive the fix."""

        paper = run_broadcast(**SUB_THRESHOLD, quiet_rule="paper")
        degree = run_broadcast(**SUB_THRESHOLD)
        assert paper.delivery.slots_elapsed > 10 * degree.delivery.slots_elapsed
        assert paper.delivery.rounds_executed > degree.delivery.rounds_executed

    def test_truncation_only_retires_already_stalled_nodes(self):
        """Every node the schedule ends early for is genuinely unreachable:
        terminated-uninformed nodes outside Alice's component, with the
        whole population accounted for at the end."""

        spec = TopologySpec.gilbert(radius=SUB_THRESHOLD["topology_kwargs"]["radius"])
        config = SimulationConfig(
            n=SUB_THRESHOLD["n"], seed=SUB_THRESHOLD["seed"], topology=spec
        )
        protocol = MultiHopBroadcast(config, engine="fast")
        reachable = protocol.network.topology.reachable_from_alice()
        outside = config.n - len(reachable)
        assert outside > 0, "profile should contain Alice-less components"
        delivery = protocol.run().delivery
        # Unreachable nodes never received the message and end retired, not
        # abandoned mid-run: the whole population is accounted for.
        assert delivery.informed <= len(reachable)
        assert delivery.terminated_uninformed >= outside
        assert delivery.terminated_informed + delivery.terminated_uninformed == config.n

    def test_bfs_skipped_only_when_nothing_terminated(self, monkeypatch):
        """The truncation BFS runs only after a termination, and skipping it
        changes nothing: a run that forces the BFS after every request phase
        ends in the same state, at the same slot, with the same costs."""

        def run(radius, seed, force_bfs):
            config = SimulationConfig(n=96, seed=seed, topology=TopologySpec.gilbert(radius=radius))
            protocol = MultiHopBroadcast(config, engine="fast")
            topology = protocol.network.topology
            calls = []
            reachable = topology.frontier_reachable
            truncate = protocol._truncate_stalled

            def counted(*args):
                calls.append(args)
                return reachable(*args)

            def forced(state, round_index):
                if force_bfs:
                    state.reach_checked_at = -1
                truncate(state, round_index)

            monkeypatch.setattr(topology, "frontier_reachable", counted)
            monkeypatch.setattr(protocol, "_truncate_stalled", forced)
            return protocol.run(), protocol.final_state, len(calls)

        total_skipped = total_forced = 0
        for radius, seed in [(0.09, 11), (0.09, 12), (0.12, 13), (0.2, 14)]:
            skipped, skipped_state, skipped_calls = run(radius, seed, force_bfs=False)
            forced, forced_state, forced_calls = run(radius, seed, force_bfs=True)
            assert skipped.delivery == forced.delivery
            assert skipped.costs == forced.costs
            assert np.array_equal(skipped_state.informed_at_slot, forced_state.informed_at_slot)
            assert np.array_equal(
                skipped_state.terminated_at_round, forced_state.terminated_at_round
            )
            assert 0 < skipped_calls <= forced_calls
            total_skipped += skipped_calls
            total_forced += forced_calls
        assert total_skipped < total_forced


# --------------------------------------------------------------------------- #
# Pipelined vs sequential statistical equivalence                             #
# --------------------------------------------------------------------------- #


class TestPipelinedEquivalence:
    @pytest.mark.parametrize(
        "topology, topology_kwargs",
        [
            ("gilbert", {"radius": 0.25}),
            ("scale_free", {"alpha": 2.5}),
        ],
    )
    def test_delivery_matches_sequential_schedule(self, topology, topology_kwargs):
        """Pipelining reshapes *when* slots happen, not *who* gets informed:
        delivery-side outcomes must match the sequential schedule in
        distribution (slots and cost differ by design)."""

        trials = 40
        records = {True: [], False: []}
        for pipeline in records:
            for trial in range(trials):
                outcome = run_broadcast(
                    n=48,
                    seed=500 + trial,
                    variant="multihop",
                    engine="fast",
                    topology=topology,
                    topology_kwargs=topology_kwargs,
                    pipeline=pipeline,
                )
                records[pipeline].append(
                    {
                        "informed": float(outcome.delivery.informed),
                        "stranded": float(outcome.delivery.terminated_uninformed),
                    }
                )
        for key in ("informed", "stranded"):
            a = [r[key] for r in records[True]]
            b = [r[key] for r in records[False]]
            assert_same_distribution(a, b, label=f"{topology} {key}")
            assert_means_close(a, b, rel=0.05, abs_tol=1.5, label=f"{topology} {key}")

    def test_pipelining_cuts_slots_on_multihop_graphs(self):
        """The payoff the tentpole claims: near the connectivity threshold the
        pipelined schedule finishes in fewer rounds — and because round
        lengths grow geometrically, far fewer slots."""

        kwargs = dict(
            n=128,
            variant="multihop",
            engine="fast",
            topology="gilbert",
            topology_kwargs={"radius": 0.14},
        )
        pipe_slots, seq_slots = [], []
        for seed in range(5):
            pipe = run_broadcast(**kwargs, seed=900 + seed, pipeline=True)
            seq = run_broadcast(**kwargs, seed=900 + seed, pipeline=False)
            assert (
                pipe.delivery.rounds_executed <= seq.delivery.rounds_executed
            ), f"seed {900 + seed}"
            pipe_slots.append(pipe.delivery.slots_elapsed)
            seq_slots.append(seq.delivery.slots_elapsed)
        assert np.mean(pipe_slots) < np.mean(seq_slots)


# --------------------------------------------------------------------------- #
# Quiet-rule configuration emits no deprecation warning                       #
# --------------------------------------------------------------------------- #


class TestMaxQuietRetriesDeprecation:
    def test_modern_spelling_is_silent(self):
        config = SimulationConfig(n=16, seed=1, topology=TopologySpec.gilbert(radius=0.3))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            MultiHopBroadcast(config, quiet_rule=ConstantQuietRule(retries=2))
            resolve_quiet_rule("degree-aware")


# --------------------------------------------------------------------------- #
# Hot-path allocation contract                                                #
# --------------------------------------------------------------------------- #


class TestHotPathAllocations:
    def test_active_arrays_are_identity_cached_between_mutations(self):
        """Repeated calls between transitions return the *same* object —
        the no-allocation contract relay retirement and the quiet rule
        rely on every phase."""

        state = ProtocolState(8)
        first = state.active_uninformed_array()
        assert state.active_uninformed_array() is first
        assert state.active_informed_array() is state.active_informed_array()
        with pytest.raises(ValueError):
            first[0] = 99  # read-only: callers cannot corrupt the cache
        state.mark_informed([1, 2], slot=10)
        assert state.active_uninformed_array() is not first
        assert state.active_uninformed_array() is state.active_uninformed_array()

    def test_run_never_materialises_frozensets(self, monkeypatch):
        """A full pipelined multi-hop run must be served entirely from the
        cached arrays; building a frozenset anywhere on the hot path is a
        regression.  The state, the phase roles and the topology have no
        frozenset views left; the one frozenset query that remains
        (``reachable_from_alice``, a diagnostic) must stay uncalled."""

        def boom(self):
            raise AssertionError("frozenset materialised on the hot path")

        assert not hasattr(ProtocolState, "active_uninformed")
        assert not hasattr(ProtocolState, "active_informed")
        for view in ("active_uninformed", "relays", "decoy_senders"):
            assert not hasattr(PhaseRoles, view)
        for view in ("neighbors", "node_neighbors"):
            assert not hasattr(Topology, view)
        monkeypatch.setattr(Topology, "reachable_from_alice", boom)
        outcome = run_broadcast(
            n=48,
            seed=5,
            variant="multihop",
            engine="fast",
            topology="gilbert",
            topology_kwargs={"radius": 0.25},
        )
        assert outcome.delivery_fraction > 0
