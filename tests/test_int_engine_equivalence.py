"""Integration tests: the vectorised engine is statistically equivalent to the
slot-faithful engine.

The PhaseEngine documents second-order approximations (marginal cost draws,
sampled stop-when-informed truncation, and the multi-hop caveats listed in its
module docstring); these tests check that on identical scenarios the two
engines agree on the protocol-visible outcomes (delivery, termination) and
that their cost figures agree within statistical tolerances — both on the
seed single-hop model and over spatial multi-hop topologies.

All machinery lives in the reusable :mod:`tests.equivalence` harness (KS and
moment checks over seeded trials).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from equivalence import (
    assert_means_close,
    assert_same_distribution,
    column,
    mean_by_engine,
    paired_phase_records,
)
from repro import run_broadcast
from repro.adversary import (
    MobileJammer,
    PhaseBlockingAdversary,
    ReactiveDiskJammer,
    SpatialJammer,
    WaypointPatrol,
)
from repro.simulation import (
    JamPlan,
    JamTargeting,
    Network,
    PhaseEngine,
    PhaseKind,
    PhasePlan,
    PhaseRoles,
    SimulationConfig,
    TopologySpec,
)
from repro.simulation import rng as rng_module
from repro.simulation.energy import EnergyOperation

GILBERT = {"topology": TopologySpec.gilbert(radius=0.3)}


def all_listening_roles(network) -> PhaseRoles:
    return PhaseRoles(range(network.n))


def split_roles(network) -> PhaseRoles:
    half = network.n // 2
    return PhaseRoles(range(half, network.n), relays=range(half))


class TestPhaseLevelEquivalence:
    def test_inform_phase_statistics_match(self):
        plan = PhasePlan(
            name="inform",
            kind=PhaseKind.INFORM,
            round_index=5,
            num_slots=300,
            alice_send_prob=0.2,
            uninformed_listen_prob=0.3,
        )
        records = paired_phase_records(plan, all_listening_roles)
        stats = mean_by_engine(records)
        assert stats["fast"]["informed"] == pytest.approx(stats["slot"]["informed"], rel=0.25)
        assert stats["fast"]["alice_cost"] == pytest.approx(stats["slot"]["alice_cost"], rel=0.25)
        # Listening cost carries the documented stop-when-informed
        # approximation, so its tolerance is a little looser.
        assert stats["fast"]["node_total"] == pytest.approx(stats["slot"]["node_total"], rel=0.4)

    def test_inform_phase_informed_distribution_matches(self):
        plan = PhasePlan(
            name="inform",
            kind=PhaseKind.INFORM,
            round_index=6,
            num_slots=200,
            alice_send_prob=0.15,
            uninformed_listen_prob=0.2,
        )
        records = paired_phase_records(plan, all_listening_roles, n=40, trials=30)
        assert_same_distribution(
            column(records["slot"], "informed"),
            column(records["fast"], "informed"),
            label="informed counts (single-hop inform phase)",
        )

    def test_jammed_inform_phase_statistics_match(self):
        plan = PhasePlan(
            name="inform",
            kind=PhaseKind.INFORM,
            round_index=5,
            num_slots=300,
            alice_send_prob=0.3,
            uninformed_listen_prob=0.3,
        )
        jam = lambda: JamPlan(num_jam_slots=150, targeting=JamTargeting.everyone())
        records = paired_phase_records(plan, all_listening_roles, jam)
        stats = mean_by_engine(records)
        assert stats["fast"]["adversary"] == stats["slot"]["adversary"] == 150
        assert stats["fast"]["informed"] == pytest.approx(stats["slot"]["informed"], rel=0.3, abs=4)

    def test_request_phase_noise_statistics_match(self):
        plan = PhasePlan(
            name="request",
            kind=PhaseKind.REQUEST,
            round_index=5,
            num_slots=400,
            nack_send_prob=0.02,
            uninformed_listen_prob=0.2,
            alice_listen_prob=0.2,
        )
        records = paired_phase_records(plan, all_listening_roles)
        stats = mean_by_engine(records)
        assert stats["fast"]["alice_noisy"] == pytest.approx(stats["slot"]["alice_noisy"], rel=0.3, abs=5)

    # The single-hop fast path draws a phase's slot-class histogram; these
    # cases check it against the slot engine where classes collide or
    # Carol's counts are drawn from the histogram.  Small networks and
    # phases keep the slot engine quick enough for KS-sized samples.

    @staticmethod
    def _assert_fields_match(records, fields):
        for field in fields:
            assert_same_distribution(
                column(records["slot"], field),
                column(records["fast"], field),
                label=f"{field} (single-hop)",
            )

    def test_relays_colliding_with_alice_match_slot_engine(self):
        plan = PhasePlan(
            name="propagation:1",
            kind=PhaseKind.PROPAGATION,
            round_index=5,
            num_slots=120,
            alice_send_prob=0.15,
            relay_send_prob=0.06,
            uninformed_listen_prob=0.05,
        )
        records = paired_phase_records(plan, split_roles, n=12, trials=60)
        self._assert_fields_match(records, ["informed", "alice_cost", "busy_slots"])

    def test_decoys_match_slot_engine(self):
        plan = PhasePlan(
            name="inform",
            kind=PhaseKind.INFORM,
            round_index=5,
            num_slots=120,
            alice_send_prob=0.2,
            decoy_send_prob=0.03,
            uninformed_listen_prob=0.05,
        )

        def decoy_roles(network):
            # Decoy senders outside the listener cohort: a listener that is
            # informed mid-phase keeps its decoys in the fast engine (a
            # documented approximation), so it is kept out of this check.
            half = network.n // 2
            return PhaseRoles(range(half, network.n), decoy_senders=range(half))

        records = paired_phase_records(plan, decoy_roles, n=12, trials=60)
        self._assert_fields_match(records, ["informed", "alice_cost", "busy_slots"])

    @pytest.mark.parametrize(
        "kind", [PhaseKind.INFORM, PhaseKind.REQUEST], ids=lambda k: k.value
    )
    def test_spoofed_payload_and_nacks_match_slot_engine(self, kind):
        plan = PhasePlan(
            name=kind.value,
            kind=kind,
            round_index=5,
            num_slots=120,
            alice_send_prob=0.2 if kind is PhaseKind.INFORM else 0.0,
            alice_listen_prob=0.3 if kind is PhaseKind.REQUEST else 0.0,
            nack_send_prob=0.01 if kind is PhaseKind.REQUEST else 0.0,
            uninformed_listen_prob=0.05,
        )
        jam = lambda: JamPlan(num_jam_slots=20, spoof_payload_slots=30, spoof_nack_slots=30)
        records = paired_phase_records(plan, all_listening_roles, jam, n=12, trials=60)
        stats = mean_by_engine(records)
        assert stats["fast"]["adversary"] == stats["slot"]["adversary"] == 80
        self._assert_fields_match(records, ["informed", "alice_noisy", "busy_slots"])

    def test_reactive_count_jam_matches_slot_engine(self):
        plan = PhasePlan(
            name="inform",
            kind=PhaseKind.INFORM,
            round_index=5,
            num_slots=120,
            alice_send_prob=0.2,
            uninformed_listen_prob=0.05,
        )
        jam = lambda: JamPlan(num_jam_slots=25, reactive=True)
        records = paired_phase_records(plan, all_listening_roles, jam, n=12, trials=60)
        self._assert_fields_match(records, ["informed", "jammed_slots", "busy_slots", "adversary"])


class TestLargeCohortCostDraws:
    """At n = 4,096 the single-hop engine draws per-node costs from the
    windowed binomial table (``rng.WINDOW_MIN_SIZE``), which the slot-engine
    suites above, at n ≤ 48, never reach.  A request phase's per-node listen
    cost is ``Binomial(noisy, p) + Binomial(s - noisy, p)``, which is
    ``Binomial(s, p)`` whatever the channel did, and its nack cost is
    ``Binomial(s, p_nack)``; both are checked against the exact binomial."""

    N = 4096

    @pytest.mark.parametrize("targeting", [JamTargeting.everyone(), JamTargeting.none()], ids=["ALL", "NONE"])
    @pytest.mark.parametrize(
        "slots,listen,nack",
        # Listen means 200 and 12,000 (p > 1/2, mirrored); nack means 30 and 4.
        [(20_000, 0.01, 0.0015), (20_000, 0.6, 0.0002)],
    )
    def test_listen_and_nack_costs_are_exact_binomials(self, monkeypatch, targeting, slots, listen, nack):
        table_draws = []
        windowed = rng_module._windowed_inversion

        def counted(generator, n, r, size):
            table_draws.append(size)
            return windowed(generator, n, r, size)

        monkeypatch.setattr(rng_module, "_windowed_inversion", counted)
        network = Network(SimulationConfig(n=self.N, seed=33))
        plan = PhasePlan(
            name="request",
            kind=PhaseKind.REQUEST,
            round_index=6,
            num_slots=slots,
            uninformed_listen_prob=listen,
            nack_send_prob=nack,
        )
        jam = JamPlan(num_jam_slots=slots // 4, targeting=targeting)
        PhaseEngine(network).run_phase(plan, PhaseRoles(range(self.N)), jam)
        # Heard and quiet listening, and the nacks, all took the table.
        assert table_draws == [self.N] * 3
        ledgers = network.node_ledgers
        reference = np.random.default_rng(2012)
        for operation, p in ((EnergyOperation.LISTEN, listen), (EnergyOperation.SEND, nack)):
            costs = ledgers.spent_on_array(operation)
            mean, var = slots * p, slots * p * (1.0 - p)
            mean_z = (costs.mean() - mean) / math.sqrt(var / self.N)
            kurtosis = (1.0 - 6.0 * p * (1.0 - p)) / var
            var_z = (costs.var() - var) / (var * math.sqrt((2.0 + kurtosis) / self.N))
            assert abs(mean_z) < 4.5 and abs(var_z) < 4.5, (operation, mean_z, var_z)
            assert_same_distribution(
                costs, reference.binomial(slots, p, self.N), label=f"{operation.name} cost"
            )


class TestMultiHopPhaseEquivalence:
    """The multi-hop fast path resolves audibility per listener; its phase
    statistics must match the (automatically topology-exact) slot engine."""

    def test_multihop_inform_phase_matches(self):
        plan = PhasePlan(
            name="inform",
            kind=PhaseKind.INFORM,
            round_index=5,
            num_slots=300,
            alice_send_prob=0.2,
            uninformed_listen_prob=0.3,
        )
        records = paired_phase_records(
            plan, all_listening_roles, trials=40, config_kwargs=GILBERT
        )
        assert_means_close(
            column(records["slot"], "informed"),
            column(records["fast"], "informed"),
            rel=0.2,
            abs_tol=2.0,
            label="multihop informed",
        )
        assert_means_close(
            column(records["slot"], "node_total"),
            column(records["fast"], "node_total"),
            rel=0.15,
            label="multihop node_total",
        )
        assert_same_distribution(
            column(records["slot"], "informed"),
            column(records["fast"], "informed"),
            label="informed counts (multihop inform phase)",
        )

    def test_multihop_propagation_phase_matches(self):
        plan = PhasePlan(
            name="propagation:1",
            kind=PhaseKind.PROPAGATION,
            round_index=5,
            num_slots=300,
            relay_send_prob=0.1,
            uninformed_listen_prob=0.3,
        )
        records = paired_phase_records(plan, split_roles, trials=40, config_kwargs=GILBERT)
        assert_means_close(
            column(records["slot"], "informed"),
            column(records["fast"], "informed"),
            rel=0.15,
            abs_tol=2.0,
            label="multihop propagation informed",
        )
        assert_means_close(
            column(records["slot"], "node_total"),
            column(records["fast"], "node_total"),
            rel=0.15,
            label="multihop propagation node_total",
        )

    def test_multihop_spatially_jammed_phase_matches(self):
        plan = PhasePlan(
            name="inform",
            kind=PhaseKind.INFORM,
            round_index=5,
            num_slots=300,
            alice_send_prob=0.3,
            uninformed_listen_prob=0.3,
        )
        # A fixed disk of victims, resolved per-trial by node ids 0..11 as a
        # stand-in for a spatial region (identical for both engines).
        jam = lambda: JamPlan(num_jam_slots=150, targeting=JamTargeting.only(range(12)))
        records = paired_phase_records(plan, all_listening_roles, jam, trials=40, config_kwargs=GILBERT)
        stats = mean_by_engine(records)
        assert stats["fast"]["adversary"] == stats["slot"]["adversary"] == 150
        assert_means_close(
            column(records["slot"], "informed"),
            column(records["fast"], "informed"),
            rel=0.25,
            abs_tol=3.0,
            label="spatially jammed informed",
        )

    def test_multihop_request_phase_noise_matches(self):
        plan = PhasePlan(
            name="request",
            kind=PhaseKind.REQUEST,
            round_index=5,
            num_slots=400,
            nack_send_prob=0.02,
            uninformed_listen_prob=0.2,
            alice_listen_prob=0.2,
        )
        records = paired_phase_records(plan, all_listening_roles, trials=40, config_kwargs=GILBERT)
        assert_means_close(
            column(records["slot"], "alice_noisy"),
            column(records["fast"], "alice_noisy"),
            rel=0.3,
            abs_tol=5.0,
            label="multihop alice_noisy",
        )


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("adversary_factory", [
        lambda: "none",
        lambda: PhaseBlockingAdversary(max_total_spend=4_000),
    ])
    def test_full_runs_agree_on_protocol_outcomes(self, adversary_factory):
        fast = run_broadcast(n=64, seed=21, adversary=adversary_factory(), engine="fast")
        slot = run_broadcast(n=64, seed=21, adversary=adversary_factory(), engine="slot")
        assert fast.delivery_fraction == slot.delivery_fraction == 1.0
        assert fast.delivery.alice_terminated and slot.delivery.alice_terminated
        assert fast.delivery.rounds_executed == pytest.approx(slot.delivery.rounds_executed, abs=1)

    def test_full_run_costs_within_tolerance(self):
        fast = run_broadcast(n=64, seed=22, adversary=PhaseBlockingAdversary(max_total_spend=4_000), engine="fast")
        slot = run_broadcast(n=64, seed=22, adversary=PhaseBlockingAdversary(max_total_spend=4_000), engine="slot")
        assert fast.adversary_spend == pytest.approx(slot.adversary_spend, rel=0.15)
        assert fast.mean_node_cost == pytest.approx(slot.mean_node_cost, rel=0.35)
        assert fast.alice_cost == pytest.approx(slot.alice_cost, rel=0.35)


class TestMultiHopEndToEndEquivalence:
    """The ISSUE acceptance scenario: exp_multihop-style full runs agree."""

    @staticmethod
    def _run_many(engine, trials=6, adversary_factory=lambda: "none"):
        outs = []
        for trial in range(trials):
            outs.append(
                run_broadcast(
                    n=48,
                    seed=300 + trial,
                    variant="multihop",
                    engine=engine,
                    topology="gilbert",
                    topology_kwargs={"radius": 0.3},
                    adversary=adversary_factory(),
                )
            )
        return outs

    def test_multihop_full_runs_agree(self):
        fast = self._run_many("fast")
        slot = self._run_many("slot")
        assert_means_close(
            [o.delivery_fraction for o in slot],
            [o.delivery_fraction for o in fast],
            rel=0.05,
            abs_tol=0.05,
            label="multihop delivery fraction",
        )
        assert_means_close(
            [o.delivery.rounds_executed for o in slot],
            [o.delivery.rounds_executed for o in fast],
            rel=0.2,
            abs_tol=1.0,
            label="multihop rounds executed",
        )
        assert_means_close(
            [o.alice_cost for o in slot],
            [o.alice_cost for o in fast],
            rel=0.2,
            label="multihop alice cost",
        )
        # Per-run node cost is dominated by how many rounds the last
        # stragglers take, which is high-variance; the mean over seeds still
        # has to land in the same ballpark.
        assert_means_close(
            [o.mean_node_cost for o in slot],
            [o.mean_node_cost for o in fast],
            rel=0.6,
            label="multihop mean node cost",
        )

    def test_multihop_spatial_jam_full_runs_agree(self):
        factory = lambda: SpatialJammer(center=(0.25, 0.25), radius=0.2, max_total_spend=3_000)
        fast = self._run_many("fast", trials=4, adversary_factory=factory)
        slot = self._run_many("slot", trials=4, adversary_factory=factory)
        assert_means_close(
            [o.adversary_spend for o in slot],
            [o.adversary_spend for o in fast],
            rel=0.15,
            label="spatial-jam adversary spend",
        )
        assert_means_close(
            [o.delivery_fraction for o in slot],
            [o.delivery_fraction for o in fast],
            rel=0.1,
            abs_tol=0.1,
            label="spatial-jam delivery fraction",
        )


class TestMobileJammerEngineEquivalence:
    """The E12 acceptance scenario: full multi-hop runs under a *mobile*
    jammer (victims re-resolved every phase) must agree across engines on
    protocol outcomes, with cost figures from matching distributions."""

    @staticmethod
    def _run_many(engine, adversary_factory, trials=8):
        outs = []
        for trial in range(trials):
            outs.append(
                run_broadcast(
                    n=48,
                    seed=700 + trial,
                    variant="multihop",
                    engine=engine,
                    topology="gilbert",
                    topology_kwargs={"radius": 0.3},
                    adversary=adversary_factory(),
                )
            )
        return outs

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: MobileJammer(
                WaypointPatrol([(0.25, 0.25), (0.75, 0.75)], speed=0.08),
                radius=0.2,
                max_total_spend=2_000,
            ),
            lambda: ReactiveDiskJammer(radius=0.25, max_total_spend=2_000),
        ],
        ids=["patrol", "reactive_disk"],
    )
    def test_mobile_jammer_full_runs_agree(self, factory):
        fast = self._run_many("fast", factory)
        slot = self._run_many("slot", factory)
        assert_means_close(
            [o.delivery_fraction for o in slot],
            [o.delivery_fraction for o in fast],
            rel=0.1,
            abs_tol=0.1,
            label="mobile-jam delivery fraction",
        )
        assert_means_close(
            [o.adversary_spend for o in slot],
            [o.adversary_spend for o in fast],
            rel=0.25,
            abs_tol=50.0,
            label="mobile-jam adversary spend",
        )
        assert_means_close(
            [o.mean_node_cost for o in slot],
            [o.mean_node_cost for o in fast],
            rel=0.6,
            label="mobile-jam mean node cost",
        )
        assert_same_distribution(
            [o.delivery.informed for o in slot],
            [o.delivery.informed for o in fast],
            label="mobile-jam informed counts",
        )
