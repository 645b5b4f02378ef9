"""Integration tests for the protocol variants: general k, decoys, unknown n."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro import (
    DecoyBroadcast,
    EpsilonBroadcast,
    GeneralKBroadcast,
    SimulationConfig,
    SizeEstimateBroadcast,
    run_broadcast,
)
from repro.adversary import PhaseBlockingAdversary, ReactiveJammer
from repro.core import MultiHopBroadcast
from repro.core.phases import ScheduleBuilder
from repro.experiments import DOCS_PROFILE
from repro.simulation import ConfigurationError, PhaseKind


class TestNamedConfigurationErrors:
    @pytest.mark.parametrize(
        "protocol_cls, extra",
        [
            (EpsilonBroadcast, {}),
            (GeneralKBroadcast, {}),
            (DecoyBroadcast, {}),
            (SizeEstimateBroadcast, {"size_estimate": 4096}),
            (MultiHopBroadcast, {}),
        ],
    )
    @pytest.mark.parametrize("figure", [0, 3])
    def test_figure_outside_1_2_names_figure(self, protocol_cls, extra, figure):
        with pytest.raises(ConfigurationError, match="figure"):
            protocol_cls(SimulationConfig(n=64, seed=1), figure=figure, **extra)

    def test_run_broadcast_rejects_bad_figure_and_negative_cap(self):
        with pytest.raises(ConfigurationError, match="figure"):
            run_broadcast(n=64, seed=1, figure=3)
        with pytest.raises(ConfigurationError, match="max_total_spend"):
            run_broadcast(
                n=64, seed=1, adversary="continuous", adversary_kwargs={"max_total_spend": -1}
            )


class TestGeneralK:
    def test_k3_delivers_without_jamming(self):
        outcome = run_broadcast(n=128, k=3, seed=1, variant="general-k")
        assert outcome.delivery_fraction == 1.0
        assert outcome.delivery.alice_terminated

    def test_k3_rounds_have_two_propagation_steps(self):
        config = SimulationConfig(n=64, k=3, seed=1)
        protocol = GeneralKBroadcast(config)
        phases = protocol._round_phases(5)
        steps = [p for p in phases if p.kind is PhaseKind.PROPAGATION]
        assert len(steps) == 2

    def test_k4_round_has_theta_k_phases(self):
        # The Θ(k) overhead of §3.2 comes from the k-1 propagation steps: a
        # k = 4 round has 5 phases against k = 2's 3 phases.
        k2 = EpsilonBroadcast(SimulationConfig(n=64, k=2, seed=1))
        k4 = GeneralKBroadcast(SimulationConfig(n=64, k=4, seed=1))
        assert len(k4._round_phases(6)) == 5
        assert len(k2._round_phases(6)) == 3

    def test_k3_survives_blocking(self):
        outcome = run_broadcast(
            n=128,
            k=3,
            seed=2,
            variant="general-k",
            adversary=PhaseBlockingAdversary(max_total_spend=10_000),
        )
        assert outcome.delivery_fraction >= 1.0 - outcome.config.epsilon

    def test_general_k_with_k2_uses_figure2_probabilities(self):
        protocol = GeneralKBroadcast(SimulationConfig(n=64, k=2, seed=1))
        assert protocol.schedule.figure == 2


class TestDecoyVariant:
    def test_decoy_flag_enabled(self):
        protocol = DecoyBroadcast(SimulationConfig(n=64, seed=1))
        assert protocol.schedule.decoy_traffic
        assert protocol.schedule.inform_phase(5).decoy_send_prob > 0

    def test_decoy_roles_include_decoy_senders(self):
        protocol = DecoyBroadcast(SimulationConfig(n=64, seed=1))
        from repro.core.state import ProtocolState

        plan = protocol._round_phases(4)[0]
        roles = protocol._roles_for(plan, ProtocolState(64))
        assert roles.decoy_ids.size
        assert roles.decoy_ids.tolist() == roles.active_uninformed_ids.tolist()

    def test_plain_protocol_has_no_decoy_senders(self):
        protocol = EpsilonBroadcast(SimulationConfig(n=64, seed=1))
        from repro.core.state import ProtocolState

        plan = protocol._round_phases(4)[0]
        roles = protocol._roles_for(plan, ProtocolState(64))
        assert roles.decoy_ids.size == 0

    def test_decoys_cost_more_but_still_deliver(self):
        # Decoy traffic is extra work for the nodes; the difference is clearly
        # visible once rounds are long (i.e. under jamming), while delivery is
        # unaffected in both settings.
        from repro.adversary import PhaseBlockingAdversary

        plain = run_broadcast(
            n=128, seed=3, adversary=PhaseBlockingAdversary(max_total_spend=8_000)
        )
        decoy = run_broadcast(
            n=128,
            seed=3,
            adversary=PhaseBlockingAdversary(max_total_spend=8_000),
            variant="decoy",
        )
        assert plain.delivery_fraction == 1.0
        assert decoy.delivery_fraction == 1.0
        assert decoy.mean_node_cost >= plain.mean_node_cost

    def test_reactive_jammer_defeats_plain_but_not_decoy(self):
        # Against the plain protocol a reactive Carol with a healthy budget
        # (f = 1) suppresses delivery outright; with decoy traffic even the
        # §4.1 threshold budget (f < 1/24) cannot stop the broadcast.
        plain = run_broadcast(n=128, f=1.0, seed=4, adversary=ReactiveJammer())
        decoy = run_broadcast(
            n=128, f=1.0 / 48.0, seed=4, adversary=ReactiveJammer(), variant="decoy"
        )
        assert plain.delivery_fraction < 0.5
        assert decoy.delivery_fraction >= 1.0 - decoy.config.epsilon

    def test_reactive_carol_pays_more_against_decoys(self):
        f = 1.0 / 48.0
        plain = run_broadcast(n=128, f=f, seed=5, adversary=ReactiveJammer())
        decoy = run_broadcast(n=128, f=f, seed=5, adversary=ReactiveJammer(), variant="decoy")
        plain_ratio = plain.adversary_spend / max(plain.alice_cost, 1.0)
        decoy_ratio = decoy.adversary_spend / max(decoy.alice_cost, 1.0)
        assert decoy_ratio > plain_ratio


class TestSizeEstimateVariant:
    def test_estimate_must_cover_true_n(self):
        with pytest.raises(ConfigurationError):
            SizeEstimateBroadcast(SimulationConfig(n=64, seed=1), size_estimate=32)

    def test_sweep_exponents_cover_estimate(self):
        protocol = SizeEstimateBroadcast(SimulationConfig(n=64, seed=1), size_estimate=64 * 64)
        assert protocol.sweep_exponents[-1] == 12
        assert protocol.sweep_exponents[0] == 1

    def test_propagation_steps_are_swept(self):
        protocol = SizeEstimateBroadcast(SimulationConfig(n=64, seed=1), size_estimate=4096)
        phases = protocol._round_phases(4)
        propagation = [p for p in phases if p.kind is PhaseKind.PROPAGATION]
        assert len(propagation) == len(protocol.sweep_exponents)
        assert propagation[0].relay_send_prob == pytest.approx(0.5)
        assert propagation[-1].relay_send_prob == pytest.approx(1 / 4096)

    def test_request_phase_not_swept(self):
        protocol = SizeEstimateBroadcast(SimulationConfig(n=64, seed=1), size_estimate=4096)
        requests = [p for p in protocol._round_phases(4) if p.kind is PhaseKind.REQUEST]
        assert len(requests) == 1

    def test_node_schedule_uses_estimate(self):
        protocol = SizeEstimateBroadcast(SimulationConfig(n=64, seed=1), size_estimate=4096)
        assert protocol.schedule.node_n == 4096
        assert protocol.schedule.n == 64  # Alice knows the true n

    @pytest.mark.parametrize("n, earliest, cap", [(64, 11, 10), (256, 12, 12)])
    def test_squared_estimate_termination_window_as_quoted_under_e8(self, n, earliest, cap):
        # With ν = n² the nodes' earliest quiet round reaches the run's cap
        # (past it at n = 64); E8's commentary in EXPERIMENTS.md quotes both.
        schedule = ScheduleBuilder(SimulationConfig(n=n), n * n)
        assert schedule.earliest_termination_round() == earliest
        assert schedule.rounds[-1] == cap
        text = (Path(__file__).resolve().parent.parent / "EXPERIMENTS.md").read_text("utf-8")
        e8 = re.search(r"^## E8 — (.*?)^```text", text, re.M | re.S).group(1)
        assert f"{earliest} at n = {n} (cap {cap})" in " ".join(e8.split())

    def test_quoted_latency_factors_match_e8_predicted_column(self):
        # E8's commentary quotes the predicted factors of its own table.
        text = (Path(__file__).resolve().parent.parent / "EXPERIMENTS.md").read_text("utf-8")
        section = re.search(r"^## E8 — (.*?)^```$", text, re.M | re.S).group(1)
        quoted = re.search(
            r"\((\S+)× for ν = 2n and (\S+)× for ν = n² at n = (\d+)\)", section
        )
        assert quoted is not None
        assert int(quoted.group(3)) == DOCS_PROFILE.n
        table = [line for line in section.split("```text")[1].splitlines() if line.strip()]
        header = next(i for i, line in enumerate(table) if line.startswith("scenario"))
        columns = table[header].split()
        rows = [
            re.split(r"\s{2,}", line.strip())
            for line in table[header + 2 :]
            if not line.startswith("note:")
        ]
        predicted = {
            row[columns.index("estimate")]: row[columns.index("predicted_factor")] for row in rows
        }
        assert quoted.group(1) == predicted["nu = 2n"]
        assert quoted.group(2) == predicted["nu = n^2"]

    def test_delivery_preserved_with_overestimate(self):
        outcome = run_broadcast(
            n=128, seed=6, variant="size-estimate", size_estimate=128 * 128
        )
        assert outcome.delivery_fraction == 1.0

    def test_latency_inflated_by_log_factor(self):
        exact = run_broadcast(n=128, seed=7)
        estimated = run_broadcast(n=128, seed=7, variant="size-estimate", size_estimate=128 * 128)
        inflation = estimated.slots_elapsed / exact.slots_elapsed
        # 2 + lg(n^2) = 16 phases per round vs 3 → factor ≈ 5.3; allow slack.
        assert 3.0 < inflation < 9.0

    def test_moderate_estimate_costs_less_than_polynomial_one(self):
        doubled = run_broadcast(n=128, seed=8, variant="size-estimate", size_estimate=256)
        squared = run_broadcast(n=128, seed=8, variant="size-estimate", size_estimate=128 * 128)
        assert doubled.slots_elapsed < squared.slots_elapsed
