"""Unit tests for the schedule's constants and its per-side probabilities."""

from __future__ import annotations

import math

import pytest

from repro.core import ScheduleBuilder
from repro.core.phases import DECOY_LISTEN_BOOST, DECOY_RATE
from repro.simulation import ConfigurationError, SimulationConfig


def schedule_for(n=1024, figure=None, **config):
    return ScheduleBuilder(SimulationConfig(n=n, **config), figure=figure)


class TestScheduleConstants:
    def test_phase_lengths_use_lemma_11_exponents(self):
        # a = 1/k and b = 1: inform/propagation phases last 2^{(1/k+1)i}.
        assert schedule_for(k=2).phase_length(4) == 2 ** 6
        assert schedule_for(k=4).phase_length(8) == 2 ** 10

    def test_phase_length_grows_geometrically(self):
        schedule = schedule_for(k=2)
        assert schedule.phase_length(4) == pytest.approx(2 ** 6, abs=1)
        assert schedule.phase_length(6) / schedule.phase_length(4) == pytest.approx(8.0, rel=0.01)

    def test_request_phase_length_k2(self):
        assert schedule_for(k=2).request_phase_length(4) == pytest.approx(2 ** 6, abs=1)

    def test_round_window(self):
        schedule = schedule_for(n=1024)
        assert schedule.rounds[0] == 1
        assert schedule.rounds[-1] == 14  # ⌈lg n⌉ + 4
        assert schedule.earliest_termination_round() >= 3

    def test_termination_threshold(self):
        schedule = schedule_for(n=100, c=2.0)
        assert schedule.termination_threshold() == pytest.approx(10 * math.log(100))

    @pytest.mark.parametrize("k,round_index,log_length", [
        (2, 4, 6), (3, 6, 8), (4, 8, 10), (5, 10, 12), (8, 8, 9),
    ])
    def test_lemma_11_exponents_for_each_k(self, k, round_index, log_length):
        # a = 1/k, b = 1: phases last 2^{(1/k+1)i}, with k - 1 propagation steps.
        schedule = schedule_for(k=k)
        assert schedule.phase_length(round_index) == 2 ** log_length
        assert len(schedule.propagation_steps(round_index)) == k - 1

    @pytest.mark.parametrize("n,last_round", [
        (2, 5), (64, 10), (1024, 14), (4096, 16), (50_000, 20),
    ])
    def test_round_window_for_each_n(self, n, last_round):
        schedule = schedule_for(n=n)
        assert schedule.rounds[0] == 1
        assert schedule.rounds[-1] == last_round  # ⌈lg n⌉ + 4
        lower = math.ceil(3 * math.log2(max(math.log(n), 2.0)))  # ⌈3·lg ln n⌉
        for alice in (False, True):
            assert lower <= schedule.earliest_termination_round(alice) <= last_round

    @pytest.mark.parametrize("n,c", [(100, 2.0), (128, 4.0), (4096, 1.0)])
    def test_threshold_is_five_c_ln_n_on_both_sides(self, n, c):
        schedule = schedule_for(n=n, c=c)
        for alice in (False, True):
            assert schedule.termination_threshold(alice) == pytest.approx(5 * c * math.log(n))

    def test_constants_come_from_config(self):
        config = SimulationConfig(n=128, k=3, c=4.0, epsilon_prime=0.03)
        schedule = ScheduleBuilder(config)
        assert schedule.termination_threshold() == pytest.approx(5 * 4.0 * math.log(128))
        i = 9
        expected = 2.0 / (0.03 * 2 ** i)
        assert schedule.inform_phase(i).uninformed_listen_prob == pytest.approx(expected)
        assert len(schedule.propagation_steps(i)) == 2


class TestAliceSchedule:
    """Alice's side of the schedule: inform sending, request listening, quiet test."""

    def make(self, n=1024, figure=1):
        return schedule_for(n=n, figure=figure)

    def test_inform_send_probability_formula(self):
        schedule = self.make()
        i = 8
        expected = 2 * math.log(1024) / 2 ** i
        assert schedule.inform_phase(i).alice_send_prob == pytest.approx(expected)

    def test_inform_send_probability_clipped_early(self):
        assert self.make().inform_phase(1).alice_send_prob == 1.0

    def test_figure2_uses_log_power_k(self):
        schedule = schedule_for(n=1024, k=3, figure=2)
        i = 10
        expected = 2 * 2.0 * math.log(1024) ** 3 / 2 ** i
        assert schedule.inform_phase(i).alice_send_prob == pytest.approx(min(expected, 1.0))

    def test_request_listen_probability_decreases_with_round(self):
        schedule = self.make()
        assert schedule.request_phase(10).alice_listen_prob < schedule.request_phase(8).alice_listen_prob

    def test_expected_request_listens_constant_per_round(self):
        schedule = self.make()
        for i in (9, 10, 11):
            request = schedule.request_phase(i)
            expected = request.alice_listen_prob * request.num_slots
            assert expected == pytest.approx(
                schedule.config.c * math.log(1024) / (1 - math.exp(-4 * schedule.config.eps_prime)),
                rel=0.05,
            )

    def test_should_terminate_requires_minimum_round(self):
        schedule = self.make()
        early = schedule.earliest_termination_round(alice=True) - 1
        assert not schedule.should_terminate(0, early, alice=True)
        assert schedule.should_terminate(0, schedule.earliest_termination_round(alice=True), alice=True)

    def test_should_not_terminate_when_noisy(self):
        schedule = self.make()
        late = schedule.earliest_termination_round(alice=True) + 1
        assert not schedule.should_terminate(10_000, late, alice=True)

    def test_invalid_figure_rejected(self):
        with pytest.raises(ConfigurationError, match="figure"):
            schedule_for(n=64, figure=3)


class TestNodeSchedule:
    """The correct nodes' side: listening, relays, nacks, decoys, quiet test."""

    def make(self, n=1024, figure=1, decoy=False, k=2):
        return ScheduleBuilder(
            SimulationConfig(n=n, k=k), figure=figure, decoy_traffic=decoy
        )

    def test_inform_listen_formula(self):
        schedule = self.make()
        i = 9
        expected = 2.0 / (schedule.config.eps_prime * 2 ** i)
        assert schedule.inform_phase(i).uninformed_listen_prob == pytest.approx(min(expected, 1.0))

    def test_relay_and_nack_probabilities_are_one_over_n(self):
        schedule = self.make(n=500)
        assert schedule.propagation_step(7, 1).relay_send_prob == pytest.approx(1 / 500)
        assert schedule.request_phase(7).nack_send_prob == pytest.approx(1 / 500)

    def test_node_n_drives_node_probabilities_only(self):
        schedule = ScheduleBuilder(SimulationConfig(n=64), node_n=4096)
        assert schedule.propagation_step(7, 1).relay_send_prob == pytest.approx(1 / 4096)
        assert schedule.termination_threshold() == pytest.approx(10 * math.log(4096))
        assert schedule.termination_threshold(alice=True) == pytest.approx(10 * math.log(64))
        alice_only = schedule_for(n=64)
        assert schedule.inform_phase(9).alice_send_prob == alice_only.inform_phase(9).alice_send_prob

    def test_decoy_probability_zero_when_disabled(self):
        assert self.make().inform_phase(8).decoy_send_prob == 0.0

    def test_decoy_probability_scales_with_rate(self):
        schedule = ScheduleBuilder(SimulationConfig(n=100), decoy_traffic=True)
        assert DECOY_RATE == 0.75
        assert schedule.inform_phase(8).decoy_send_prob == pytest.approx(0.0075)
        assert schedule.propagation_step(8, 1).decoy_send_prob == pytest.approx(0.0075)
        assert schedule.request_phase(8).decoy_send_prob == 0.0

    def test_decoy_boost_is_two_e_to_the_rate(self):
        # Round 12 leaves both listening probabilities unclipped, so their
        # ratio is the boost itself: 2·e^{3/4}, not e^{3/4}.
        base, boosted = self.make(decoy=False), self.make(decoy=True)
        for phase in (lambda s: s.inform_phase(12), lambda s: s.propagation_step(12, 1)):
            ratio = phase(boosted).uninformed_listen_prob / phase(base).uninformed_listen_prob
            assert phase(boosted).uninformed_listen_prob < 1.0
            assert ratio == pytest.approx(2.0 * math.exp(0.75), rel=1e-12)
            assert ratio == pytest.approx(4.234, abs=5e-4)
        assert DECOY_LISTEN_BOOST == 2.0 * math.exp(DECOY_RATE)
        request_ratio = (
            boosted.request_phase(12).uninformed_listen_prob
            / base.request_phase(12).uninformed_listen_prob
        )
        assert request_ratio == 1.0  # request-phase listening is never boosted

    def test_termination_threshold_uses_node_n(self):
        schedule = self.make(n=2048)
        assert schedule.termination_threshold() == pytest.approx(10 * math.log(2048))

    def test_earliest_termination_round_is_sane(self):
        schedule = self.make()
        earliest = schedule.earliest_termination_round()
        assert schedule.rounds[0] <= earliest <= schedule.rounds[-1]

    def test_earliest_round_grows_with_threshold(self):
        lenient = schedule_for(n=1024, c=1.0)
        strict = schedule_for(n=1024, c=4.0)
        assert strict.earliest_termination_round() >= lenient.earliest_termination_round()

    def test_should_terminate_threshold_boundary(self):
        schedule = self.make()
        round_index = schedule.earliest_termination_round()
        threshold = schedule.termination_threshold()
        assert schedule.should_terminate(int(threshold), round_index)
        assert not schedule.should_terminate(int(threshold) + 1, round_index)


class TestFigure1VersusFigure2AtK2:
    """At k = 2 the two pseudocodes differ in exactly two plan fields.

    Measured at n = 256, c = 2, ε' = 1/64 over rounds 6-12: Alice's inform
    sending is scaled by ``c·ln n`` and the uninformed nodes' propagation
    listening by ``c/(2ε'(c+1))`` = 64/3.  Everything else — phase lengths,
    inform listening, the whole request phase and the earliest termination
    rounds — is equal.
    """

    N = 256
    ROUNDS = range(6, 13)

    def schedules(self):
        config = SimulationConfig(n=self.N, k=2, c=2.0, epsilon_prime=1.0 / 64.0)
        return ScheduleBuilder(config, figure=1), ScheduleBuilder(config, figure=2)

    def test_only_two_fields_differ(self):
        fig1, fig2 = self.schedules()
        differing = set()
        for i in self.ROUNDS:
            for one, two in zip(fig1.round_phases(i), fig2.round_phases(i)):
                assert one.name == two.name
                for name, value in vars(one).items():
                    if getattr(two, name) != value:
                        differing.add((one.name, name))
        assert differing == {("inform", "alice_send_prob"), ("propagation:1", "uninformed_listen_prob")}

    def test_factors_on_unclipped_rounds(self):
        fig1, fig2 = self.schedules()
        c, eps = 2.0, 1.0 / 64.0
        inform_factor, propagation_factor = c * math.log(self.N), c / (2 * eps * (c + 1))
        assert inform_factor == pytest.approx(11.09, abs=5e-3)
        assert propagation_factor == pytest.approx(64 / 3)
        inform_rounds, propagation_rounds = [], []
        for i in self.ROUNDS:
            if fig2.inform_phase(i).alice_send_prob < 1.0:
                inform_rounds.append(i)
                ratio = fig2.inform_phase(i).alice_send_prob / fig1.inform_phase(i).alice_send_prob
                assert ratio == pytest.approx(inform_factor, rel=1e-12)
            two = fig2.propagation_step(i, 1).uninformed_listen_prob
            if two < 1.0:
                propagation_rounds.append(i)
                one = fig1.propagation_step(i, 1).uninformed_listen_prob
                assert two / one == pytest.approx(propagation_factor, rel=1e-12)
        assert inform_rounds == [7, 8, 9, 10, 11, 12]
        # Figure 2's propagation listening stays clipped at 1 through round 9.
        assert propagation_rounds == [10, 11, 12]
        assert all(fig2.propagation_step(i, 1).uninformed_listen_prob == 1.0 for i in (6, 7, 8, 9))

    def test_termination_rounds_equal(self):
        fig1, fig2 = self.schedules()
        for schedule in (fig1, fig2):
            assert schedule.earliest_termination_round() == 10
            assert schedule.earliest_termination_round(alice=True) == 8
