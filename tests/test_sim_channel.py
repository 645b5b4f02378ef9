"""Unit tests for the single-channel collision/jamming semantics."""

from __future__ import annotations

import pytest

from repro.simulation import (
    ALICE_ID,
    Channel,
    ChannelState,
    JamMode,
    JamTargeting,
    ProtocolViolationError,
    make_nack,
    make_payload,
)


@pytest.fixture
def channel() -> Channel:
    return Channel()


def payload():
    return make_payload(ALICE_ID, "m", "sig")


class TestJamTargeting:
    def test_none_affects_nobody(self):
        assert not JamTargeting.none().affects(3)
        assert not JamTargeting.none().is_active

    def test_everyone_affects_all(self):
        targeting = JamTargeting.everyone()
        assert targeting.affects(0)
        assert targeting.affects(ALICE_ID)
        assert targeting.is_active

    def test_only_affects_listed(self):
        targeting = JamTargeting.only({1, 2})
        assert targeting.affects(1)
        assert not targeting.affects(3)

    def test_mode_enumeration(self):
        assert JamTargeting.none().mode is JamMode.NONE
        assert JamTargeting.everyone().mode is JamMode.ALL
        assert JamTargeting.only([1]).mode is JamMode.ONLY
        assert set(JamMode) == {JamMode.NONE, JamMode.ALL, JamMode.ONLY}


class TestChannelResolution:
    def test_silent_slot(self, channel):
        resolution = channel.resolve_slot([], {1, 2}, JamTargeting.none())
        assert all(obs.is_silent for obs in resolution.observations.values())
        assert not resolution.busy

    def test_single_transmission_delivered(self, channel):
        resolution = channel.resolve_slot([payload()], {1}, JamTargeting.none(), senders=[ALICE_ID])
        observation = resolution.observations[1]
        assert observation.state is ChannelState.MESSAGE
        assert observation.message.payload == "m"

    def test_collision_is_noise_for_everyone(self, channel):
        resolution = channel.resolve_slot(
            [payload(), make_nack(3)], {1, 2}, JamTargeting.none(), senders=[ALICE_ID, 3]
        )
        assert all(obs.state is ChannelState.NOISE for obs in resolution.observations.values())

    def test_jamming_blocks_single_transmission(self, channel):
        resolution = channel.resolve_slot([payload()], {1}, JamTargeting.everyone(), senders=[ALICE_ID])
        assert resolution.observations[1].state is ChannelState.NOISE

    def test_n_uniform_jamming_spares_chosen_listener(self, channel):
        resolution = channel.resolve_slot(
            [payload()], {1, 2}, JamTargeting.only({2}), senders=[ALICE_ID]
        )
        assert resolution.observations[1].state is ChannelState.MESSAGE
        assert resolution.observations[2].state is ChannelState.NOISE

    def test_jamming_empty_slot_cannot_forge_silence(self, channel):
        # Jamming an empty slot makes it *noisy*; the reverse (making a busy
        # slot silent) is impossible by construction.
        resolution = channel.resolve_slot([], {1}, JamTargeting.everyone())
        assert resolution.observations[1].state is ChannelState.NOISE
        assert resolution.busy

    def test_unjammed_unlistened_slot_has_no_observations(self, channel):
        resolution = channel.resolve_slot([payload()], set(), JamTargeting.none(), senders=[ALICE_ID])
        assert resolution.observations == {}
        assert resolution.transmission_count == 1

    def test_sender_cannot_also_listen(self, channel):
        with pytest.raises(ProtocolViolationError):
            channel.resolve_slot([make_nack(1)], {1}, JamTargeting.none(), senders=[1])

    def test_alice_can_listen_like_any_node(self, channel):
        resolution = channel.resolve_slot([make_nack(5)], {ALICE_ID}, JamTargeting.none(), senders=[5])
        assert resolution.observations[ALICE_ID].state is ChannelState.MESSAGE
        assert resolution.observations[ALICE_ID].is_noisy

    def test_only_targeting_affects_alice_when_listed(self, channel):
        resolution = channel.resolve_slot(
            [make_nack(5)], {ALICE_ID}, JamTargeting.only({ALICE_ID}), senders=[5]
        )
        assert resolution.observations[ALICE_ID].state is ChannelState.NOISE

    def test_busy_flag_with_only_jamming(self, channel):
        resolution = channel.resolve_slot([], set(), JamTargeting.everyone())
        assert resolution.busy
        assert resolution.transmission_count == 0


class TestObservationSemantics:
    def test_message_counts_as_noisy_for_request_rule(self, channel):
        resolution = channel.resolve_slot([make_nack(2)], {1}, JamTargeting.none(), senders=[2])
        assert resolution.observations[1].is_noisy

    def test_silent_is_not_noisy(self, channel):
        resolution = channel.resolve_slot([], {1}, JamTargeting.none())
        assert not resolution.observations[1].is_noisy


class TestDeterministicObservationOrder:
    """Pinned regression for the sorted listener loop in ``resolve_slot``.

    The observations mapping's insertion order is observable to every
    consumer that iterates it (engines, traces).  Before the fix the loop
    ran over the raw listener set, so the order tracked hash-table layout:
    ``{1, 8}`` iterates ``[8, 1]`` because 8 hashes into slot 0.
    """

    def test_observations_insert_in_sorted_listener_order(self, channel):
        listeners = {1, 8}
        # Precondition: raw set order genuinely differs from sorted order,
        # otherwise this test could not distinguish the fix from the bug.
        assert list(listeners) != sorted(listeners)
        resolution = channel.resolve_slot([], listeners, JamTargeting.none())
        assert list(resolution.observations) == sorted(listeners)

    def test_order_holds_with_traffic_and_jamming(self, channel):
        listeners = {1, 8, 2}
        assert list(listeners) != sorted(listeners)
        resolution = channel.resolve_slot(
            [make_nack(5)], listeners, JamTargeting.only({2}), senders=[5]
        )
        assert list(resolution.observations) == sorted(listeners)
