"""Unit tests for the deterministic random-source layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation import ConfigurationError, RandomSource, derive_seed


class TestRandomSource:
    def test_same_seed_same_streams(self):
        a = RandomSource(7)
        b = RandomSource(7)
        assert a.stream("x").random(5).tolist() == b.stream("x").random(5).tolist()

    def test_different_seeds_differ(self):
        a = RandomSource(7).stream("x").random(8)
        b = RandomSource(8).stream("x").random(8)
        assert not np.allclose(a, b)

    def test_different_stream_names_are_independent(self):
        source = RandomSource(7)
        a = source.stream("alpha").random(8)
        b = source.stream("beta").random(8)
        assert not np.allclose(a, b)

    def test_stream_is_memoised(self):
        source = RandomSource(7)
        assert source.stream("x") is source.stream("x")

    def test_stream_state_persists_across_calls(self):
        source = RandomSource(7)
        first = source.stream("x").random()
        second = source.stream("x").random()
        assert first != second

    def test_generator_for_with_identifier(self):
        source = RandomSource(3)
        a = source.generator_for("node", 1).random(4)
        b = source.generator_for("node", 2).random(4)
        assert not np.allclose(a, b)

    def test_generator_for_without_identifier(self):
        source = RandomSource(3)
        assert source.generator_for("alice") is source.stream("alice")

    def test_seed_property(self):
        assert RandomSource(123).seed == 123

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomSource(-1)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomSource("abc")  # type: ignore[arg-type]

    def test_spawn_is_deterministic(self):
        a = RandomSource(5).spawn("trial-1").stream("x").random(4)
        b = RandomSource(5).spawn("trial-1").stream("x").random(4)
        assert np.allclose(a, b)

    def test_spawn_children_differ(self):
        source = RandomSource(5)
        a = source.spawn("trial-1").stream("x").random(4)
        b = source.spawn("trial-2").stream("x").random(4)
        assert not np.allclose(a, b)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(10, "a", 1) == derive_seed(10, "a", 1)

    def test_label_sensitivity(self):
        assert derive_seed(10, "a", 1) != derive_seed(10, "a", 2)

    def test_base_seed_sensitivity(self):
        assert derive_seed(10, "a") != derive_seed(11, "a")

    def test_result_is_non_negative_int(self):
        value = derive_seed(1, "x")
        assert isinstance(value, int)
        assert value >= 0


class TestZeroCountBinomialStream:
    """numpy's ``binomial`` with ``n = 0`` returns zeros without consuming bits.

    The single-hop engine relies on this to build a zero-count draw's zeros
    without calling the generator (results stay bit-identical); if a numpy
    release starts consuming bits for ``n = 0`` this fails rather than the
    engine's samples silently changing.
    """

    @pytest.mark.parametrize("p", [1e-9, 0.001, 0.3, 0.5, 0.999, 1.0])
    @pytest.mark.parametrize("size", [1, 2, 17, 256, 4096, 5000])
    def test_zero_count_draw_consumes_no_bits(self, p, size):
        for seed in (0, 20120717):
            drawn = np.random.default_rng(seed)
            zeros = drawn.binomial(0, p, size=size)
            assert zeros.dtype == np.int64 and not zeros.any()
            fresh = np.random.default_rng(seed)
            assert drawn.random(3).tolist() == fresh.random(3).tolist()
