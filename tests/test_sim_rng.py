"""Unit tests for the deterministic random-source layer."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import ConfigurationError, RandomSource, derive_seed
from repro.simulation import rng as rng_module
from repro.simulation.rng import binomial_iid


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

    :func:`~repro.simulation.rng.binomial_iid` relies on this to build a
    zero-count draw's zeros without calling the generator (results stay
    bit-identical); if a numpy release starts consuming bits for ``n = 0``
    this fails rather than the engine's samples silently changing.
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

    @pytest.mark.parametrize("p", [0.3, 1.0])
    def test_helper_builds_zeros_without_the_generator(self, p):
        generator = CountingGenerator(7)
        zeros = binomial_iid(generator, 0, p, 4096)
        assert zeros.dtype == np.int64 and zeros.shape == (4096,) and not zeros.any()
        assert generator.binomial_calls == 0
        assert generator.random(3).tolist() == np.random.default_rng(7).random(3).tolist()


class CountingGenerator:
    """A ``Generator`` stand-in that counts ``binomial`` calls."""

    def __init__(self, seed):
        self._generator = np.random.default_rng(seed)
        self.binomial_calls = 0

    @property
    def bit_generator(self):
        return self._generator.bit_generator

    def random(self, size=None):
        return self._generator.random(size)

    def binomial(self, n, p, size=None):
        self.binomial_calls += 1
        return self._generator.binomial(n, p, size=size)


def numpy_calls_drawing_like_numpy(n, p, size, seed):
    """Assert ``binomial_iid`` returns numpy's array and leaves numpy's state.

    Returns how many times it called ``Generator.binomial`` to do so.
    """

    ours = CountingGenerator(seed)
    theirs = np.random.default_rng(seed)
    drawn = binomial_iid(ours, n, p, size)
    expected = theirs.binomial(n, p, size=size)
    assert drawn.dtype == expected.dtype
    assert np.array_equal(drawn, expected)
    assert ours.random(3).tolist() == theirs.random(3).tolist()
    return ours.binomial_calls


@st.composite
def binomial_cases(draw):
    n = draw(st.one_of(st.integers(0, 100), st.integers(100, 10**4), st.integers(0, 10**7)))
    kind = draw(st.sampled_from(["zero", "tiny", "half", "one", "mean", "mirrored"]))
    if kind == "zero":
        p = 0.0
    elif kind == "tiny":
        p = draw(st.sampled_from([1e-300, 1e-12, 1e-7]))
    elif kind == "half":
        p = 0.5
    elif kind == "one":
        p = 1.0
    else:
        # Means on both sides of numpy's inversion/BTPE switch at 30.
        mean = draw(st.floats(0.0, 60.0))
        p = min(1.0, mean / n) if n else 0.25
        if kind == "mirrored":
            p = 1.0 - p
    # Sizes on both sides of the table path's crossover.
    size = draw(st.one_of(st.integers(0, 300), st.integers(300, 8_000), st.integers(8_000, 20_000)))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, p, size, seed


class TestBinomialIid:
    """``binomial_iid`` is ``Generator.binomial``: same array, same state, same errors."""

    @settings(max_examples=300, deadline=None)
    @given(binomial_cases())
    def test_matches_numpy_array_and_next_draw(self, case):
        numpy_calls_drawing_like_numpy(*case)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 10**7),
        st.floats(0.0, 30.0),
        st.booleans(),
        st.integers(8_000, 20_000),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_numpy_in_the_inversion_region(self, n, mean, mirrored, size, seed):
        p = min(1.0, mean / n)
        numpy_calls_drawing_like_numpy(n, 1.0 - p if mirrored else p, size, seed)

    @pytest.mark.parametrize(
        "n,p,size",
        [(1_000, 0.028, 4096), (1_000, 0.972, 4096), (60, 0.5, 20_000), (10**7, 1e-6, 8192), (40, 1.0, 9000)],
    )
    def test_large_inversion_draws_take_the_table(self, n, p, size):
        for seed in range(10):
            assert numpy_calls_drawing_like_numpy(n, p, size, seed) == 0

    @pytest.mark.parametrize(
        "n,p,size",
        [(1_000, 0.028, 256), (1_000, 0.031, 4096), (1_000, 0.0005, 4096), (1_000, 0.0, 20_000)],
    )
    def test_small_work_and_btpe_draws_call_numpy(self, n, p, size):
        # Size 256 stays under the crossover at any inversion-region mean;
        # mean 31 is numpy's BTPE region; mean 0.5 at 4,096 draws is under
        # the crossover; p = 0 is numpy's no-draw zero.
        assert numpy_calls_drawing_like_numpy(n, p, size, 3) == 1

    @pytest.mark.parametrize("tolerance", [1.0, 1e-5])
    @pytest.mark.parametrize("seed", [0, 5, 20120717])
    def test_forced_rewind_matches_numpy(self, monkeypatch, tolerance, seed):
        # A band this wide catches a uniform at the bound (1.0) or, past the
        # bound check, near one of the table's 82 edges (1e-5 at these
        # seeds): every call rewinds and defers to numpy, from the state
        # before its uniforms.
        monkeypatch.setattr(rng_module, "EDGE_TOLERANCE", tolerance)
        assert numpy_calls_drawing_like_numpy(1_000, 0.028, 4096, seed) == 1

    def test_array_counts_call_numpy(self):
        generator = CountingGenerator(3)
        counts = np.full(4096, 1_000)
        binomial_iid(generator, counts, 0.028, None)
        assert generator.binomial_calls == 1

    @pytest.mark.parametrize(
        "n,p,size",
        [
            (-1, 0.5, 4096),
            (-1, 0.5, None),
            (10, -0.1, 4096),
            (10, 1.5, 4096),
            (10, math.nan, 4096),
            (1_000, math.nan, 4096),
            (0, math.nan, 4096),
            (0, 2.0, 4096),
            (0, 0.5, -1),
            (1_000, 0.028, -1),
        ],
    )
    def test_invalid_input_raises_what_numpy_raises(self, n, p, size):
        with pytest.raises(Exception) as expected:
            np.random.default_rng(0).binomial(n, p, size=size)
        with pytest.raises(expected.type) as raised:
            binomial_iid(np.random.default_rng(0), n, p, size)
        assert str(raised.value) == str(expected.value)
