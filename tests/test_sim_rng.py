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
    # Every size below the windowed table's floor.
    size = draw(st.one_of(st.integers(0, 300), st.integers(300, rng_module.WINDOW_MIN_SIZE - 1)))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, p, size, seed


class TestBinomialIid:
    """Outside the windowed table, ``binomial_iid`` is ``Generator.binomial``:
    same array, same state, same errors."""

    @settings(max_examples=300, deadline=None)
    @given(binomial_cases())
    def test_matches_numpy_array_and_next_draw(self, case):
        numpy_calls_drawing_like_numpy(*case)

    @pytest.mark.parametrize(
        "n,p",
        # A mean past the cap, plain and mirrored; p = 0 and p = 1.
        [(10**6, 0.03), (10**6, 0.97), (1_000, 0.0), (1_000, 1.0)],
    )
    def test_large_draws_outside_the_table_match_numpy(self, n, p):
        for seed in range(3):
            assert numpy_calls_drawing_like_numpy(n, p, 4096, seed) == 1

    @pytest.mark.parametrize(
        "n,p", [(1_000, 0.031), (1_000, 0.969), (10**5, 0.01), (60, 0.5), (10**7, 5e-8)]
    )
    def test_draws_below_the_floor_call_numpy(self, n, p):
        # Means 31 (plain and mirrored), 1,000, 30 and 0.5.
        assert rng_module.WINDOW_MIN_SIZE > 512
        for seed in range(3):
            assert numpy_calls_drawing_like_numpy(n, p, 512, seed) == 1

    def test_a_large_draw_in_the_table_makes_no_numpy_call(self):
        generator = CountingGenerator(3)
        drawn = binomial_iid(generator, 1_000, 0.031, 4096)
        assert drawn.dtype == np.int64 and drawn.shape == (4096,)
        assert generator.binomial_calls == 0

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


def log_pmf(n, p, x):
    """``log P(X = x)`` for ``X ~ Binomial(n, p)``, from ``math.lgamma``."""

    return (
        math.lgamma(n + 1)
        - math.lgamma(x + 1)
        - math.lgamma(n - x + 1)
        + x * math.log(p)
        + (n - x) * math.log1p(-p)
    )


def mass_outside(n, p, lo, hi):
    """``P(X < lo) + P(X > hi)`` for ``X ~ Binomial(n, p)``, ``lo`` and ``hi``
    on either side of the mode.

    Each tail is summed outwards by the exact pmf ratio until a geometric
    bound on the rest is negligible: past the mode the ratio only shrinks
    outwards, so the rest is at most ``term / (1 - ratio)``.
    """

    total = 0.0
    q = 1.0 - p
    for x, step in ((hi + 1, 1), (lo - 1, -1)):
        if not 0 <= x <= n:
            continue
        term = math.exp(log_pmf(n, p, x))
        while term > 0.0:
            if step > 0:
                ratio = (n - x) * p / ((x + 1) * q) if x < n else 0.0
            else:
                ratio = x * q / ((n - x + 1) * p)
            if ratio < 1e-3 or term * ratio / (1.0 - ratio) < 1e-9 * total:
                total += term / (1.0 - ratio)
                break
            total += term
            term *= ratio
            x += step
    return total


def chi_square_critical(dof, z=3.719):
    """The Wilson–Hilferty approximation of the χ² quantile at normal score
    ``z`` (3.719: upper tail 10^-4)."""

    h = 2.0 / (9.0 * dof)
    return dof * (1.0 - h + z * math.sqrt(h)) ** 3


# (n, p) pairs that take the windowed table at 4,096 or more draws: means
# from 0.5 to the cap; p > 1/2 mirrored; windows clipped at 0 (small means)
# and at n (n = 1, 10 and 60); r = 1/2 exactly; a count of 10^9.
WINDOW_GRID = [
    (10**7, 5e-8),
    (1, 0.3),
    (10, 0.3),
    (60, 0.5),
    (1_000, 0.031),
    (1_000, 0.97),
    (10**5, 1e-3),
    (2_000, 0.75),
    (10**5, 0.01),
    (10**6, 0.99),
    (40_000, 0.5),
    (10**9, 2e-5),
]


class TestWindowedTable:
    """Draws that take the windowed table follow ``Binomial(n, p)``.

    Power: each case draws 10^6 values.  The mean z-test sees a table off
    by one value at z = sqrt(10^6)/σ ≥ 7 for every grid σ (at most 141, at
    mean 2·10^4), against a bound of 5; the variance z-test sees a window
    that drops or doubles a tail; the χ² test over bins of expected count
    ≥ 20 rejects at α = 10^-4 (a table that skips normalisation, or a
    p > 1/2 draw that is not mirrored, exceeds the bound by orders of
    magnitude).  Draws are seeded, so the verdicts are deterministic.
    """

    DRAWS = 10**6

    @pytest.mark.parametrize("n,p", WINDOW_GRID)
    def test_draws_follow_the_exact_pmf(self, n, p):
        generator = CountingGenerator(20120717)
        drawn = binomial_iid(generator, n, p, self.DRAWS)
        assert generator.binomial_calls == 0
        assert drawn.dtype == np.int64 and drawn.min() >= 0 and drawn.max() <= n

        mean, var = n * p, n * p * (1.0 - p)
        excess_kurtosis = (1.0 - 6.0 * p * (1.0 - p)) / var
        mean_z = (drawn.mean() - mean) / math.sqrt(var / self.DRAWS)
        var_z = (drawn.var() - var) / (var * math.sqrt((2.0 + excess_kurtosis) / self.DRAWS))
        assert abs(mean_z) < 5.0 and abs(var_z) < 5.0, (mean_z, var_z)

        # Bins of consecutive values, each expecting at least 20 draws; the
        # values past either end pool into the end bins.
        low = max(0, math.floor(mean - 12 * math.sqrt(var) - 12))
        high = min(n, math.ceil(mean + 12 * math.sqrt(var) + 12))
        values = np.arange(low, high + 1)
        expected = np.array([math.exp(log_pmf(n, p, int(x))) for x in values]) * self.DRAWS
        observed = np.bincount(np.clip(drawn, low, high) - low, minlength=values.size)
        edges = [0]
        running = 0.0
        for index, count in enumerate(expected):
            running += count
            if running >= 20.0:
                edges.append(index + 1)
                running = 0.0
        edges[-1] = values.size
        observed_bins = np.add.reduceat(observed, edges[:-1])
        expected_bins = np.add.reduceat(expected, edges[:-1])
        statistic = float(np.sum((observed_bins - expected_bins) ** 2 / expected_bins))
        dof = max(len(observed_bins) - 1, 1)
        assert statistic < chi_square_critical(dof), (statistic, dof)

    @pytest.mark.parametrize("n,p", WINDOW_GRID)
    def test_window_leaves_out_under_2_to_the_minus_64(self, n, p):
        r = min(p, 1.0 - p)
        lo, hi = rng_module._window(n, r)
        assert 0 <= lo <= n * r <= hi <= n
        assert mass_outside(n, r, lo, hi) <= 2.0**-64

    @pytest.mark.parametrize("n,p", [(1_000, 0.031), (1_000, 0.97), (10**9, 2e-5)])
    def test_a_table_draw_consumes_exactly_size_doubles(self, n, p):
        drawn = np.random.default_rng(5)
        binomial_iid(drawn, n, p, 4096)
        uniforms = np.random.default_rng(5)
        uniforms.random(4096)
        assert drawn.bit_generator.state == uniforms.bit_generator.state

    def test_a_table_draw_is_the_inverse_cdf_of_its_uniforms(self):
        n, p, size = 1_000, 0.97, 4096
        r = 1.0 - p
        lo, hi = rng_module._window(n, r)
        values = np.arange(lo, hi + 1)
        cdf = np.cumsum([math.exp(log_pmf(n, r, int(x))) for x in values])
        uniforms = np.random.default_rng(9).random(size)
        reference = n - values[np.searchsorted(cdf / cdf[-1], uniforms, side="right")]
        drawn = binomial_iid(np.random.default_rng(9), n, p, size)
        # Table rounding may move a uniform within about 1e-13 of an edge.
        assert np.count_nonzero(drawn != reference) <= 1
