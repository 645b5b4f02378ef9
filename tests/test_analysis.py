"""Tests for the analysis utilities (bounds, fitting, stats)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    ExponentFit,
    TrialSummary,
    aggregate_records,
    blocking_round,
    cost_exponent,
    fit_cost_exponent,
    fit_power_law,
    fraction_meeting,
    latency_bound,
    no_jamming_alice_cost_bound,
    no_jamming_node_cost_bound,
    predict,
    predicted_alice_cost,
    predicted_node_cost,
    reactive_f_threshold,
    summarize,
)
from repro.simulation import SimulationConfig


class TestBounds:
    def test_cost_exponent(self):
        assert cost_exponent(2) == pytest.approx(1 / 3)
        assert cost_exponent(4) == pytest.approx(1 / 5)
        with pytest.raises(ValueError):
            cost_exponent(1)

    def test_predicted_costs_monotone_in_T(self):
        assert predicted_node_cost(1000, 256) > predicted_node_cost(100, 256)
        assert predicted_alice_cost(1000, 256) > predicted_alice_cost(100, 256)

    def test_no_jamming_bounds_are_polylog(self):
        assert no_jamming_alice_cost_bound(10**6) < 10**6
        assert no_jamming_node_cost_bound(10**6) < 10**3

    def test_latency_bound(self):
        assert latency_bound(100, 2) == pytest.approx(1000.0)

    def test_blocking_round_grows_with_n_and_f(self):
        small = blocking_round(SimulationConfig(n=256, f=1.0))
        large_n = blocking_round(SimulationConfig(n=1024, f=1.0))
        large_f = blocking_round(SimulationConfig(n=256, f=4.0))
        assert large_n > small
        assert large_f > small
        with pytest.raises(ValueError):
            blocking_round(SimulationConfig(n=256), beta=0.0)

    def test_reactive_threshold(self):
        assert reactive_f_threshold() == pytest.approx(1 / 24)

    def test_predict_bundle(self):
        config = SimulationConfig(n=256, epsilon=0.2)
        prediction = predict(config, T=1000.0)
        assert prediction.delivery_fraction_bound == pytest.approx(0.8)
        assert prediction.scaled(2.0).node_cost_bound == pytest.approx(2 * prediction.node_cost_bound)


class TestFitting:
    def test_exact_power_law_recovered(self):
        xs = [10, 100, 1000, 10_000]
        ys = [3 * x ** 0.5 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(0.5, abs=1e-6)
        assert fit.coefficient == pytest.approx(3.0, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0)

    def test_prediction_roundtrip(self):
        fit = fit_power_law([1, 10, 100], [2, 20, 200])
        assert fit.predict(1000) == pytest.approx(2000, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [2])
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [0, 0])
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [1, 2, 3])

    def test_noisy_fit_reports_r_squared_below_one(self):
        rng = np.random.default_rng(0)
        xs = np.logspace(1, 4, 12)
        ys = 5 * xs ** 0.4 * rng.uniform(0.8, 1.2, size=xs.size)
        fit = fit_power_law(xs, ys)
        assert 0.3 < fit.exponent < 0.5
        assert fit.r_squared < 1.0


#: Ten cost series the docs-profile registry once fitted over per-point means
#: (E1: Alice then node max cost; E5: node then Alice cost for each
#: protocol), with the ``(α, c)`` that scipy's ``curve_fit`` returns for
#: ``c·x^α`` with ``sigma = max(y, 1)``: the solver checked against an
#: independent optimiser.
REGISTRY_FITS = [
    ("E1-alice", [2186.0, 6605.0, 19951.0, 60260.0], [1395.0, 1769.0, 2331.0, 3052.0],
     0.23746611742159557, 222.3130775852222),
    ("E1-node", [2186.0, 6605.0, 19951.0, 60260.0], [1859.0, 6371.0, 10512.0, 16937.0],
     0.65913869720347, 13.48772857537442),
    ("E5-epsilon-broadcast-node", [724.0, 3161.0, 13802.0, 60260.0], [701.5, 3513.0, 7381.0, 16704.5],
     0.7103141850774645, 7.553066054315273),
    ("E5-epsilon-broadcast-alice", [724.0, 3161.0, 13802.0, 60260.0], [1348.5, 1335.0, 1786.5, 2979.5],
     0.182935886338039, 343.2336530446616),
    ("E5-naive-node", [724.0, 3161.0, 13802.0, 60260.0], [512.0, 2049.0, 8194.0, 32773.0],
     0.9405878725121664, 1.0459715029490937),
    ("E5-naive-alice", [724.0, 3161.0, 13802.0, 60260.0], [1022.0, 4094.0, 16382.0, 65534.0],
     0.940989975409877, 2.0827438831298832),
    ("E5-ksy-node", [724.0, 3161.0, 13802.0, 60260.0], [527.5, 2082.0, 8295.0, 33110.0],
     0.9363493703681689, 1.104380003510639),
    ("E5-ksy-alice", [724.0, 3161.0, 13802.0, 60260.0], [143.0, 302.0, 780.5, 1747.0],
     0.5745110491293054, 3.1390731059876917),
    ("E5-balanced-backoff-node", [724.0, 3161.0, 13802.0, 60260.0], [262.5, 579.0, 1203.0, 2705.0],
     0.5243195956292753, 8.328119030467066),
    ("E5-balanced-backoff-alice", [724.0, 3161.0, 13802.0, 60260.0], [293.5, 715.5, 1470.5, 3541.0],
     0.5558650003608414, 7.6820920219858415),
]

spend = st.floats(min_value=1.0, max_value=1e6, allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-2, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def positive_series(draw):
    """2–10 points with spends of at least 1 and strictly positive costs."""

    size = draw(st.integers(2, 10))
    xs = draw(st.lists(spend, min_size=size, max_size=size))
    ys = draw(st.lists(positive, min_size=size, max_size=size))
    return np.array(xs), np.array(ys)


def weighted_sse(x, y, coefficient, exponent):
    """The cost fit's objective: squared residuals weighted by σ = max(y, 1)."""

    residual = (y - coefficient * x**exponent) / np.maximum(y, 1.0)
    return float(np.sum(residual * residual))


def reference_sse(x, y, alphas):
    """The minimum over ``c`` at each α, in closed form, independently of the fit."""

    weights = 1.0 / np.maximum(y, 1.0) ** 2
    u = x[None, :] ** alphas[:, None]
    c = np.sum(weights * u * y, axis=1) / np.sum(weights * u * u, axis=1)
    residual = y - c[:, None] * u
    return np.sum(weights * residual * residual, axis=1)


class TestCostExponentSolver:
    """The exact numpy-only ``y ≈ c·x^α`` solver behind ``fit_cost_exponent``."""

    @settings(max_examples=60, deadline=None)
    @given(positive_series())
    def test_fit_stays_within_bounds(self, series):
        x, y = series
        fit = fit_cost_exponent(x, y)
        assume(fit.ok)
        assert 0.0 <= fit.exponent <= 2.0
        assert 0.0 < fit.coefficient < math.inf
        assert fit.n_points == x.size

    @settings(max_examples=60, deadline=None)
    @given(positive_series())
    def test_fit_is_no_worse_than_a_dense_reference_grid(self, series):
        x, y = series
        fit = fit_cost_exponent(x, y)
        assume(fit.ok)
        measured = weighted_sse(x, y, fit.coefficient, fit.exponent)
        # Midpoints of a 1,000-cell grid: none of them is on the fit's first grid.
        alphas = (np.arange(1000) + 0.5) / 500.0
        assert measured <= reference_sse(x, y, alphas).min() * (1 + 1e-9) + 1e-300

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 100_000), min_size=2, max_size=10, unique=True).filter(
            lambda xs: max(xs) >= 10 * min(xs)
        ),
        st.floats(0.1, 100.0),
        st.floats(0.1, 1.9),
    )
    def test_noise_free_series_recovered(self, xs, coefficient, exponent):
        x = np.array(xs, dtype=float)
        y = coefficient * x**exponent
        fit = fit_cost_exponent(x, y)
        assert fit.exponent == pytest.approx(exponent, abs=1e-6)
        assert fit.coefficient == pytest.approx(coefficient, rel=1e-5)
        assert fit.ci_low - 1e-6 <= exponent <= fit.ci_high + 1e-6

    def test_exponent_on_its_upper_bound(self):
        x = np.array([3.0, 30.0, 300.0, 3000.0])
        y = 0.5 * x**2.0
        fit = fit_cost_exponent(x, y)
        assert weighted_sse(x, y, fit.coefficient, fit.exponent) < 1e-20
        assert fit.exponent == pytest.approx(2.0, abs=1e-6)
        assert fit.coefficient == pytest.approx(0.5, rel=1e-6)

    @pytest.mark.parametrize(
        "xs, ys",
        [
            ([5.0, 5.0, 5.0, 50.0], [100.0, 120.0, 110.0, 400.0]),
            ([5.0, 50.0, 50.0, 50.0], [100.0, 380.0, 400.0, 420.0]),
            ([1.0, 2.0, 3.0, 4.0], [0.2, 0.3, 0.1, 0.4]),
            ([10.0, 20.0, 40.0, 80.0], [400.0, 300.0, 200.0, 100.0]),
        ],
        ids=["one-large-x", "one-small-x", "y-below-one", "falling-cost"],
    )
    def test_degenerate_series(self, xs, ys):
        x, y = np.array(xs), np.array(ys)
        fit = fit_cost_exponent(x, y)
        values = (fit.exponent, fit.coefficient, fit.r_squared, fit.ci_low, fit.ci_high)
        assert all(math.isfinite(value) for value in values)
        assert 0.0 <= fit.exponent <= 2.0 and fit.coefficient > 0.0
        measured = weighted_sse(x, y, fit.coefficient, fit.exponent)
        reference = reference_sse(x, y, np.linspace(0.0, 2.0, 201)).min()
        assert measured <= reference * (1 + 1e-9) + 1e-300

    def test_repeat_calls_return_identical_floats(self):
        for _, xs, ys, *_ in REGISTRY_FITS:
            assert fit_cost_exponent(xs, ys) == fit_cost_exponent(xs, ys)

    @pytest.mark.parametrize(
        "xs, ys, exponent, coefficient",
        [fit[1:] for fit in REGISTRY_FITS],
        ids=[fit[0] for fit in REGISTRY_FITS],
    )
    def test_registry_fits_match_curve_fit(self, xs, ys, exponent, coefficient):
        fit = fit_cost_exponent(xs, ys)
        assert fit.exponent == pytest.approx(exponent, rel=1e-6)
        assert fit.coefficient == pytest.approx(coefficient, rel=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(positive_series())
    def test_r_squared_is_weighted(self, series):
        x, y = series
        fit = fit_cost_exponent(x, y)
        assume(fit.ok)
        weights = 1.0 / np.maximum(y, 1.0) ** 2
        y_bar = float(np.sum(weights * y) / np.sum(weights))
        wsse = weighted_sse(x, y, fit.coefficient, fit.exponent)
        wsst = weighted_sse(x, y, y_bar, 0.0)
        assert fit.r_squared == pytest.approx(1.0 - wsse / wsst, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize(
        "xs, ys",
        [
            ([100.0, 1000.0], [40.0, 300.0]),
            ([100.0, 100.0, 1000.0, 1000.0], [35.0, 45.0, 280.0, 320.0]),
            ([64.0, 640.0, 6400.0], [900.0, 1300.0, 5000.0]),
            ([64.0, 64.0, 640.0, 640.0, 6400.0, 6400.0], [880.0, 920.0, 1250.0, 1350.0, 4800.0, 5200.0]),
            ([788.0, 2364.0, 6306.0, 14188.0], [73.0, 365.0, 306.0, 269.0]),
        ],
        ids=["two-spends", "two-spends-repeated", "three-spends", "three-spends-repeated", "four-spends"],
    )
    def test_matches_pure_power_law_grid(self, xs, ys):
        x, y = np.array(xs), np.array(ys)
        fit = fit_cost_exponent(x, y)
        assert fit.ok
        alphas = np.linspace(0.0, 2.0, 20_001)
        grid = reference_sse(x, y, alphas)
        assert fit.exponent == pytest.approx(float(alphas[np.argmin(grid)]), abs=1e-4)
        assert weighted_sse(x, y, fit.coefficient, fit.exponent) <= grid.min() * (1 + 1e-9)

    def test_trial_noise_in_realised_spends_moves_the_fit_continuously(self):
        # Two trials per cap: when the cap binds both realise the same spend,
        # when it does not they differ slightly.  Neither case may switch the
        # model, so the two fits agree closely.
        costs = [640.0, 660.0, 1250.0, 1350.0, 2400.0, 2500.0]
        bound = fit_cost_exponent([788.0, 788.0, 2364.0, 2364.0, 6306.0, 6306.0], costs)
        jittered = fit_cost_exponent([788.0, 781.0, 2364.0, 2391.0, 6306.0, 6248.0], costs)
        assert bound.ok and jittered.ok
        assert jittered.exponent == pytest.approx(bound.exponent, abs=0.01)
        assert jittered.ci_low == pytest.approx(bound.ci_low, abs=0.02)
        assert jittered.ci_high == pytest.approx(bound.ci_high, abs=0.02)

    def test_huge_costs_keep_finite_fit_values(self):
        # 1/σ² underflows at these costs; the solver works in units of σ.
        fit = fit_cost_exponent([1.0, 2.0, 4.0], [1.34e154, 1.41e154, 2.9e154])
        assert fit.ok
        values = (fit.exponent, fit.coefficient, fit.r_squared, fit.ci_low, fit.ci_high)
        assert all(math.isfinite(value) for value in values)
        assert fit.coefficient == pytest.approx(1.34e154, rel=0.2)
        assert 0.0 < fit.r_squared <= 1.0

    def test_str_shows_coefficient_interval_and_points(self):
        fit = fit_cost_exponent(*REGISTRY_FITS[1][1:3])
        assert str(fit) == "y ≈ 13.5·T^0.659 [0.47, 0.85] (R²=0.918, n=4)"


class TestCostExponentFlags:
    @given(
        rho=st.floats(min_value=0.05, max_value=1.5),
        scale=st.floats(min_value=0.5, max_value=50.0),
        base=st.floats(min_value=2.0, max_value=50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_recovers_planted_exponent(self, rho, scale, base):
        spends = [base * (3.0**i) for i in range(5)]
        costs = [scale * spend**rho for spend in spends]
        fit = fit_cost_exponent(spends, costs)
        assert fit.ok
        assert fit.exponent == pytest.approx(rho, abs=1e-6)
        assert fit.ci_low - 1e-6 <= rho <= fit.ci_high + 1e-6
        assert fit.r_squared == pytest.approx(1.0)

    @given(
        cost=st.floats(min_value=0.5, max_value=1e6),
        n_points=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_flat_cost_is_flagged_zero_exponent(self, cost, n_points):
        spends = [10.0 * (2.0**i) for i in range(n_points)]
        fit = fit_cost_exponent(spends, [cost] * n_points)
        assert fit.flagged and fit.reason == "flat-cost"
        assert fit.exponent == 0.0

    @given(n_points=st.integers(min_value=1, max_value=6))
    @settings(max_examples=50, deadline=None)
    def test_zero_cost_is_flagged(self, n_points):
        spends = [10.0 * (2.0**i) for i in range(n_points)]
        fit = fit_cost_exponent(spends, [0.0] * n_points)
        assert fit.flagged and fit.reason == "zero-cost"

    @given(
        spread=st.floats(min_value=1.0, max_value=1.9),
        costs=st.lists(
            st.floats(min_value=1.0, max_value=1e3), min_size=2, max_size=2
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_narrow_spend_range_is_flagged(self, spread, costs):
        fit = fit_cost_exponent([10.0, 10.0 * spread], costs)
        assert fit.flagged and fit.reason == "degenerate-spend-range"

    def test_spends_below_min_spend_are_dropped(self):
        fit = fit_cost_exponent([0.0, 5.0, 50.0, 500.0], [90.0, 100.0, 400.0, 1600.0], min_spend=10.0)
        assert fit.ok and fit.n_points == 2
        assert fit_cost_exponent([0.0, 5.0], [1.0, 2.0]).reason == "insufficient-points"

    @given(
        points=st.lists(
            st.tuples(
                st.floats(allow_nan=True, allow_infinity=True),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
            max_size=10,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_never_raises_on_arbitrary_series(self, points):
        spends = [p[0] for p in points]
        costs = [p[1] for p in points]
        with np.errstate(all="ignore"):
            fit = fit_cost_exponent(spends, costs)
        assert isinstance(fit, ExponentFit)
        if not fit.flagged:
            values = (fit.exponent, fit.coefficient, fit.r_squared, fit.ci_low, fit.ci_high)
            assert all(math.isfinite(value) for value in values)
            assert fit.ci_low <= fit.exponent <= fit.ci_high

class TestStats:
    def test_summarize(self):
        summary = summarize("x", [1.0, 2.0, 3.0])
        assert summary.mean == 2.0
        assert summary.minimum == 1.0 and summary.maximum == 3.0
        low, high = summary.confidence_interval()
        assert low < 2.0 < high

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize("x", [])

    def test_single_value_has_zero_stderr(self):
        assert summarize("x", [5.0]).stderr == 0.0

    def test_aggregate_records_skips_non_finite(self):
        records = [{"a": 1.0, "b": float("inf")}, {"a": 3.0, "b": 2.0}]
        summaries = aggregate_records(records)
        assert summaries["a"].mean == 2.0
        assert summaries["b"].count == 1

    def test_aggregate_records_empty(self):
        assert aggregate_records([]) == {}

    def test_fraction_meeting(self):
        assert fraction_meeting([0.9, 0.95, 0.5], lambda v: v >= 0.9) == pytest.approx(2 / 3)
        assert fraction_meeting([], lambda v: True) == 0.0
