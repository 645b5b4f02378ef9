"""Tests for the analysis utilities (bounds, concentration, fitting, stats)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    CompetitivenessReport,
    TrialSummary,
    aggregate_records,
    analyze_outcomes,
    binomial_confidence_radius,
    blocking_round,
    bounded_difference_tail,
    chernoff_lower_tail,
    chernoff_upper_tail,
    cost_exponent,
    expected_unique_successes,
    fact1_lower_bound,
    fit_power_law,
    fit_power_law_with_offset,
    fraction_meeting,
    latency_bound,
    no_jamming_alice_cost_bound,
    no_jamming_node_cost_bound,
    predict,
    predicted_alice_cost,
    predicted_node_cost,
    reactive_f_threshold,
    summarize,
    summarize_ratios,
)
from repro.core.api import run_broadcast
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


class TestConcentration:
    def test_chernoff_tails_decrease_with_mean(self):
        assert chernoff_upper_tail(100, 0.5) < chernoff_upper_tail(10, 0.5)
        assert chernoff_lower_tail(100, 0.5) < chernoff_lower_tail(10, 0.5)

    def test_chernoff_validation(self):
        with pytest.raises(ValueError):
            chernoff_upper_tail(-1, 0.5)
        with pytest.raises(ValueError):
            chernoff_lower_tail(10, 2.0)

    def test_bounded_difference_matches_paper_form(self):
        # With all c_i = 1 the bound is exp(-λ² / 2ℓ).
        tail = bounded_difference_tail(10.0, [1.0] * 50)
        assert tail == pytest.approx(math.exp(-100.0 / 100.0))

    def test_bounded_difference_degenerate(self):
        assert bounded_difference_tail(1.0, []) == 0.0
        assert bounded_difference_tail(0.0, []) == 1.0

    def test_fact1(self):
        for y in (0.0, 0.1, 0.5):
            assert 1 - y >= fact1_lower_bound(y)
        with pytest.raises(ValueError):
            fact1_lower_bound(0.6)

    def test_binomial_radius(self):
        assert binomial_confidence_radius(100, 0.5) == pytest.approx(4 * 5.0)
        assert binomial_confidence_radius(0, 0.5) == 0.0

    def test_expected_unique_successes(self):
        assert expected_unique_successes(100, 0.0, 10) == 0.0
        assert expected_unique_successes(100, 1.0, 1) == 100.0
        mid = expected_unique_successes(100, 0.01, 100)
        assert 60 < mid < 67  # 100 * (1 - 0.99^100) ≈ 63.4


class TestFitting:
    def test_exact_power_law_recovered(self):
        xs = [10, 100, 1000, 10_000]
        ys = [3 * x ** 0.5 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(0.5, abs=1e-6)
        assert fit.coefficient == pytest.approx(3.0, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0)

    def test_offset_power_law_recovered(self):
        xs = [100, 400, 1600, 6400, 25_600]
        ys = [500 + 2 * x ** (1 / 3) for x in xs]
        fit = fit_power_law_with_offset(xs, ys)
        assert fit.exponent == pytest.approx(1 / 3, abs=0.08)
        assert fit.offset > 0

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


#: The ten offset fits the docs-profile registry makes (E1: Alice then node
#: max cost; E5: node then Alice cost for each protocol), with the
#: ``(α, c, y₀)`` that scipy's ``curve_fit`` returned for them when the fit
#: used it.
REGISTRY_FITS = [
    ("E1-alice", [2186.0, 6605.0, 19951.0, 60260.0], [1395.0, 1769.0, 2331.0, 3052.0],
     0.2945097278893438, 104.52610652033952, 385.8483718756163),
    ("E1-node", [2186.0, 6605.0, 19951.0, 60260.0], [1859.0, 6371.0, 10512.0, 16937.0],
     0.6591390424298421, 13.487684975002209, 1.5749544011988606e-13),
    ("E5-epsilon-broadcast-node", [724.0, 3161.0, 13802.0, 60260.0], [701.5, 3513.0, 7381.0, 16704.5],
     0.7103143526307937, 7.553054898222966, 4.3339830766044774e-13),
    ("E5-epsilon-broadcast-alice", [724.0, 3161.0, 13802.0, 60260.0], [1348.5, 1335.0, 1786.5, 2979.5],
     0.882831222589742, 0.10385633147129492, 1271.3941932187977),
    ("E5-naive-node", [724.0, 3161.0, 13802.0, 60260.0], [512.0, 2049.0, 8194.0, 32773.0],
     0.9405878726204102, 1.0459715017448965, 3.0522195958052143e-07),
    ("E5-naive-alice", [724.0, 3161.0, 13802.0, 60260.0], [1022.0, 4094.0, 16382.0, 65534.0],
     0.9409899754051984, 2.0827438832170655, 6.014144961799224e-10),
    ("E5-ksy-node", [724.0, 3161.0, 13802.0, 60260.0], [527.5, 2082.0, 8295.0, 33110.0],
     0.9397894591033311, 1.0657358656362517, 8.45203177875486),
    ("E5-ksy-alice", [724.0, 3161.0, 13802.0, 60260.0], [143.0, 302.0, 780.5, 1747.0],
     0.6115403412743585, 2.099474251303403, 23.792458414436982),
    ("E5-balanced-backoff-node", [724.0, 3161.0, 13802.0, 60260.0], [262.5, 579.0, 1203.0, 2705.0],
     0.5291166440793258, 7.900698131111317, 6.181523679580233),
    ("E5-balanced-backoff-alice", [724.0, 3161.0, 13802.0, 60260.0], [293.5, 715.5, 1470.5, 3541.0],
     0.5558650006743026, 7.682091999819153, 9.803949178435246e-15),
]

positive = st.floats(min_value=1e-2, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def positive_series(draw):
    """4–10 points with strictly positive x and y."""

    size = draw(st.integers(4, 10))
    xs = draw(st.lists(positive, min_size=size, max_size=size))
    ys = draw(st.lists(positive, min_size=size, max_size=size))
    return np.array(xs), np.array(ys)


def weighted_sse(x, y, offset, coefficient, exponent):
    """The offset fit's objective: squared residuals weighted by σ = max(y, 1)."""

    residual = (y - offset - coefficient * x**exponent) / np.maximum(y, 1.0)
    return float(np.sum(residual * residual))


def reference_sse(x, y, alphas, iterations=60):
    """The bounded inner minimum at each α, found independently of the fit.

    Minimising over ``c ≥ 1e-12`` in closed form leaves a convex function of
    ``y₀`` alone, which a ternary search over ``[0, max y]`` brackets.
    """

    weights = 1.0 / np.maximum(y, 1.0) ** 2
    u = x[None, :] ** alphas[:, None]
    sum_uu = np.sum(weights * u * u, axis=1)

    def sse(y0):
        c = np.sum(weights * u * (y - y0[:, None]), axis=1) / sum_uu
        residual = y - y0[:, None] - np.maximum(c, 1e-12)[:, None] * u
        return np.sum(weights * residual * residual, axis=1)

    low, high = np.zeros(alphas.size), np.full(alphas.size, y.max())
    for _ in range(iterations):
        left, right = low + (high - low) / 3, high - (high - low) / 3
        keep_left = sse(left) <= sse(right)
        low, high = np.where(keep_left, low, left), np.where(keep_left, right, high)
    return np.minimum(sse(low), sse(high))


class TestOffsetFit:
    """The exact numpy-only ``y ≈ y₀ + c·x^α`` fit (four or more points)."""

    @settings(max_examples=60, deadline=None)
    @given(positive_series())
    def test_fit_stays_within_bounds(self, series):
        x, y = series
        fit = fit_power_law_with_offset(x, y)
        assert 0.0 <= fit.exponent <= 2.0
        assert fit.coefficient >= 1e-12
        assert 0.0 <= fit.offset <= y.max()
        assert fit.n_points == x.size

    @settings(max_examples=60, deadline=None)
    @given(positive_series())
    def test_fit_is_no_worse_than_a_dense_reference_grid(self, series):
        x, y = series
        fit = fit_power_law_with_offset(x, y)
        measured = weighted_sse(x, y, fit.offset, fit.coefficient, fit.exponent)
        # Midpoints of a 1,000-cell grid: none of them is on the fit's first grid.
        alphas = (np.arange(1000) + 0.5) / 500.0
        reference = reference_sse(x, y, alphas).min()
        assert measured <= reference * (1 + 1e-9) + 1e-300

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 100_000), min_size=4, max_size=10, unique=True).filter(
            lambda xs: max(xs) >= 10 * min(xs)
        ),
        st.floats(0.0, 1_000.0),
        st.floats(0.1, 100.0),
        st.floats(0.1, 1.9),
    )
    def test_noise_free_series_recovered(self, xs, offset, coefficient, exponent):
        x = np.array(xs, dtype=float)
        y = offset + coefficient * x**exponent
        fit = fit_power_law_with_offset(x, y)
        assert fit.exponent == pytest.approx(exponent, abs=1e-6)
        assert fit.coefficient == pytest.approx(coefficient, rel=1e-6)
        assert fit.offset == pytest.approx(offset, abs=1e-6 * y.max())

    @pytest.mark.parametrize("exponent", [0.0, 2.0])
    def test_exponent_on_its_bounds(self, exponent):
        x = np.array([3.0, 30.0, 300.0, 3000.0])
        y = 40.0 + 0.5 * x**exponent
        fit = fit_power_law_with_offset(x, y)
        assert weighted_sse(x, y, fit.offset, fit.coefficient, fit.exponent) < 1e-20
        if exponent == 2.0:
            assert fit.exponent == pytest.approx(2.0, abs=1e-6)
            assert fit.coefficient == pytest.approx(0.5, rel=1e-6)
            assert fit.offset == pytest.approx(40.0, abs=1e-6 * y.max())

    @pytest.mark.parametrize(
        "xs, ys",
        [
            ([10.0, 100.0, 1000.0, 10_000.0], [7.0, 7.0, 7.0, 7.0]),
            ([5.0, 5.0, 5.0, 50.0], [100.0, 120.0, 110.0, 400.0]),
            ([5.0, 50.0, 50.0, 50.0], [100.0, 380.0, 400.0, 420.0]),
            ([1.0, 2.0, 3.0, 4.0], [0.2, 0.3, 0.1, 0.4]),
        ],
        ids=["constant-y", "one-large-x", "one-small-x", "y-below-one"],
    )
    def test_degenerate_series(self, xs, ys):
        x, y = np.array(xs), np.array(ys)
        fit = fit_power_law_with_offset(x, y)
        values = (fit.exponent, fit.coefficient, fit.offset, fit.r_squared)
        assert all(math.isfinite(value) for value in values)
        assert 0.0 <= fit.exponent <= 2.0 and fit.coefficient >= 1e-12
        assert 0.0 <= fit.offset <= y.max()
        measured = weighted_sse(x, y, fit.offset, fit.coefficient, fit.exponent)
        reference = reference_sse(x, y, np.linspace(0.0, 2.0, 201)).min()
        assert measured <= reference * (1 + 1e-9) + 1e-300

    def test_repeat_calls_return_identical_floats(self):
        for _, xs, ys, *_ in REGISTRY_FITS:
            assert fit_power_law_with_offset(xs, ys) == fit_power_law_with_offset(xs, ys)

    @pytest.mark.parametrize(
        "xs, ys, exponent, coefficient, offset",
        [fit[1:] for fit in REGISTRY_FITS],
        ids=[fit[0] for fit in REGISTRY_FITS],
    )
    def test_registry_fits_match_curve_fit(self, xs, ys, exponent, coefficient, offset):
        fit = fit_power_law_with_offset(xs, ys)
        assert fit.exponent == pytest.approx(exponent, rel=1e-3)
        assert fit.coefficient == pytest.approx(coefficient, rel=1e-3)
        if offset < 1e-6:
            assert fit.offset == pytest.approx(offset, abs=1e-6)
        else:
            assert fit.offset == pytest.approx(offset, rel=1e-3)

    def test_str_always_shows_offset_and_points(self):
        fit = fit_power_law_with_offset(*REGISTRY_FITS[1][1:3])
        assert fit.offset == 0.0
        assert str(fit) == "y ≈ 0 + 13.5·x^0.659 (R²=0.918, n=4)"


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


class TestCompetitivenessReport:
    @pytest.fixture(scope="class")
    def outcomes(self):
        from repro.adversary import PhaseBlockingAdversary

        results = []
        for cap in (500, 4_000, 16_000, 60_000):
            results.append(
                run_broadcast(
                    n=128, seed=31, adversary=PhaseBlockingAdversary(max_total_spend=cap)
                )
            )
        return results

    def test_report_structure(self, outcomes):
        report = analyze_outcomes(outcomes)
        assert report.protocol == "epsilon-broadcast"
        assert report.predicted_exponent == pytest.approx(1 / 3)
        assert len(report.adversary_spends) == 4
        assert report.alice_fit is not None and report.node_fit is not None
        assert len(report.lines()) >= 2

    def test_measured_exponent_is_strongly_sublinear(self, outcomes):
        report = analyze_outcomes(outcomes)
        assert report.node_exponent is not None
        assert report.node_exponent < 0.85
        assert report.exponent_gap() is not None

    def test_empty_outcomes_rejected(self):
        with pytest.raises(ValueError):
            analyze_outcomes([])

    def test_summarize_ratios(self, outcomes):
        summary = summarize_ratios(outcomes)
        assert summary["runs"] == 4
        assert summary["delivery_fraction_min"] >= 0.9
        assert summary["node_ratio_max"] < 5.0

    def test_summarize_ratios_empty(self):
        assert summarize_ratios([]) == {}
