"""Theory utilities: closed-form bounds, concentration helpers, exponent fits."""

from .bounds import (
    TheoremPrediction,
    blocking_round,
    cost_exponent,
    latency_bound,
    no_jamming_alice_cost_bound,
    no_jamming_node_cost_bound,
    predict,
    predicted_alice_cost,
    predicted_node_cost,
    reactive_f_threshold,
)
from .concentration import (
    binomial_confidence_radius,
    bounded_difference_tail,
    chernoff_lower_tail,
    chernoff_upper_tail,
    expected_unique_successes,
    fact1_lower_bound,
)
from .fitting import ExponentFit, PowerLawFit, fit_cost_exponent, fit_power_law
from .stats import TrialSummary, aggregate_records, fraction_meeting, summarize

__all__ = [
    "aggregate_records",
    "binomial_confidence_radius",
    "blocking_round",
    "bounded_difference_tail",
    "chernoff_lower_tail",
    "chernoff_upper_tail",
    "cost_exponent",
    "ExponentFit",
    "expected_unique_successes",
    "fact1_lower_bound",
    "fit_cost_exponent",
    "fit_power_law",
    "fraction_meeting",
    "latency_bound",
    "no_jamming_alice_cost_bound",
    "no_jamming_node_cost_bound",
    "PowerLawFit",
    "predict",
    "predicted_alice_cost",
    "predicted_node_cost",
    "reactive_f_threshold",
    "summarize",
    "TheoremPrediction",
    "TrialSummary",
]
