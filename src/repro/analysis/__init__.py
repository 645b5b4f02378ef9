"""Theory utilities: closed-form bounds, exponent fits, trial statistics."""

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
from .fitting import ExponentFit, PowerLawFit, fit_cost_exponent, fit_power_law
from .stats import TrialSummary, aggregate_records, fraction_meeting, summarize

__all__ = [
    "aggregate_records",
    "blocking_round",
    "cost_exponent",
    "ExponentFit",
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
