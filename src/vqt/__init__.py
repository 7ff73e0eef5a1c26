"""Exact stationary analysis of M/M/c queues whose service rate depends on
whether the customer's queueing delay at arrival exceeds a threshold, plus
closed-form reference models and a discrete-event simulation oracle."""

from .errors import (
    Degenerate,
    DivergentIntegral,
    NegativeProbability,
    NonPositive,
    NullSpaceDimension,
    NumericalError,
    PoleParameter,
    Singular,
    Unstable,
    ValidationError,
    VqtError,
)
from .model import ModelMatrices, QueueParams, build_matrices, inspect_params, validate_params
from .reference import ErlangCSolution, SingleServerSolution, erlang_c, single_server
from .simulator import Estimate, SimConfig, SimEstimate, simulate, simulate_replicated
from .solver import (
    ResidualReport,
    ScalarMixture,
    StationarySolution,
    eval_cdf,
    eval_density,
    mean_wait,
    scalar_mixture,
    solve,
    verify_solution,
)

__version__ = "0.1.0"

__all__ = [
    "QueueParams", "validate_params", "inspect_params",
    "ModelMatrices", "build_matrices",
    "solve", "StationarySolution", "eval_cdf", "eval_density",
    "mean_wait", "scalar_mixture", "verify_solution",
    "ScalarMixture", "ResidualReport",
    "single_server", "erlang_c", "SingleServerSolution", "ErlangCSolution",
    "simulate", "simulate_replicated", "SimConfig", "SimEstimate", "Estimate",
    "VqtError", "ValidationError", "NonPositive", "Unstable", "Degenerate",
    "NumericalError", "Singular", "NullSpaceDimension",
    "NegativeProbability", "DivergentIntegral", "PoleParameter",
]
