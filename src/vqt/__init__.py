"""Exact stationary analysis of M/M/c queues whose service rate depends on
whether the customer's queueing delay at arrival exceeds a threshold, plus
closed-form reference models and a discrete-event simulation oracle.

``import vqt`` loads the analytic pipeline only.  The simulation oracle
(``vqt.simulator``) and the closed-form references (``vqt.reference``) load
on first use of a name they export, or of the module itself (PEP 562).
"""

import importlib

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
from .solver import (
    ResidualReport,
    ScalarMixture,
    StationarySolution,
    eval_cdf,
    eval_density,
    mean_wait,
    solve,
    verify_solution,
)

__version__ = "0.1.0"

__all__ = [
    "QueueParams", "validate_params", "inspect_params",
    "ModelMatrices", "build_matrices",
    "solve", "StationarySolution", "eval_cdf", "eval_density",
    "mean_wait", "verify_solution",
    "ScalarMixture", "ResidualReport",
    "single_server", "erlang_c", "SingleServerSolution", "ErlangCSolution",
    "simulate", "simulate_replicated", "SimConfig", "SimEstimate", "Estimate",
    "VqtError", "ValidationError", "NonPositive", "Unstable", "Degenerate",
    "NumericalError", "Singular", "NullSpaceDimension",
    "NegativeProbability", "DivergentIntegral", "PoleParameter",
]

# A solve or sweep never calls these, and importing them costs about a fifth
# of vqt's own import time: name -> the submodule that defines it.
_LAZY = {
    **dict.fromkeys(("simulate", "simulate_replicated", "SimConfig", "SimEstimate",
                     "Estimate"), "simulator"),
    **dict.fromkeys(("erlang_c", "single_server", "ErlangCSolution",
                     "SingleServerSolution"), "reference"),
}


def __getattr__(name):
    if name in _LAZY.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY.values()})
