"""Exception hierarchy and warning labels used across the package."""

from __future__ import annotations

import numpy as np


class VqtError(Exception):
    """Base class for all package errors."""


class ValidationError(VqtError):
    """Input rejected before any numerics ran (CLI exit code 2)."""


class NonPositive(ValidationError):
    """A parameter that must be strictly positive is not."""


class Unstable(ValidationError):
    """Arrival rate at or above total post-threshold capacity (lambda >= c*mu2)."""


class Degenerate(ValidationError):
    """Parameters sit on (or too close to) a set where eigenvalues collide.

    Carries the condition that fired and a suggested perturbed parameter set
    that clears the guard.
    """

    def __init__(self, condition: str, suggestion: dict | None = None):
        self.condition = condition
        self.suggestion = suggestion or {}
        msg = f"degenerate parameters: {condition}"
        if suggestion:
            msg += f" (suggested perturbation: {suggestion})"
        super().__init__(msg)


class NumericalError(VqtError):
    """Numerics broke down on admissible input (CLI exit code 3)."""


class Singular(NumericalError):
    """A pivot fell below the singularity threshold during elimination
    (``numerics``), or LAPACK found the bordered boundary system exactly
    singular (``solver._row_solve``)."""


class NullSpaceDimension(NumericalError):
    """Null space of a boundary matrix is not one-dimensional (degeneracy leak)."""


class NegativeProbability(NumericalError):
    """A boundary probability came out below -1e-8; the pipeline broke down."""


class DivergentIntegral(NumericalError):
    """Integral to infinity requested for a matrix with a nonnegative eigenvalue."""


class RowErrors(VqtError):
    """Failures of rows of a stack of points: ``errors`` maps each failing
    row to the error its own solve raises (see ``solver.solve_rows``)."""

    def __init__(self, errors: dict[int, VqtError]):
        self.errors = errors
        super().__init__(f"{len(errors)} rows failed")


def fail(bad, error_of) -> None:
    """Raise error_of(()) if a single point's check is bad, or RowErrors with
    error_of(i) for every row i of a stack where it is."""
    if not isinstance(bad, np.ndarray) or not bad.ndim:
        if bad:
            raise error_of(())
    elif np.count_nonzero(bad):
        raise RowErrors({i: error_of(i) for i in np.flatnonzero(bad).tolist()})


class PoleParameter(ValidationError):
    """Single-server closed form degenerates at mu2 - mu1 - lambda = 0."""


# Warning label attached to results when an eigenvector basis is nearly
# singular: the solve still completes but loses digits.
ILL_CONDITIONED = "IllConditioned"
