"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class QuadratureError(ArithmeticError):
    """The quadrature rule could not certify the requested tolerance."""


class DivergenceError(ArithmeticError):
    """A requested integral or limit does not converge to a finite value.

    Carries the truncated evaluations that witnessed the divergence so
    callers can report *how* the quantity blows up, not merely that it does.

    Attributes
    ----------
    diagnostics : dict
        Keys ``deltas`` (truncation points), ``values`` (truncated
        integrals), ``slope`` (growth per unit of the iterated-log scale
        over the last window), and free-form ``note``.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class CovarianceError(ArithmeticError):
    """A covariance matrix is not positive definite within jitter policy."""
