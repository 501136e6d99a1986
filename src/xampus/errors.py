"""Exception types raised across the package, and its numeric input rules."""

import numpy as np


class XampusError(Exception):
    """Base class for all package-specific failures."""


class GridTooCoarse(XampusError):
    """Simulation grid step violates the oversampling floor."""


class GridTooShort(XampusError):
    """Channel grid does not reach the warped integration bound."""


class OffBand(XampusError):
    """A selected harmonic falls where the pulse spectrum is effectively zero."""


class OrderOverflow(XampusError):
    """SVD model-order estimate exceeds the configured reflector bound."""


class ConditioningFailure(XampusError):
    """An SVD or eigen-solve in a delay estimator did not converge."""


class IllConditioned(XampusError):
    """Amplitude least-squares matrix is numerically singular (near-coincident delays)."""


class AllZero(XampusError):
    """Image normalization impossible: every trace is zero."""


class ParseError(XampusError):
    """Scene file is syntactically invalid or carries unknown keys."""


class InvariantViolation(XampusError):
    """A validated input breaks a documented invariant; message names the check."""


def check_positive(value, what: str) -> None:
    if not 0 < value < np.inf:
        raise InvariantViolation(f"{what} must be finite and positive")


def check_finite(value, what: str) -> None:
    if not np.isfinite(value).all():
        raise InvariantViolation(f"{what} must be finite")


def refuse_overflow(x, what: str):
    """``x``, unless a number in it overflowed: the caller computes it under
    ``np.errstate(over="ignore", invalid="ignore")``, so none warns."""
    if not np.isfinite(x).all():
        raise InvariantViolation(f"{what} overflows")
    return x
