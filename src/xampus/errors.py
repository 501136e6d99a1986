"""Exception types raised across the package."""


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
