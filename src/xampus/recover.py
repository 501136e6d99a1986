"""Parameter recovery: unmix the branch samples into Fourier coefficients,
then pull delays and amplitudes of the pulse stream out of them.

The positive-half coefficients satisfy

    y[k] = (1/tau) * sum_l b_l exp(-2j pi k t_l / tau)

i.e. a sum of cisoids whose pole phases encode the delays.  Both delay
estimators, the matrix pencil and the annihilating filter, read the SVD of a
coefficient Hankel matrix; amplitudes are a linear least-squares fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConditioningFailure, IllConditioned, InvariantViolation,
                     OrderOverflow, check_finite, refuse_overflow)
from .pulse import PulseModel, build_H
from .xample import MixingMatrix, XampleConfig, build_S

# sigma_i / sigma_1 above this counts toward the model order; 1e-2 suits data
# with noise or quadrature error, ~1e-8 suits exact synthetic coefficients.
SV_THRESHOLD_DEFAULT = 1e-2

_COND_LIMIT = 1e10


@dataclass
class FourierCoeffs:
    """Positive-half harmonics of the beamformed line with the pulse
    spectrum divided out: ``y`` is what the delay estimators consume."""

    y: np.ndarray
    kappa_pos: np.ndarray
    tau: float


@dataclass
class LineEstimate:
    """Recovered pulse stream for one image line."""

    delays: np.ndarray
    amplitudes: np.ndarray
    model_order: int
    singular_values: np.ndarray
    residual: float


def recover_fourier(c, S: MixingMatrix, H, kappa, tau: float) -> FourierCoeffs:
    """Unmix branch samples and deconvolve the pulse spectrum.

    ``H`` is the diagonal of the pulse-spectrum matrix over the full kappa
    (as returned by ``build_H``).  The paired S maps the harmonics [phi,
    conj phi] of a real line to the branch samples [Re phi, Im phi], so its
    inverse is phi = c[:K] + j c[K:]: O(K) with no factorization, below the
    K*p of a stored inverse that ``costs.xampled_ops`` counts.  The negative
    half of phi is conjugate-redundant and is not formed.  H is divided out.

    Raises ``InvariantViolation`` when the shapes of S, H, kappa and c
    disagree, c is not finite or y overflows.
    """
    c = np.asarray(c, dtype=complex)
    H = np.asarray(H)
    kappa = np.asarray(kappa)
    p = S.p
    if p != len(kappa):
        raise InvariantViolation(
            f"mixing matrix columns {p} != |kappa| {len(kappa)}")
    if H.shape != kappa.shape:
        raise InvariantViolation(
            f"pulse spectrum H shape {H.shape} != kappa shape {kappa.shape}")
    if c.shape != (p,):
        raise InvariantViolation(
            f"branch samples shape {c.shape} != ({p},) mixing matrix rows")
    check_finite(c, "branch samples")
    K = p // 2
    phi = c[:K] + 1j * c[K:]
    with np.errstate(over="ignore", invalid="ignore"):
        y = refuse_overflow(phi / H[:K], "Fourier coefficient y")
    return FourierCoeffs(y=y, kappa_pos=kappa[:K], tau=tau)


def _delays_from_poles(z: np.ndarray, tau: float) -> np.ndarray:
    frac = (-np.angle(z) / (2.0 * np.pi)) % 1.0
    return np.sort(frac * tau)


def pencil_split(K: int, L_max: int) -> int:
    """Hankel split ``eta`` of K coefficients: K//3 clamped into [L_max,
    K - L_max], a single point at K = 2*L_max; ``InvariantViolation`` below."""
    if K < 2 * L_max:
        raise InvariantViolation(f"K={K} coefficients leave no pencil split "
                                 f"for L_max={L_max}; need K >= {2 * L_max}")
    return min(max(K // 3, L_max), K - L_max)


def _peak_exponent(y) -> int:
    """The exponent of y's peak, at least -1022: ``y / 2**exponent`` has its
    peak in [0.5, 1), and ``2.0**-exponent`` is a finite float."""
    return max(math.frexp(np.abs(y).max(initial=0.0))[1], -1022)


def _hankel_svd(u: np.ndarray, width: int):
    """Singular values and square right-singular-vector matrix ``Vh`` of the
    Hankel with rows ``u[i:i+width]``, by Chan's R-SVD: H = QR with Q
    orthonormal, so the triangular R has H's singular values and right
    singular vectors, and the left factor, which no caller reads, is never
    formed.  ``Vh`` is full, so a wide Hankel's null vector is its last row.

    The Hankel is first divided by the power of two of u's peak, exactly,
    so LAPACK works in range however large or small u is; returns
    ``(s, Vh, exponent)`` with the singular values in that scale, H's being
    ``s * 2**exponent``.  Raises ``ConditioningFailure`` if the SVD does
    not converge.
    """
    exponent = _peak_exponent(u)
    scaled = np.ldexp(1.0, -exponent) * u
    hankel = np.lib.stride_tricks.sliding_window_view(scaled, width)
    try:
        R = np.linalg.qr(hankel, mode="r")
        _, s, Vh = np.linalg.svd(R)
    except np.linalg.LinAlgError as e:
        raise ConditioningFailure(f"SVD did not converge: {e}") from e
    return s, Vh, exponent


def check_sv_threshold(sv_threshold: float) -> None:
    """Raises ``InvariantViolation`` unless 0 < ``sv_threshold`` < 1: a
    singular-value ratio is at most 1, so no other cut selects an order."""
    if not 0 < sv_threshold < 1:
        raise InvariantViolation(
            f"sv threshold {sv_threshold!r} must be in (0, 1)")


def estimate_order(y, L_max: int, sv_threshold: float = SV_THRESHOLD_DEFAULT):
    """Model order: the count of singular values of the Hankel split at
    ``pencil_split`` whose ratio to the largest exceeds ``sv_threshold``
    (0 for all-zero data).

    Returns (order, singular values, right singular vectors).  Raises
    ``InvariantViolation`` for a threshold that ``check_sv_threshold``
    refuses or singular values beyond the float range, ``OrderOverflow`` if
    the order exceeds ``L_max`` and ``ConditioningFailure`` if the SVD does
    not converge.
    """
    check_sv_threshold(sv_threshold)
    u = np.asarray(y, dtype=complex)
    s, Vh, exponent = _hankel_svd(u, pencil_split(len(u), L_max) + 1)
    order = int(np.sum(s / s[0] > sv_threshold)) if s[0] > 0.0 else 0
    if order > L_max:
        raise OrderOverflow(
            f"{order} singular values above threshold {sv_threshold:g}, "
            f"bound is {L_max}"
        )
    with np.errstate(over="ignore"):
        s = refuse_overflow(np.ldexp(s, exponent), "Hankel singular value")
    return order, s, Vh[:len(s)]


def matrix_pencil(coeffs: FourierCoeffs, L_max: int,
                  sv_threshold: float = SV_THRESHOLD_DEFAULT):
    """Delay estimation via the shifted-pencil eigenproblem.

    Estimates the model order from the singular-value profile of the
    coefficient Hankel matrix (``estimate_order``) and reads delays off the
    signal-subspace shift eigenvalues.

    Returns (delays ascending, full singular-value list).

    Raises ``OrderOverflow`` if more than ``L_max`` singular values clear the
    threshold, and ``ConditioningFailure`` if the eigen-solve fails.
    """
    order, s, Vh = estimate_order(coeffs.y, L_max, sv_threshold)
    if order == 0:
        return np.zeros(0), s

    # Right singular vectors conjugated span the Vandermonde row space; the
    # one-step shift between their leading/trailing rows carries the poles.
    W = Vh[:order].T
    try:
        z = np.linalg.eigvals(np.linalg.pinv(W[:-1]) @ W[1:])
    except np.linalg.LinAlgError as e:
        raise ConditioningFailure(f"pencil eigen-solve failed: {e}") from e
    return _delays_from_poles(z, coeffs.tau), s


def annihilating_filter(coeffs: FourierCoeffs, L_est: int) -> np.ndarray:
    """Delay estimation via the annihilating filter, taken in total least
    squares: the right singular vector of the (K - L_est) x (L_est + 1)
    Hankel for its smallest singular value, whose zeros sit on the
    coefficient poles.  Needs K >= 2 * L_est coefficients, not all zero.
    Asked for more poles than the data hold, it returns spurious roots, as
    noisy data can; ``recover_line`` takes ``L_est`` from ``estimate_order``.
    """
    u = np.asarray(coeffs.y, dtype=complex)
    K = len(u)
    if L_est < 1:
        raise InvariantViolation("L_est must be >= 1")
    if K < 2 * L_est:
        raise InvariantViolation(f"need K >= 2*L_est, got K={K}, L_est={L_est}")
    if not np.any(u):
        raise InvariantViolation("annihilating filter of all-zero coefficients")
    _, Vh, _ = _hankel_svd(u, L_est + 1)
    # H v = 0 for v = conj(Vh[-1]): sum_m v[m] z^m vanishes at every pole
    z = np.roots(Vh[-1].conj()[::-1])
    return _delays_from_poles(z, coeffs.tau)


def least_squares_amplitudes(coeffs: FourierCoeffs,
                             delays) -> tuple[np.ndarray, float]:
    """Amplitudes fitting y = V(t) a for the given delays, in y units.

    V has entries exp(-2j pi k t_l / tau) over the actual harmonic indices.
    Returns (a, residual): the real parts of the fit and |y - V a| / |y|,
    0 when y is zero (with no delays, 1 for any nonzero y).  The residual
    includes the dropped imaginary parts: the complex fit's misfit is
    orthogonal to the range of V, so residual^2 = |y - V a_c|^2 / |y|^2
    + |V Im a_c|^2 / |y|^2 for the complex solution a_c.  Raises
    ``IllConditioned`` when V's condition number exceeds 1e10, equal or
    near-coincident delays included.
    """
    delays = np.asarray(delays, dtype=float)
    y = np.asarray(coeffs.y)
    # norms of y over a power of two near its peak: exact, and no overflow
    scale = np.ldexp(1.0, -_peak_exponent(y))
    norm = np.linalg.norm(y * scale)
    if delays.size == 0:
        return np.zeros(0), 0.0 if norm == 0 else 1.0
    if delays.size > len(y):
        raise InvariantViolation("more delays than coefficients")
    V = np.exp((-2j * np.pi / coeffs.tau) * np.outer(coeffs.kappa_pos, delays))
    a, _, _, sv = np.linalg.lstsq(V, y, rcond=None)
    if sv[0] > _COND_LIMIT * sv[-1]:  # 2-norm condition number of V
        raise IllConditioned(
            f"amplitude system condition exceeds {_COND_LIMIT:g} "
            "(near-coincident delays)"
        )
    misfit = np.linalg.norm((y - V @ a.real) * scale) / norm if norm else 0.0
    return a.real, float(misfit)


def recover_line(c, cfg: XampleConfig, pulse: PulseModel,
                 method: str = "pencil",
                 sv_threshold: float = SV_THRESHOLD_DEFAULT,
                 S: MixingMatrix | None = None) -> LineEstimate:
    """Full per-line chain: unmix, estimate delays, fit amplitudes.

    Amplitudes are rescaled by tau so they are in the units of the pulse
    stream itself (the 1/tau of the Fourier-coefficient convention divides
    out), matching what a direct fit of the beamformed line would give.
    """
    if method not in ("pencil", "annihilating"):
        raise InvariantViolation(f"unknown method {method!r}")
    if S is None:
        S = build_S(cfg.p)
    H = build_H(pulse, cfg.kappa, cfg.tau)
    coeffs = recover_fourier(c, S, H, cfg.kappa, cfg.tau)

    if method == "pencil":
        delays, sv = matrix_pencil(coeffs, sv_threshold=sv_threshold,
                                   L_max=cfg.L)
    else:
        # the pencil's order estimate, handed to the annihilating filter
        order, sv, _ = estimate_order(coeffs.y, cfg.L, sv_threshold)
        delays = (annihilating_filter(coeffs, order) if order > 0
                  else np.zeros(0))

    amps, residual = least_squares_amplitudes(coeffs, delays)
    return LineEstimate(delays=delays, amplitudes=amps * cfg.tau,
                        model_order=delays.size, singular_values=sv,
                        residual=residual)
