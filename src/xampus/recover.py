"""Parameter recovery: unmix the branch samples into Fourier coefficients,
then pull delays and amplitudes of the pulse stream out of them.

The positive-half coefficients satisfy

    y[k] = (1/tau) * sum_l b_l exp(-2j pi k t_l / tau)

i.e. a sum of cisoids whose pole phases encode the delays.  Delays come from
either the matrix pencil (with SVD model-order estimation) or an annihilating
filter; amplitudes are a linear least-squares fit given the delays.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ConditioningFailure, IllConditioned, InvariantViolation,
                     OrderOverflow, SingularSystem)
from .pulse import PulseModel, build_H
from .xample import MixingMatrix, XampleConfig, build_S

# sigma_i / sigma_1 above this counts toward the model order; 1e-2 suits data
# with noise or quadrature error, 1e-8 suits exact synthetic coefficients.
SV_THRESHOLD_DEFAULT = 1e-2
SV_THRESHOLD_EXACT = 1e-8

_COND_LIMIT = 1e10


@dataclass
class FourierCoeffs:
    """Positive-half harmonics of the beamformed line.

    ``phi`` holds the raw unmixed coefficients of the line itself;
    ``y`` has the pulse spectrum divided out and is what the delay
    estimators consume.
    """

    y: np.ndarray
    kappa_pos: np.ndarray
    tau: float
    phi: np.ndarray | None = None


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
    disagree or c is not finite.
    """
    c = np.asarray(c, dtype=complex)
    H = np.asarray(H)
    kappa = np.asarray(kappa)
    p = S.num_branches
    if p != len(kappa):
        raise InvariantViolation(
            f"mixing matrix columns {p} != |kappa| {len(kappa)}")
    if H.shape != kappa.shape:
        raise InvariantViolation(
            f"pulse spectrum H shape {H.shape} != kappa shape {kappa.shape}")
    if c.shape != (p,):
        raise InvariantViolation(
            f"branch samples shape {c.shape} != ({p},) mixing matrix rows")
    if not np.all(np.isfinite(c)):
        raise InvariantViolation("branch samples must be finite")
    K = p // 2
    phi = c[:K] + 1j * c[K:]
    return FourierCoeffs(y=phi / H[:K], kappa_pos=kappa[:K], tau=tau, phi=phi)


def _delays_from_poles(z: np.ndarray, tau: float) -> np.ndarray:
    frac = (-np.angle(z) / (2.0 * np.pi)) % 1.0
    return np.sort(frac * tau)


def pencil_split(K: int, L_max: int) -> int:
    """Hankel split ``eta`` of K coefficients: K//3 clamped into [L_max,
    K - L_max], a single point at K = 2*L_max; ``ValueError`` below that."""
    if K < 2 * L_max:
        raise ValueError(f"K={K} coefficients leave no pencil split for "
                         f"L_max={L_max}; need K >= {2 * L_max}")
    return min(max(K // 3, L_max), K - L_max)


def estimate_order(y, L_max: int, sv_threshold: float = SV_THRESHOLD_DEFAULT):
    """Model order: the count of singular values of the Hankel split at
    ``pencil_split`` whose ratio to the largest exceeds ``sv_threshold``
    (0 for all-zero data).

    The SVD is taken of the Hankel's triangular factor R (Chan's R-SVD):
    H = QR with Q orthonormal, so R has the singular values and right
    singular vectors of H, and the left factor of H, which no caller reads,
    is never formed.

    Returns (order, singular values, right singular vectors).  Raises
    ``OrderOverflow`` if the order exceeds ``L_max`` and
    ``ConditioningFailure`` if the SVD does not converge.
    """
    u = np.asarray(y, dtype=complex)
    eta = pencil_split(len(u), L_max)
    # the (K - eta) x (eta + 1) Hankel matrix, rows u[i:i+eta+1], as a view
    hankel = np.lib.stride_tricks.sliding_window_view(u, eta + 1)
    try:
        R = np.linalg.qr(hankel, mode="r")
        _, s, Vh = np.linalg.svd(R, full_matrices=False)
    except np.linalg.LinAlgError as e:
        raise ConditioningFailure(f"SVD did not converge: {e}") from e
    order = int(np.sum(s / s[0] > sv_threshold)) if s[0] > 0.0 else 0
    if order > L_max:
        raise OrderOverflow(
            f"{order} singular values above threshold {sv_threshold:g}, "
            f"bound is {L_max}"
        )
    return order, s, Vh


def matrix_pencil(coeffs: FourierCoeffs,
                  sv_threshold: float = SV_THRESHOLD_DEFAULT,
                  L_max: int | None = None):
    """Delay estimation via the shifted-pencil eigenproblem.

    Estimates the model order from the singular-value profile of the
    coefficient Hankel matrix (``estimate_order``; ``L_max`` defaults to
    K//2) and reads delays off the signal-subspace shift eigenvalues.

    Returns (delays ascending, full singular-value list).

    Raises ``OrderOverflow`` if more than ``L_max`` singular values clear the
    threshold, and ``ConditioningFailure`` if the eigen-solve fails.
    """
    if L_max is None:
        L_max = len(coeffs.y) // 2
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
    """Delay estimation via the annihilating (Prony) filter.

    Solves the Toeplitz system for the length-``L_est`` filter whose zeros
    sit on the coefficient poles, then maps root phases to delays.  Needs
    K >= 2 * L_est coefficients.
    """
    u = np.asarray(coeffs.y, dtype=complex)
    K = len(u)
    if L_est < 1:
        raise ValueError("L_est must be >= 1")
    if K < 2 * L_est:
        raise ValueError(f"need K >= 2*L_est, got K={K}, L_est={L_est}")
    # T[r, c] = u[L_est - 1 + r - c]
    T = u[np.arange(L_est - 1, K - 1)[:, None] - np.arange(L_est)]
    rhs = -u[L_est:]
    coef, _, rank, _ = np.linalg.lstsq(T, rhs, rcond=None)
    if rank < L_est:
        raise SingularSystem(
            f"annihilation system rank {rank} < {L_est}"
        )
    z = np.roots(np.concatenate([[1.0], coef]))
    return _delays_from_poles(z, coeffs.tau)


def least_squares_amplitudes(coeffs: FourierCoeffs,
                             delays) -> tuple[np.ndarray, float]:
    """Amplitudes fitting y = V(t) a for the given delays, in y units.

    V has entries exp(-2j pi k t_l / tau) over the actual harmonic indices.
    Returns (a, residual): the real parts of the fit and |y - V a| / |y|,
    0 when y is zero (with no delays, 1 for any nonzero y).  A warning is
    emitted when the imaginary residue exceeds 1e-3 of the real scale (a
    symptom of mismatched delays).
    """
    delays = np.asarray(delays, dtype=float)
    y = np.asarray(coeffs.y)
    norm = np.linalg.norm(y)
    if delays.size == 0:
        return np.zeros(0), 0.0 if norm == 0 else 1.0
    if len(set(delays.tolist())) != delays.size:
        raise ValueError("delays must be distinct")
    if delays.size > len(y):
        raise ValueError("more delays than coefficients")
    V = np.exp((-2j * np.pi / coeffs.tau) * np.outer(coeffs.kappa_pos, delays))
    a, _, _, sv = np.linalg.lstsq(V, y, rcond=None)
    if sv[0] > _COND_LIMIT * sv[-1]:  # 2-norm condition number of V
        raise IllConditioned(
            f"amplitude system condition exceeds {_COND_LIMIT:g} "
            "(near-coincident delays)"
        )
    real_scale = max(np.max(np.abs(a.real)), np.finfo(float).tiny)
    if np.max(np.abs(a.imag)) / real_scale > 1e-3:
        warnings.warn("amplitude solution has significant imaginary residue",
                      RuntimeWarning, stacklevel=2)
    if norm == 0:
        return a.real, 0.0
    return a.real, float(np.linalg.norm(y - V @ a.real) / norm)


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
        raise ValueError(f"unknown method {method!r}")
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
