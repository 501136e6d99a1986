"""Sampling-rate and operation-count accounting for both acquisition paths.

One "op" is one multiply-accumulate.  The low-rate path's count is a sum of
the pipeline's linear-algebra blocks (branch fold, unmixing, Hankel SVD and
rank-L reconstructions, pencil pseudoinverse/product/eig, amplitude least
squares) evaluated at the pencil split eta = K/3 the shapes assume.  The
standard path counts the delay-and-sum adds plus two FFTs for envelope
detection.

The unmixing term, K*p, is the cost of applying a stored inverse of S.  The
paired S is unmixed below that, in O(K) by its closed-form inverse
phi = c[:K] + j c[K:] with no factorization or stored matrix
(``recover_fourier``), so the model's unmixing term is an upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .sim import NYQUIST_RATE_HZ
from .xample import harmonic_count

DEFAULT_DEPTH_M = 0.0788
SPEED_OF_SOUND = 1540.0
DEFAULT_NUM_ELEMENTS = 16
_MAX_SAMPLES = 2.0**53


def sample_counts(L: int, rho: float) -> tuple[int, int]:
    """(K, samples per element per line) for a reflector bound and oversampling.

    K = 2 rho L positive-half coefficients (``xample.harmonic_count``, which
    raises ``InvariantViolation`` for an L or rho the kernel bank refuses);
    doubling for the mirrored harmonics makes the per-element sample count
    2K = 4 rho L.
    """
    K = harmonic_count(L, rho)
    return K, 2 * K


def xampled_ops(L: int, K: int, p: int, M: int) -> float:
    """Operation count of the low-rate recovery for one image line.

    Block sum with the Hankel split at K/3 (data matrix 2K/3 x K/3):
    branch-output fold, coefficient unmixing, SVD, two rank-L
    reconstructions, pseudoinverse, pencil product, eigendecomposition, and
    the amplitude least squares (two K*L products plus the pseudoinverse of
    the K x L system).
    """
    k23 = 2.0 * K / 3.0
    k13 = K / 3.0
    fold = (p - 1) * (2 * M + 1)
    unmix = K * p
    svd = k23 * k13**2
    rank_l = 2.0 * (k23 * L * L + L * L * k13)
    pinv = k23**3 + k13**3
    pencil_product = k23 * k13**2
    eig = k13**3
    least_squares = 2.0 * K * L + K**3 + L**3
    return fold + unmix + svd + rank_l + pinv + pencil_product + eig \
        + least_squares


def standard_samples(depth_m: float = DEFAULT_DEPTH_M) -> int:
    """Per-element samples per line for a round trip to the given depth, at
    ``sim.NYQUIST_RATE_HZ`` and ``SPEED_OF_SOUND``."""
    if not 0 < depth_m < math.inf:
        raise InvariantViolation(f"depth_m {depth_m!r} must be finite and "
                                 "positive")
    samples = 2.0 * depth_m / SPEED_OF_SOUND * NYQUIST_RATE_HZ
    # beyond 2**53 the count is no longer an exact integer, and standard_ops
    # would take the log of an int past int64
    if not samples <= _MAX_SAMPLES:
        raise InvariantViolation(f"a round trip to {depth_m!r} m takes "
                                 f"{samples:g} samples, above 2**53")
    if round(samples) < 1:
        raise InvariantViolation(f"a round trip to {depth_m!r} m takes "
                                 f"{samples:g} samples, below one")
    return int(round(samples))


def standard_ops(samples_per_line: int, num_elements: int) -> float:
    """Delay-and-sum adds plus two FFTs (Hilbert envelope) per line."""
    for name, value in (("samples_per_line", samples_per_line),
                        ("num_elements", num_elements)):
        if value < 1:
            raise InvariantViolation(f"{name} {value!r} must be >= 1")
    adds = samples_per_line * (num_elements - 1)
    hilbert = 2.0 * samples_per_line * np.log2(samples_per_line)
    return adds + hilbert


@dataclass
class CostRow:
    L: int
    rho: float
    K: int
    samples_per_element_per_line: int
    xampled_mops: float
    reduction_factor: float
    standard_samples: int
    standard_mops: float


def cost_table(L: int, rhos, num_elements: int = DEFAULT_NUM_ELEMENTS,
               depth_m: float = DEFAULT_DEPTH_M) -> list[CostRow]:
    """One row per oversampling factor, with the standard path for scale."""
    std_samples = standard_samples(depth_m)
    std_mops = standard_ops(std_samples, num_elements) / 1e6
    M = num_elements // 2
    rows = []
    for rho in rhos:
        K, samples = sample_counts(L, rho)
        ops = xampled_ops(L, K, 2 * K, M) / 1e6
        rows.append(CostRow(
            L=L, rho=rho, K=K, samples_per_element_per_line=samples,
            xampled_mops=ops, reduction_factor=std_samples / samples,
            standard_samples=std_samples, standard_mops=std_mops,
        ))
    return rows
