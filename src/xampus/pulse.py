"""Transmit pulse model: Gaussian-windowed carrier and its closed-form spectrum.

The acquisition model treats every echo as a shifted copy of one known pulse
``h(t) = A exp(-t^2 / 2 sigma^2) cos(2 pi f_c t)``, so the recovery stages only
ever need ``h`` through its continuous-time Fourier transform evaluated at the
selected harmonic frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, OffBand, check_positive

# Relative spectrum magnitude below which a harmonic counts as off-band.
SPECTRUM_FLOOR = 1e-9


@dataclass(frozen=True)
class PulseModel:
    """Gaussian-windowed cosine pulse.

    Parameters
    ----------
    carrier_hz : float
        Carrier frequency f_c in Hz.
    envelope_sigma : float
        Gaussian window standard deviation in seconds.  The pulse decays
        below 1e-6 of its peak beyond ``6 * envelope_sigma``.
    amplitude : float
        Peak amplitude, h(0); finite and nonzero.
    """

    carrier_hz: float = 5.142e6
    envelope_sigma: float = 1e-7
    amplitude: float = 1.0

    def __post_init__(self):
        check_positive(self.carrier_hz, "pulse carrier_hz")
        check_positive(self.envelope_sigma, "pulse envelope_sigma")
        if not (math.isfinite(self.amplitude) and self.amplitude != 0):
            raise InvariantViolation(
                "pulse amplitude must be finite and nonzero")


def pulse_spectrum(model: PulseModel, omega):
    """Closed-form CTFT of the pulse at angular frequency ``omega`` (rad/s).

    For the Gaussian-windowed cosine the transform is the sum of two real
    Gaussians centered at +/- the carrier:

        H(w) = (A sigma sqrt(2 pi) / 2) * [exp(-sigma^2 (w - w_c)^2 / 2)
                                           + exp(-sigma^2 (w + w_c)^2 / 2)]

    Real and even in ``omega`` since h is real and even in t.
    """
    omega = np.asarray(omega, dtype=float)
    sig = model.envelope_sigma
    wc = 2.0 * np.pi * model.carrier_hz
    scale = model.amplitude * sig * np.sqrt(2.0 * np.pi) / 2.0
    return scale * (
        np.exp(-(sig**2) * (omega - wc) ** 2 / 2.0)
        + np.exp(-(sig**2) * (omega + wc) ** 2 / 2.0)
    )


def build_H(model: PulseModel, kappa, tau: float):
    """Diagonal of the pulse-spectrum matrix over the harmonic set ``kappa``.

    Entry i is H(2 pi kappa[i] / tau).  The matrix is diagonal, so it is
    returned as a 1-D array of its diagonal entries, in the iteration order
    of ``kappa``.

    Raises
    ------
    OffBand
        If any entry has magnitude <= ``SPECTRUM_FLOOR`` times the spectrum
        peak, H(2 pi f_c): that harmonic misses the pulse band, and dividing
        by it would make the deconvolution step blow up.
    """
    kappa = np.asarray(kappa)
    diag = pulse_spectrum(model, 2.0 * np.pi * kappa / tau)
    peak = pulse_spectrum(model, 2.0 * np.pi * model.carrier_hz)
    bad = np.abs(diag) <= SPECTRUM_FLOOR * peak
    if np.any(bad):
        k_bad = kappa[bad]
        raise OffBand(
            f"harmonics {k_bad.tolist()} fall below {SPECTRUM_FLOOR:g} of the "
            "spectrum peak"
        )
    return diag
