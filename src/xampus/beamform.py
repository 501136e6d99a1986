"""Nyquist-rate reference pipeline: dynamic-focus delay-and-sum.

This is the conventional digital path the low-rate scheme is measured
against, and doubles as the oracle that materializes the beamformed signal
on the simulation grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .geometry import arrival_time
from .sim import NYQUIST_RATE_HZ, ChannelSet

DEFAULT_OUT_STEP = 1.0 / NYQUIST_RATE_HZ


@dataclass
class BeamformedLine:
    samples: np.ndarray
    grid_step: float

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.samples)) * self.grid_step


def beamform_line(
    ch: ChannelSet,
    alpha: float = 0.0,
    focus_mode: str = "dynamic",
    out_step: float = DEFAULT_OUT_STEP,
    duration: float | None = None,
) -> BeamformedLine:
    """Delay-and-sum the channel set into one image-line trace.

    Dynamic focus reads element m at ``arrival_time(t/2)``, where the echo of
    the focal point t/2 lands on it; infinity focus reads it at t.  Each read
    is Keys' cubic convolution (a = -0.5) of the element's row: its passband
    droop is O((f dt)^4), which keeps the warped evaluation error orders of
    magnitude below the quadrature tolerance (linear interpolation's
    O((f dt)^2) droop does not).  Reads outside the grid are zero; edge
    neighbors are clamped.  Elements are read in blocks of at most
    ``grid_len`` reads, so the temporaries stay the size of one channel row,
    and added to the line in element order."""
    if focus_mode not in ("dynamic", "infinity"):
        raise InvariantViolation(f"unknown focus_mode {focus_mode!r}")
    if out_step < ch.grid_step * (1 - 1e-12):
        raise InvariantViolation("out_step must be >= the grid step")
    if duration is None:
        duration = ch.tau
    n = int(np.floor(duration / out_step + 1e-9)) + 1
    t = np.arange(n) * out_step

    focal = t / 2.0
    acc = np.zeros(n)
    c = ch.geometry.speed_of_sound
    offsets = ch.geometry.offsets
    size = ch.grid_len
    flat = ch.samples.ravel()
    block = max(1, size // n)
    for lo in range(0, len(offsets), block):
        rows = np.arange(lo, min(lo + block, len(offsets)))[:, None]
        if focus_mode == "dynamic":
            x = arrival_time(focal, alpha, offsets[rows], c)
        else:
            x = np.broadcast_to(t, (len(rows), n))
        x = x / ch.grid_step
        inside = (x >= 0.0) & (x <= size - 1)
        np.clip(x, 0.0, size - 1, out=x)
        k = np.minimum(x.astype(np.intp), size - 2)
        u = x - k
        u2 = u * u
        u3 = u2 * u
        # k indexes the flattened rows; the taps k-1 and k+2 are clamped to
        # the element's own row.  The sum w0 g0 + w1 g1 + w2 g2 + w3 g3 runs
        # in that order, so each row is bitwise that of one element alone
        base = rows * size
        k += base
        y = (-0.5 * u3 + u2 - 0.5 * u) * flat[np.maximum(k - 1, base)]
        y += (1.5 * u3 - 2.5 * u2 + 1.0) * flat[k]
        y += (-1.5 * u3 + 2.0 * u2 + 0.5 * u) * flat[k + 1]
        y += (0.5 * u3 - 0.5 * u2) * flat[np.minimum(k + 2, base + size - 1)]
        y[~inside] = 0.0
        for row in y:
            acc += row
    return BeamformedLine(samples=acc, grid_step=out_step)


def envelope_detect(line: BeamformedLine) -> np.ndarray:
    """Magnitude of the analytic signal: bins 1..(n-1)//2 doubled, bin 0 and
    the Nyquist bin (even n) kept, the negative half zeroed."""
    n = len(line.samples)
    if n == 0:
        return np.zeros(0)
    spectrum = np.zeros(n, dtype=complex)
    spectrum[:n // 2 + 1] = np.fft.rfft(line.samples)
    spectrum[1:(n + 1) // 2] *= 2.0
    return np.abs(np.fft.ifft(spectrum))
