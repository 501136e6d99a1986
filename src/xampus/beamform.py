"""Nyquist-rate reference pipeline: dynamic-focus delay-and-sum.

This is the conventional digital path the low-rate scheme is measured
against, and doubles as the oracle that materializes the beamformed signal
on the simulation grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _sample_trace(trace: np.ndarray, step: float, t: np.ndarray) -> np.ndarray:
    """Cubic-convolution resampling of a uniformly gridded trace.

    Keys' kernel (a = -0.5): its passband droop is O((f dt)^4), which keeps
    the warped evaluation error orders of magnitude below the quadrature
    tolerance (linear interpolation's O((f dt)^2) droop does not).  Times
    outside the grid return zero; edge neighbors are clamped.
    """
    n = len(trace)
    x = t / step
    inside = (t >= 0.0) & (x <= n - 1)
    xi = np.clip(x[inside], 0.0, n - 1)
    k = np.minimum(xi.astype(int), n - 2)
    u = xi - k
    u2 = u * u
    u3 = u2 * u
    w0 = -0.5 * u3 + u2 - 0.5 * u
    w1 = 1.5 * u3 - 2.5 * u2 + 1.0
    w2 = -1.5 * u3 + 2.0 * u2 + 0.5 * u
    w3 = 0.5 * u3 - 0.5 * u2
    y = (w0 * trace[np.maximum(k - 1, 0)]
         + w1 * trace[k]
         + w2 * trace[k + 1]
         + w3 * trace[np.minimum(k + 2, n - 1)])
    out = np.zeros(len(t))
    out[inside] = y
    return out


def beamform_line(
    ch: ChannelSet,
    alpha: float = 0.0,
    focus_mode: str = "dynamic",
    out_step: float = DEFAULT_OUT_STEP,
    duration: float | None = None,
    num_focal_zones: int | None = None,
) -> BeamformedLine:
    """Delay-and-sum the channel set into one image-line trace.

    Each output sample t has a focal time: t/2 in dynamic focus, or with
    ``num_focal_zones`` the staircase approximation, the line split into that
    many segments that each focus at their center's time over 2.  Element m is
    read where the echo of that focal point lands on it,
    ``t - 2 focal + arrival_time(focal)``; infinity focus reads every element
    at t, with no delays.
    """
    if focus_mode not in ("dynamic", "infinity"):
        raise ValueError(f"unknown focus_mode {focus_mode!r}")
    if num_focal_zones is not None and num_focal_zones < 1:
        raise ValueError("num_focal_zones must be >= 1")
    if out_step < ch.grid_step * (1 - 1e-12):
        raise ValueError("out_step must be >= the simulation grid step")
    if duration is None:
        duration = ch.tau
    n = int(np.floor(duration / out_step + 1e-9)) + 1
    t = np.arange(n) * out_step

    focal = t / 2.0
    if focus_mode == "dynamic" and num_focal_zones is not None:
        edges = np.linspace(0.0, duration, num_focal_zones + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        zone = np.minimum((t / duration * num_focal_zones).astype(int),
                          num_focal_zones - 1)
        focal = centers[zone] / 2.0
    lag = t - 2.0 * focal  # zero in per-sample dynamic focus
    acc = np.zeros(n)
    c = ch.geometry.speed_of_sound
    for trace, delta in zip(ch.samples, ch.geometry.offsets):
        read = t
        if focus_mode == "dynamic":
            read = lag + arrival_time(focal, alpha, delta, c)
        acc += _sample_trace(trace, ch.grid_step, read)
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
