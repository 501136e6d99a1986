"""Shared builders and independent oracles for the test suite."""

import tempfile
from pathlib import Path

import numpy as np

from xampus import (ArrayGeometry, PulseModel, Scatterer, Scene,
                    simulation_grid_step, synthesize_channels)

PULSE = PulseModel(carrier_hz=5.142e6, envelope_sigma=1e-7, amplitude=1.0)
SPEED = 1540.0
# model-order cut for exact synthetic coefficients
SV_THRESHOLD_EXACT = 1e-8


def default_geometry(num_elements=16, pitch=0.3e-3):
    return ArrayGeometry(num_elements=num_elements, pitch=pitch,
                         speed_of_sound=SPEED)


def fresh_dir(tmp_path):
    """A new empty directory under ``tmp_path``.

    Hypothesis runs every example of a test in the same ``tmp_path``; an
    example that truncated a file written by the one before would wait, on
    ext4, for that file's data to reach the disk first.
    """
    return Path(tempfile.mkdtemp(dir=tmp_path))


def random_scene(rng, l_true, tau, margin=4e-6, min_sep=2e-6,
                 refl_range=(0.5, 2.0)):
    """Scene with l_true scatterers whose round trips stay inside the window
    with the given margin and pairwise separation (in round-trip time)."""
    while True:
        trip = np.sort(rng.uniform(margin, tau - margin, l_true))
        if l_true <= 1 or np.min(np.diff(trip)) >= min_sep:
            break
    refl = rng.uniform(*refl_range, l_true)
    scatterers = tuple(Scatterer(axial_time=t / 2.0, reflectivity=r)
                       for t, r in zip(trip, refl))
    return Scene(scatterers=scatterers, tau=tau), trip, refl


def synthesize(scene, geometry, oversample=16, pulse=PULSE):
    return synthesize_channels(scene, geometry, pulse,
                               simulation_grid_step(oversample))


def eval_pulse(model, t):
    """Evaluate h(t); accepts scalars or arrays, even-symmetric in t."""
    t = np.asarray(t, dtype=float)
    return (
        model.amplitude
        * np.exp(-(t**2) / (2.0 * model.envelope_sigma**2))
        * np.cos(2.0 * np.pi * model.carrier_hz * t)
    )


def sample_trace(trace, step, t):
    """Keys' cubic convolution (a = -0.5) of one uniformly gridded trace at
    the times ``t``, one element at a time: the beamformer's oracle.  Times
    outside the grid return zero; edge neighbors are clamped."""
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


def kernel_value(cfg, q, elem, t):
    """Branch kernel s_hat[q, elem] at the times ``t``, the pointwise oracle
    of the kernel bank, as an array of t's shape.

    Branch q < K is the cosine of harmonic ``kappa_pos[q]`` and branch
    q + K its negated sine, taken of the warped phase t - a^2/t and times
    the bracket 1 + (a/t)^2, zero before the step at a = |offset_elem|/c.
    In infinity focus, and for the on-axis element, a = 0: the plain
    harmonic.
    """
    t = np.asarray(t, dtype=float)
    a = cfg.geometry.offset_times[elem] if cfg.focus_mode == "dynamic" else 0.0
    on = t >= a
    ts = t[on]
    phase, bracket = (ts - a * a / ts, 1.0 + (a / ts) ** 2) if a else (ts, 1.0)
    arg = (2.0 * np.pi * cfg.kappa_pos[q % cfg.K] / cfg.tau) * phase
    vals = np.zeros(t.shape)
    vals[on] = bracket * (np.cos(arg) if q < cfg.K else -np.sin(arg))
    return vals


def numeric_ctft(pulse, omega, step=None, span_sigmas=8.0):
    """Dense-grid Fourier integral of the pulse, the spectrum oracle."""
    if step is None:
        step = 1.0 / (64.0 * pulse.carrier_hz)
    half = span_sigmas * pulse.envelope_sigma
    t = np.arange(-half, half + step / 2, step)
    h = pulse.amplitude * np.exp(-t**2 / (2 * pulse.envelope_sigma**2)) \
        * np.cos(2 * np.pi * pulse.carrier_hz * t)
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    return np.array([np.trapezoid(h * np.exp(-1j * w * t), t) for w in omega])


def line_fourier_coeffs(line, k_indices, tau):
    """Direct Fourier coefficients of the tau-periodic line extension:
    (1/tau) * integral over [0, tau] of line(t) exp(-2j pi k t / tau)."""
    n = int(round(tau / line.grid_step))
    t = np.arange(n + 1) * line.grid_step
    v = line.samples[: n + 1]
    out = np.empty(len(k_indices), dtype=complex)
    for i, k in enumerate(k_indices):
        out[i] = np.trapezoid(v * np.exp(-2j * np.pi * k * t / tau), t) / tau
    return out


def cisoid_coeffs(k_indices, tau, delays, amps):
    """Exact y-vector for a known pulse stream: sum_l a_l e^{-2j pi k t_l/tau}."""
    return np.exp((-2j * np.pi / tau) * np.outer(np.asarray(k_indices),
                                                 np.asarray(delays))) \
        @ np.asarray(amps, dtype=complex)
