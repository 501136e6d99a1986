"""Synthetic per-element channel signals from a point-scatterer scene.

Channels are produced on a dense grid that stands in for the analog domain:
every downstream integral is quadrature on this grid, so the grid must
oversample the nominal 20 MHz acquisition rate by at least 16x for those
integrals to be trustworthy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse, InvariantViolation
from .geometry import ArrayGeometry, arrival_time, tau_hat
from .pulse import PulseModel, eval_pulse

# Nominal acquisition rate the simulation grid must oversample.
NYQUIST_RATE_HZ = 20e6
MIN_OVERSAMPLE = 16
MAX_GRID_STEP = 1.0 / (MIN_OVERSAMPLE * NYQUIST_RATE_HZ)

# Pulse tail is < 1.3e-14 of peak beyond this many sigmas; synthesis windows
# each echo to that span.
_PULSE_WINDOW_SIGMAS = 8.0


@dataclass(frozen=True)
class Scatterer:
    """Point reflector on the beam: axial time t_n (depth c*t_n) and gain."""

    axial_time: float
    reflectivity: float


def _check_snr(snr_db: float | None) -> None:
    if snr_db is not None and not math.isfinite(snr_db):
        raise InvariantViolation(f"snr_db {snr_db} must be finite")


@dataclass(frozen=True)
class NoiseSpec:
    snr_db: float | None = None
    speckle_count: int = 0
    seed: int = 0

    def __post_init__(self):
        _check_snr(self.snr_db)
        if self.speckle_count < 0:
            raise InvariantViolation("speckle_count must be >= 0")
        if self.speckle_count > 0 and self.snr_db is None:
            raise InvariantViolation(
                "speckle_count > 0 requires snr_db (speckle power budget)"
            )


@dataclass(frozen=True)
class Scene:
    """One image line's ground truth: scatterers, steering angle, window."""

    scatterers: tuple[Scatterer, ...]
    beam_angle: float = 0.0
    tau: float = 102.4e-6
    noise: NoiseSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "scatterers", tuple(self.scatterers))
        if not 0 < self.tau < math.inf:
            raise InvariantViolation("tau must be finite and positive")
        times = [s.axial_time for s in self.scatterers]
        for t_n in times:
            if not t_n > 0:
                raise InvariantViolation(f"scatterer axial_time {t_n} must be > 0")
            if not 2.0 * t_n < self.tau:
                raise InvariantViolation(
                    f"scatterer round trip 2*{t_n} falls outside the window {self.tau}"
                )
        if not all(math.isfinite(s.reflectivity) for s in self.scatterers):
            raise InvariantViolation("scatterer reflectivities must be finite")
        if len(set(times)) != len(times):
            raise InvariantViolation("scatterer delays must be distinct")


@dataclass
class ChannelSet:
    """Densely sampled received signals, one row per element.

    The grid spans [0, tau_hat(tau, geometry)] so that the warped-time
    integrals of the sampling stage stay inside it.
    """

    grid_step: float
    samples: np.ndarray
    geometry: ArrayGeometry
    tau: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if not 0 < self.grid_step <= MAX_GRID_STEP * (1 + 1e-12):
            raise GridTooCoarse(
                f"grid_step {self.grid_step:g} s is not in (0, "
                f"{MAX_GRID_STEP:g}] s (16x the 20 MHz rate)"
            )
        if self.samples.shape[0] != self.geometry.num_elements:
            raise InvariantViolation("samples row count != num_elements")
        if not 0 < self.tau < math.inf:
            raise InvariantViolation("tau must be finite and positive")

    @property
    def grid_len(self) -> int:
        return self.samples.shape[1]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.grid_len) * self.grid_step

    @property
    def duration(self) -> float:
        return (self.grid_len - 1) * self.grid_step


def simulation_grid_step(oversample: int = MIN_OVERSAMPLE) -> float:
    """Grid step for an oversampling factor relative to the 20 MHz rate."""
    if oversample < MIN_OVERSAMPLE:
        raise GridTooCoarse(f"oversample {oversample} below minimum {MIN_OVERSAMPLE}")
    return 1.0 / (oversample * NYQUIST_RATE_HZ)


def _add_echo(row, t0, grid_step, grid_len, gain, pulse):
    """Accumulate gain * h(t - t0) into a channel row, windowed to the tail."""
    half = _PULSE_WINDOW_SIGMAS * pulse.envelope_sigma
    lo = max(0, int(np.ceil((t0 - half) / grid_step)))
    hi = min(grid_len - 1, int(np.floor((t0 + half) / grid_step)))
    if hi < lo:
        return
    idx = np.arange(lo, hi + 1)
    row[idx] += gain * eval_pulse(pulse, idx * grid_step - t0)


def synthesize_channels(
    scene: Scene,
    geometry: ArrayGeometry,
    pulse: PulseModel,
    grid_step: float = MAX_GRID_STEP,
) -> ChannelSet:
    """Build the per-element received signals for one transmit cycle.

    Element m sees every scatterer as a pulse replica delayed to its own
    arrival time; replica amplitude equals the scatterer reflectivity
    (transmit illumination is idealized as uniform along the beam).
    """
    if not 0 < grid_step <= MAX_GRID_STEP * (1 + 1e-12):
        raise GridTooCoarse(
            f"grid_step {grid_step:g} s is not in (0, {MAX_GRID_STEP:g}] s"
        )
    end = tau_hat(scene.tau, geometry)
    grid_len = int(np.ceil(end / grid_step - 1e-9)) + 1
    samples = np.zeros((geometry.num_elements, grid_len))
    for m, delta in enumerate(geometry.offsets):
        for sc in scene.scatterers:
            t0 = float(
                arrival_time(sc.axial_time, scene.beam_angle, delta,
                             geometry.speed_of_sound)
            )
            _add_echo(samples[m], t0, grid_step, grid_len, sc.reflectivity, pulse)
    return ChannelSet(grid_step=grid_step, samples=samples,
                      geometry=geometry, tau=scene.tau)


def add_interference(
    ch: ChannelSet,
    snr_db: float | None,
    speckle_count: int,
    seed: int,
    pulse: PulseModel | None = None,
    beam_angle: float = 0.0,
) -> ChannelSet:
    """Add white noise plus a diffuse-scatterer surrogate at a target SNR.

    The total added power per channel is set to ``clean power / 10^(snr/10)``.
    When ``speckle_count > 0`` half of that budget is carried by weak on-beam
    scatterers with reflectivities drawn from N(0, eps^2), the other half by
    white Gaussian noise; with no speckle the white noise takes the whole
    budget.  Deterministic for a fixed seed.
    """
    _check_snr(snr_db)
    if snr_db is None and speckle_count == 0:
        return ChannelSet(ch.grid_step, ch.samples.copy(), ch.geometry, ch.tau)
    if speckle_count > 0 and pulse is None:
        raise ValueError("speckle surrogate requires the pulse model")
    if snr_db is None:
        raise InvariantViolation("speckle_count > 0 requires snr_db")

    rng = np.random.default_rng(seed)
    clean_power = np.mean(ch.samples**2, axis=1)
    target = clean_power * 10.0 ** (-snr_db / 10.0)
    out = ch.samples.copy()
    grid_len = ch.grid_len

    speckle_frac = 0.5 if speckle_count > 0 else 0.0
    if speckle_count > 0:
        # Weak reflectors spread over the usable depth span, synthesized like
        # real scatterers and rescaled per channel to hit their power share.
        t_lo = 0.02 * ch.tau
        t_hi = 0.48 * ch.tau
        positions = rng.uniform(t_lo, t_hi, speckle_count)
        gains = rng.standard_normal(speckle_count)
        speckle = np.zeros_like(out)
        for m, delta in enumerate(ch.geometry.offsets):
            t0s = arrival_time(positions, beam_angle, delta,
                               ch.geometry.speed_of_sound)
            for t0, gain in zip(t0s, gains):
                _add_echo(speckle[m], float(t0), ch.grid_step, grid_len,
                          gain, pulse)
        sp_power = np.mean(speckle**2, axis=1)
        for m in range(out.shape[0]):
            if sp_power[m] > 0 and target[m] > 0:
                out[m] += speckle[m] * np.sqrt(
                    speckle_frac * target[m] / sp_power[m]
                )

    white = rng.standard_normal(out.shape)
    sigma = np.sqrt((1.0 - speckle_frac) * target)
    out += white * sigma[:, None]
    return ChannelSet(ch.grid_step, out, ch.geometry, ch.tau)
