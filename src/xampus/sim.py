"""Synthetic per-element channel signals from a point-scatterer scene.

Channels are produced on a dense grid that stands in for the analog domain:
every downstream integral is quadrature on this grid, so the grid must
oversample the nominal 20 MHz acquisition rate by at least 16x for those
integrals to be trustworthy.

Echoes (scatterers and the speckle surrogate alike) are synthesized in one
batch per call: one table of 2*ceil(8 sigma / dt) + 1 complex entries is
shared by every echo, each echo needs two scalars of its own, and no sample
takes a trigonometric function.  Each channel row stays within 1e-12 of its
peak of the per-sample ``eval_pulse`` sum over the same windows.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse, InvariantViolation
from .geometry import ArrayGeometry, arrival_time, tau_hat
from .pulse import PulseModel

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


def _check_speckle_count(speckle_count) -> None:
    if (isinstance(speckle_count, bool)
            or not isinstance(speckle_count, numbers.Integral)
            or speckle_count < 0):
        raise InvariantViolation(
            f"speckle_count {speckle_count!r} must be an integer >= 0"
        )


def _check_beam_angle(beam_angle: float) -> None:
    if not math.isfinite(beam_angle):
        raise InvariantViolation(f"beam_angle {beam_angle} must be finite")


@dataclass(frozen=True)
class NoiseSpec:
    snr_db: float | None = None
    speckle_count: int = 0
    seed: int = 0

    def __post_init__(self):
        _check_snr(self.snr_db)
        _check_speckle_count(self.speckle_count)
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

    def __post_init__(self):
        object.__setattr__(self, "scatterers", tuple(self.scatterers))
        _check_beam_angle(self.beam_angle)
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


def _echoes(t0, gains, grid_step, grid_len, pulse):
    """Dense rows of ``sum_e gains[e] * h(t - t0[row, e])`` on the grid.

    ``t0`` holds one row of arrival times per output row, one column per
    echo.  Each echo covers the samples within +/- 8 sigma of its arrival,
    clipped to the grid, and echoes are added to each sample in column order.
    Writing the offset of sample ``anchor + k`` as ``u = k*dt - phi``, with
    ``anchor`` the sample nearest the arrival, gives
    ``h(u) = A * z**k * Re(T[k] * w)``: the table
    ``T[k] = exp(-(k dt)^2 / 2 sigma^2 + j w_c k dt)`` is shared by every
    echo, and ``z = exp(dt phi / sigma^2)`` and
    ``w = gain * exp(-phi^2 / 2 sigma^2 - j w_c phi)`` are per-echo scalars.
    Rows are evaluated one at a time to keep the temporaries to one row's
    echoes.
    """
    sig = pulse.envelope_sigma
    if grid_step > sig:
        # beyond this z**k and T[k] may overflow and underflow to inf * 0
        raise GridTooCoarse(
            f"grid_step {grid_step:g} s does not resolve the pulse envelope "
            f"sigma {sig:g} s"
        )
    t0 = np.asarray(t0, dtype=float)
    half = _PULSE_WINDOW_SIGMAS * sig
    reach = int(np.ceil(half / grid_step))
    k = np.arange(-reach, reach + 1, dtype=float)
    wc = 2.0 * np.pi * pulse.carrier_hz
    table = np.exp(-((k * grid_step) ** 2) / (2.0 * sig**2)
                   + 1j * wc * k * grid_step)
    table = np.stack([table.real, table.imag])
    anchor = np.rint(t0 / grid_step)
    # |phi| <= dt/2, so the +/- 8 sigma window lies within k = -reach..reach
    # and can exclude at most its first or last entry
    skip_first = np.ceil((t0 - half) / grid_step) > anchor - reach
    skip_last = np.floor((t0 + half) / grid_step) < anchor + reach
    phi = t0 - anchor * grid_step
    log_z = grid_step * phi / sig**2
    w = (pulse.amplitude * np.asarray(gains, dtype=float)
         * np.exp(-(phi**2) / (2.0 * sig**2) - 1j * wc * phi))
    # Re(T[k] w) = Re(T[k]) Re(w) - Im(T[k]) Im(w), one matrix product per row
    coef = np.stack([w.real, -w.imag], axis=-1)
    # bins run over the grid padded by `reach` on each side: anchor >= 0 puts
    # every window inside, and the padding drops the part off the grid
    anchor = anchor.astype(np.intp)
    offsets = np.arange(2 * reach + 1)
    rows = np.empty((t0.shape[0], grid_len))
    for m in range(t0.shape[0]):
        vals = coef[m] @ table
        vals *= np.exp(np.multiply.outer(log_z[m], k))
        vals[skip_first[m], 0] = 0.0
        vals[skip_last[m], -1] = 0.0
        bins = anchor[m, :, None] + offsets
        padded = np.bincount(bins.ravel(), weights=vals.ravel(),
                             minlength=grid_len + 2 * reach)
        rows[m] = padded[reach:reach + grid_len]
    return rows


def _row_power(x):
    """Mean square of each row, without an x**2 temporary."""
    return np.einsum("ij,ij->i", x, x) / x.shape[1]


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
    t0 = arrival_time([sc.axial_time for sc in scene.scatterers],
                      scene.beam_angle, geometry.offsets[:, None],
                      geometry.speed_of_sound)
    samples = _echoes(t0, [sc.reflectivity for sc in scene.scatterers],
                      grid_step, grid_len, pulse)
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
    _check_speckle_count(speckle_count)
    _check_beam_angle(beam_angle)
    if snr_db is None and speckle_count == 0:
        return ChannelSet(ch.grid_step, ch.samples.copy(), ch.geometry, ch.tau)
    if speckle_count > 0 and pulse is None:
        raise ValueError("speckle surrogate requires the pulse model")
    if snr_db is None:
        raise InvariantViolation("speckle_count > 0 requires snr_db")

    rng = np.random.default_rng(seed)
    target = _row_power(ch.samples) * 10.0 ** (-snr_db / 10.0)

    speckle_frac = 0.5 if speckle_count > 0 else 0.0
    if speckle_count > 0:
        # Weak reflectors spread over the usable depth span, synthesized like
        # real scatterers and rescaled per channel to hit their power share.
        t_lo = 0.02 * ch.tau
        t_hi = 0.48 * ch.tau
        positions = rng.uniform(t_lo, t_hi, speckle_count)
        gains = rng.standard_normal(speckle_count)
        t0 = arrival_time(positions, beam_angle, ch.geometry.offsets[:, None],
                          ch.geometry.speed_of_sound)
        out = _echoes(t0, gains, ch.grid_step, ch.grid_len, pulse)
        sp_power = _row_power(out)
        scale = np.zeros_like(sp_power)
        ok = (sp_power > 0) & (target > 0)
        scale[ok] = np.sqrt(speckle_frac * target[ok] / sp_power[ok])
        # the speckle buffer becomes the output: one full-size array fewer,
        # and float addition commutes, so the sum is the same
        out *= scale[:, None]
        out += ch.samples
    else:
        out = ch.samples.copy()
    # one row of white noise at a time, drawn in the order a full-array draw
    # would take, so the draws and the sums match it bitwise
    white_scale = np.sqrt((1.0 - speckle_frac) * target)
    row = np.empty(ch.grid_len)
    for m in range(out.shape[0]):
        rng.standard_normal(out=row)
        row *= white_scale[m]
        out[m] += row
    return ChannelSet(ch.grid_step, out, ch.geometry, ch.tau)
