"""Synthetic per-element channel signals from a point-scatterer scene.

Channels are produced on a dense grid that stands in for the analog domain:
every downstream integral is quadrature on this grid, so the grid must
oversample the nominal 20 MHz acquisition rate by at least 16x for those
integrals to be trustworthy.

Echoes (scatterers and the speckle surrogate alike) are synthesized in one
batch per call: one table of 2*ceil(8 sigma / dt) + 1 complex entries is
shared by every echo, each echo needs two scalars of its own, and no sample
takes a trigonometric function.  A row whose arrival times equal an earlier
row's is copied, not evaluated, so the mirrored elements of an unsteered line
cost one row per pair.  Each channel row stays within 1e-12 of its peak of
the per-sample pulse sum over +/- 8 sigma windows, the oracle the tests
build from ``tests/util.eval_pulse``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._worker import both
from .errors import (GridTooCoarse, GridTooShort, InvariantViolation,
                     check_finite, check_positive, refuse_overflow)
from .geometry import ArrayGeometry, arrival_time, tau_hat
from .pulse import PulseModel

# Nominal acquisition rate the simulation grid must oversample.
NYQUIST_RATE_HZ = 20e6
MIN_OVERSAMPLE = 16
MAX_GRID_STEP = 1.0 / (MIN_OVERSAMPLE * NYQUIST_RATE_HZ)

# Pulse tail is < 1.3e-14 of peak beyond this many sigmas; each echo's table
# reaches this far, rounded up to whole samples, from its nearest sample.
_PULSE_WINDOW_SIGMAS = 8.0


@dataclass(frozen=True)
class Scatterer:
    """Point reflector on the beam: axial time t_n (depth c*t_n) and gain."""

    axial_time: float
    reflectivity: float


@dataclass(frozen=True)
class NoiseSpec:
    snr_db: float | None = None
    speckle_count: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.snr_db is not None:
            check_finite(self.snr_db, f"snr_db {self.snr_db}")
        if (isinstance(self.speckle_count, bool)
                or not isinstance(self.speckle_count, numbers.Integral)
                or self.speckle_count < 0):
            raise InvariantViolation(
                f"speckle_count {self.speckle_count!r} must be an integer >= 0"
            )
        if self.speckle_count > 0 and self.snr_db is None:
            raise InvariantViolation(
                "speckle_count > 0 requires snr_db (speckle power budget)"
            )
        if (isinstance(self.seed, bool)
                or not isinstance(self.seed, numbers.Integral)):
            raise InvariantViolation(
                f"noise seed {self.seed!r} must be an integer")
        if self.seed < 0:
            raise InvariantViolation(f"noise seed {self.seed!r} must be >= 0")


@dataclass(frozen=True)
class Scene:
    """One image line's ground truth: scatterers, steering angle, window."""

    scatterers: tuple[Scatterer, ...]
    beam_angle: float = 0.0
    tau: float = 102.4e-6

    def __post_init__(self):
        object.__setattr__(self, "scatterers", tuple(self.scatterers))
        check_finite(self.beam_angle, f"beam_angle {self.beam_angle}")
        check_positive(self.tau, "tau")
        times = [s.axial_time for s in self.scatterers]
        for t_n in times:
            if not t_n > 0:
                raise InvariantViolation(f"scatterer axial_time {t_n} must be > 0")
            if not 2.0 * t_n < self.tau:
                raise InvariantViolation(
                    f"scatterer round trip 2*{t_n} falls outside the window {self.tau}"
                )
        if not all(math.isfinite(s.reflectivity) and s.reflectivity != 0
                   for s in self.scatterers):
            raise InvariantViolation(
                "scatterer reflectivities must be finite and nonzero")
        if len(set(times)) != len(times):
            raise InvariantViolation("scatterer delays must be distinct")


def check_grid_step(grid_step: float) -> None:
    if not 0 < grid_step <= MAX_GRID_STEP * (1 + 1e-12):
        raise GridTooCoarse(f"grid_step {grid_step:g} s is not in (0, "
                            f"{MAX_GRID_STEP:g}] s (16x the 20 MHz rate)")


@dataclass(frozen=True)
class ChannelSet:
    """Densely sampled received signals, one row per element.

    The grid spans [0, tau_hat(tau, geometry)] so that the warped-time
    integrals stay inside it; construction checks the step (``GridTooCoarse``),
    rows and tau (``InvariantViolation``) and reach (``GridTooShort``), the
    latter unsteered, the least over all angles, since a file stores none.
    """

    grid_step: float
    samples: np.ndarray
    geometry: ArrayGeometry
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, float))
        check_grid_step(self.grid_step)
        rows, elements = self.samples.shape[0], self.geometry.num_elements
        if rows != elements:
            raise InvariantViolation(f"{rows} rows for {elements} elements")
        check_positive(self.tau, "tau")
        with np.errstate(over="ignore"):  # a hostile tau overflows to inf
            end = tau_hat(self.tau, self.geometry)
        if self.duration < end * (1 - 1e-12):
            raise GridTooShort(
                f"channel grid ends at {self.duration:g} s, needs {end:g} s")

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
    echo.  Each echo covers the table's span, the ``reach = ceil(8 sigma /
    dt)`` samples on either side of ``anchor``, the sample nearest its
    arrival, clipped to the grid; a sample of that span beyond +/- 8 sigma
    is below 1.3e-14 of the echo's peak.  Echoes are added to each sample
    in column order, so no sample exceeds the sum of their peaks
    ``|A * gain|``; twice that sum must be finite, however far apart the
    echoes lie, or ``InvariantViolation`` refuses them.  Writing the offset
    of sample ``anchor + k`` as ``u = k*dt - phi`` gives
    ``h(u) = A * z**k * Re(T[k] * w)``: the table
    ``T[k] = exp(-(k dt)^2 / 2 sigma^2 + j w_c k dt)`` is shared by every
    echo, and ``z = exp(dt phi / sigma^2)`` and
    ``w = gain * exp(-phi^2 / 2 sigma^2 - j w_c phi)`` are per-echo scalars.
    Rows are evaluated one at a time to keep the temporaries to one row's
    echoes.  A row whose arrival times equal an earlier row's, bit for bit,
    is copied from it: on an unsteered line elements m and N-1-m mirror each
    other, so each mirrored pair is evaluated once.
    """
    sig = pulse.envelope_sigma
    if grid_step > sig:
        # beyond this z**k and T[k] may overflow and underflow to inf * 0
        raise GridTooCoarse(
            f"grid_step {grid_step:g} s does not resolve the pulse envelope "
            f"sigma {sig:g} s"
        )
    t0 = np.asarray(t0, dtype=float)
    reach = int(np.ceil(_PULSE_WINDOW_SIGMAS * sig / grid_step))
    k = np.arange(-reach, reach + 1, dtype=float)
    wc = 2.0 * np.pi * pulse.carrier_hz
    table = np.exp(-((k * grid_step) ** 2) / (2.0 * sig**2)
                   + 1j * wc * k * grid_step)
    table = np.stack([table.real, table.imag])
    anchor = np.rint(t0 / grid_step)
    phi = t0 - anchor * grid_step
    log_z = grid_step * phi / sig**2
    with np.errstate(over="ignore", invalid="ignore"):
        peaks = pulse.amplitude * np.asarray(gains, dtype=float)
        refuse_overflow(2.0 * np.abs(peaks).sum(), "twice the echoes' summed "
                        "|pulse amplitude x reflectivity|")
    w = peaks * np.exp(-(phi**2) / (2.0 * sig**2) - 1j * wc * phi)
    # Re(T[k] w) = Re(T[k]) Re(w) - Im(T[k]) Im(w), one matrix product per row
    coef = np.stack([w.real, -w.imag], axis=-1)
    # bins run over the grid padded by `reach` on each side: anchor >= 0 puts
    # every window inside, and the padding drops the part off the grid
    anchor = anchor.astype(np.intp)
    offsets = np.arange(2 * reach + 1)
    rows = np.empty((t0.shape[0], grid_len))
    first = {}
    for m in range(t0.shape[0]):
        same = first.setdefault(t0[m].tobytes(), m)
        if same < m:
            rows[m] = rows[same]
            continue
        vals = coef[m] @ table
        vals *= np.exp(np.multiply.outer(log_z[m], k))
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
    (transmit illumination is idealized as uniform along the beam).  The
    grid ends at the line's own ``tau_hat``, at its beam angle.
    """
    check_grid_step(grid_step)
    end = tau_hat(scene.tau, geometry, scene.beam_angle)
    grid_len = math.ceil(end / grid_step - 1e-9) + 1
    t0 = arrival_time([sc.axial_time for sc in scene.scatterers],
                      scene.beam_angle, geometry.offsets[:, None],
                      geometry.speed_of_sound)
    samples = _echoes(t0, [sc.reflectivity for sc in scene.scatterers],
                      grid_step, grid_len, pulse)
    return ChannelSet(grid_step=grid_step, samples=samples,
                      geometry=geometry, tau=scene.tau)


def _unit_noise(seed, shape):
    """Float32 unit normals of ``shape`` by ``add_interference``'s rule:
    radii from the first half of the uniforms, angles from the second, the
    cosines then the sines in row-major order.  Computed in place, with one
    cosine temporary: 0.75 of a float64 array of ``shape`` in all."""
    n = math.prod(shape)
    half = -(-n // 2)
    ss = np.random.SeedSequence(seed).spawn(1)[0]
    u = np.random.Generator(np.random.SFC64(ss)).random(2 * half,
                                                         dtype=np.float32)
    r, theta = u[:half], u[half:]
    np.negative(r, out=r)
    np.log1p(r, out=r)
    r *= -2
    np.sqrt(r, out=r)
    theta *= 2 * np.pi
    cos = np.cos(theta)
    np.sin(theta, out=theta)
    theta *= r
    r *= cos
    return u[:n].reshape(shape)


def add_interference(
    ch: ChannelSet,
    snr_db: float | None,
    speckle_count: int,
    seed: int,
    pulse: PulseModel,
    beam_angle: float = 0.0,
) -> ChannelSet:
    """Add white noise plus a diffuse-scatterer surrogate at a target SNR.

    The total added power per channel is set to ``clean power / 10^(snr/10)``.
    When ``speckle_count > 0`` half of that budget is carried by weak on-beam
    scatterers with reflectivities drawn from N(0, eps^2), the other half by
    white Gaussian noise; with no speckle the white noise takes the whole
    budget.  With no SNR, a copy of ``ch``.  ``NoiseSpec`` checks the SNR,
    speckle count and seed.

    Each draw is a function of the seed alone.  The speckle positions and
    gains come from ``np.random.default_rng(seed)``.  The white noise is one
    float32 Box-Muller pass per call over the float32 uniforms (u1, u2) of
    ``np.random.Generator(np.random.SFC64(ss))`` with
    ``ss = np.random.SeedSequence(seed).spawn(1)[0]``: r = sqrt(-2 log1p(-u1)),
    theta = 2 pi u2, and the pair (r cos theta, r sin theta), each row scaled
    by its noise standard deviation in float64 as it is added.  A float32
    sample is within about 6e-8 of its value in exact arithmetic, relative,
    and the 24-bit uniforms bound every unit sample by sqrt(48 ln 2) ~ 5.77:
    a Gaussian pair's radius passes that bound with probability 6e-8, about
    0.008 times per 16 x 16399 line.
    """
    NoiseSpec(snr_db, speckle_count, seed)
    check_finite(beam_angle, f"beam_angle {beam_angle}")
    if snr_db is None:
        return ChannelSet(ch.grid_step, ch.samples.copy(), ch.geometry, ch.tau)

    with np.errstate(over="ignore", invalid="ignore"):
        target = _row_power(ch.samples) * np.power(10.0, -snr_db / 10.0)
    refuse_overflow(target, "interference power budget")
    speckle_frac = 0.5 if speckle_count > 0 else 0.0
    noise_sd = np.sqrt((1.0 - speckle_frac) * target)

    def clean_plus_speckle():
        if speckle_count == 0:
            out = ch.samples.copy()
        else:
            # weak reflectors over the usable depth span, rescaled per row to
            # their power share; their buffer becomes the output
            rng = np.random.default_rng(seed)
            t_n = rng.uniform(0.02 * ch.tau, 0.48 * ch.tau, speckle_count)
            gains = rng.standard_normal(speckle_count)
            t0 = arrival_time(t_n, beam_angle, ch.geometry.offsets[:, None],
                              ch.geometry.speed_of_sound)
            out = _echoes(t0, gains, ch.grid_step, ch.grid_len, pulse)
            sp_power = _row_power(out)
            scale = np.zeros_like(sp_power)
            ok = (sp_power > 0) & (target > 0)
            scale[ok] = np.sqrt(speckle_frac * target[ok] / sp_power[ok])
            out *= scale[:, None]
            out += ch.samples
        return out

    # the worker builds clean plus speckle, the array that becomes the
    # output, while this thread draws the noise; splitting the draw by rows
    # between both threads measured no gain
    out, noise = both(clean_plus_speckle,
                      lambda: _unit_noise(seed, ch.samples.shape))
    for row, unit, sd in zip(out, noise, noise_sd):
        row += unit * sd  # float64: a float32 product could overflow
    return ChannelSet(ch.grid_step, out, ch.geometry, ch.tau)
