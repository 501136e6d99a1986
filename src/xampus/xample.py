"""Low-rate acquisition of the beamformed line, directly from element signals.

The scheme picks ``|kappa| = 4 rho L`` Fourier harmonics of the window
``[0, tau)`` clustered around the carrier (positive and negative halves, so
the modulating kernels come out real), mixes them with a matrix S, and warps
each branch kernel per element so that integrating against the raw element
traces reproduces what sampling the dynamically focused sum would have given:

    c_q = sum_m (1/tau) integral  s_hat[q, m](t) phi_m(t) dt  over [0, tau_hat]

with

    s_hat[q, m](t) = (1 + (d_m/t)^2) * sum_k S[q, k] exp(-2j pi k (t - d_m^2/t) / tau)
                     * step(t - |d_m|),          d_m = offset_m / c.

The ``xample_beamformed_oracle`` path instead integrates the unwarped kernels
against a materialized beamformed line; the two must agree, which is the
package's central consistency check.

Cost: elements with the same warp share one kernel, so the bank takes one
harmonic pass per warp, ceil(N/2) for N elements in dynamic focus and one in
infinity focus.  A pass needs two tables per grid sample: the first harmonic
times the quadrature weight and the warp bracket, and the step between
consecutive harmonics.  They depend on no echo, so they are built once per
(configuration, grid) and kept, two complex arrays per pass.  Each line then
takes the member sum, one multiply by the first table and K = 2 rho L complex
multiply-adds per sample and pass; the -k half is the conjugate of the +k
half because the traces are real.  The passes are independent, so the
package's worker thread takes half of them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ._worker import both
from .beamform import BeamformedLine
from .errors import GridTooShort, InvariantViolation, refuse_overflow
from .geometry import ArrayGeometry
from .pulse import PulseModel, build_H
from .sim import ChannelSet, check_grid_step


def harmonic_count(L: int, rho: float) -> int:
    """Positive-half harmonic count ``K = 2 rho L``.

    Raises ``InvariantViolation`` unless L >= 1, rho is finite and >= 1 and
    K is an even integer of at most 2**53.
    """
    if L < 1:
        raise InvariantViolation("L must be >= 1")
    if not (np.isfinite(rho) and rho >= 1):
        raise InvariantViolation("rho must be finite and >= 1")
    # compared before the product, which overflows for a huge L
    if L > 2**53 / (2 * rho):
        raise InvariantViolation("2*rho*L must be <= 2**53")
    k_float = 2.0 * rho * L
    K = int(round(k_float))
    if abs(K - k_float) > 1e-9 or K % 2 != 0:
        raise InvariantViolation("2*rho*L must be an even integer")
    return K


def select_kappa(L: int, rho: float, tau: float,
                 carrier_hz: float) -> np.ndarray:
    """Harmonic index set for ``K = 2 rho L`` coefficients near the carrier.

    The positive half is the K consecutive integers centered on
    ``k_c = round(carrier_hz * tau)``; the returned set appends the negation
    of the positive half in matching order (column i + K pairs with column i),
    which is what keeps the mixed kernels real.

    Raises ``InvariantViolation`` for an (L, rho) that ``harmonic_count``
    refuses or a set that reaches k < 1.
    """
    K = harmonic_count(L, rho)
    k_c = int(round(carrier_hz * tau))
    # checked on scalars, before a huge K could allocate its index range
    if k_c - K // 2 + 1 < 1:
        raise InvariantViolation("harmonic set reaches k < 1; tau too short "
                                 "for this carrier")
    pos = np.arange(k_c - K // 2 + 1, k_c + K // 2 + 1)
    return np.concatenate([pos, -pos])


@dataclass(frozen=True, eq=False)
class XampleConfig:
    """Everything that fixes the kernel bank and recovery problem sizes.

    ``kappa`` is derived, ``select_kappa(L, rho, tau, carrier_hz)``, and
    read-only: the kernel bank caches tables built from it.  Compares and
    hashes by identity (its fields hold arrays).
    """

    L: int
    rho: float
    tau: float
    carrier_hz: float
    focus_mode: str
    geometry: ArrayGeometry
    kappa: np.ndarray = field(init=False)

    def __post_init__(self):
        kappa = select_kappa(self.L, self.rho, self.tau, self.carrier_hz)
        kappa.flags.writeable = False
        object.__setattr__(self, "kappa", kappa)
        if self.focus_mode not in ("dynamic", "infinity"):
            raise InvariantViolation(f"unknown focus_mode {self.focus_mode!r}")

    @classmethod
    def create(cls, L: int, rho: float, tau: float, pulse: PulseModel,
               geometry: ArrayGeometry,
               focus_mode: str = "dynamic") -> "XampleConfig":
        """Raises ``InvariantViolation`` for an L or rho that ``select_kappa``
        refuses and ``OffBand`` if a harmonic falls outside the pulse band."""
        cfg = cls(L=L, rho=rho, tau=tau, carrier_hz=pulse.carrier_hz,
                  focus_mode=focus_mode, geometry=geometry)
        build_H(pulse, cfg.kappa, tau)
        return cfg

    @property
    def K(self) -> int:
        """Positive-half harmonic count, 2*rho*L."""
        return len(self.kappa) // 2

    @property
    def p(self) -> int:
        """Branch count, |kappa|: one cos and one -sin kernel per harmonic."""
        return len(self.kappa)

    @property
    def kappa_pos(self) -> np.ndarray:
        return self.kappa[: self.K]


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """Branch mixing weights S of ``p`` branches; columns follow kappa.

    S pairs each +k with its -k partner,

        [[ I/2,   I/2  ],
         [ I/2j, -I/2j ]]   with I of size p/2,

    so row q < p/2 makes branch kernel cos(2 pi k_q t / tau) and row q + p/2
    makes -sin of the same harmonic.  It maps the harmonic integrals
    [g, conj g] of a real trace to [Re g, Im g], which is how the kernel bank
    writes its outputs and ``recover_fourier`` inverts them.  ``entries`` is
    the dense matrix, built read-only on first use.  Compares and hashes by
    identity.
    """

    p: int

    def __post_init__(self):
        if self.p < 2 or self.p % 2 != 0:
            raise InvariantViolation(
                f"mixing matrix needs an even branch count >= 2, got {self.p!r}")

    @functools.cached_property
    def entries(self) -> np.ndarray:
        eye = np.eye(self.p // 2)
        entries = np.block([[0.5 * eye, 0.5 * eye],
                            [eye / 2j, -eye / 2j]])
        entries.flags.writeable = False
        return entries


@functools.cache
def build_S(p: int) -> MixingMatrix:
    """The paired mixing matrix of ``p`` branches, memoized: every caller
    with the same p shares one matrix and its dense ``entries``."""
    return MixingMatrix(p)


@dataclass
class XampleOutput:
    """Branch outputs per warp group and their fold over the aperture.

    A group of elements sharing one warp fills the column of its lowest
    index and leaves its other columns zero: pair i, N-1-i fills column i in
    dynamic focus, the whole aperture fills column 0 in infinity focus.
    """

    c_qm: np.ndarray  # (p, num_elements), grouped layout
    c: np.ndarray     # (p,)


def _harmonic_table(kappa_pos, tau, ts, a, weights):
    """``(z0, step)`` for the harmonic recurrence on support points
    ``ts >= a``: the first weighted, warped kernel
    ``z0 = weights * bracket * exp(-2j pi kappa_pos[0] phase / tau)``, with
    the warped phase ``t - a^2/t`` and bracket ``1 + (a/t)^2`` (the plain
    axis and 1 for ``a = 0``: on-axis element or infinity focus), and
    ``step`` the factor between consecutive harmonics, both read-only.
    ``kappa_pos`` must be consecutive."""
    phase, bracket = (ts - a * a / ts, 1.0 + (a / ts) ** 2) if a else (ts, 1.0)
    w = (-2j * np.pi / tau) * phase
    z0 = np.exp(kappa_pos[0] * w)
    z0 *= weights * bracket
    step = np.exp(w)
    z0.flags.writeable = False
    step.flags.writeable = False
    return z0, step


def _harmonics(z, step, n):
    """g[i] = sum_t z * step^i for i < n, with ``z = z0 * trace``: the
    windowed harmonic integrals of one real trace, the per-element branch
    integrals before the S mixing is applied (mixing commutes with the time
    integral); the -k half is their conjugate.  Advances ``z`` in place."""
    g = np.empty(n, dtype=complex)
    g[0] = z.sum()
    for i in range(1, n):
        z *= step
        g[i] = z.sum()
    return g


def _trapezoid_weights(n: int, step: float) -> np.ndarray:
    w = np.full(n, step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@dataclass(frozen=True, eq=False)
class _WarpGroup:
    """Elements sharing one warp a: their rows, ascending, the first of which
    is the ``c_qm`` column they fill, and their ``_harmonic_table`` on the
    support ``t >= a`` of the grid."""

    members: np.ndarray
    support: slice
    z0: np.ndarray
    step: np.ndarray


@functools.lru_cache(maxsize=1)
def _bank_tables(cfg: XampleConfig, grid_len: int,
                 grid_step: float) -> tuple[_WarpGroup, ...]:
    """The kernel bank's warp groups for one configuration and grid.

    The weighted, warped kernels depend on no echo, so they are built once
    and reused on every line.  ``cfg`` hashes by identity; the cache holds
    its key, so no id is reused while the entry lives.  One entry fits the
    traffic: a run uses one configuration and one grid.
    """
    t = np.arange(grid_len) * grid_step
    weights = _trapezoid_weights(grid_len, grid_step)
    a = cfg.geometry.offset_times
    if cfg.focus_mode != "dynamic":
        a = np.zeros_like(a)
    warps, group = np.unique(a, return_inverse=True)
    groups = []
    for k, a_k in enumerate(warps):
        # t is ascending, so the support t >= a is a suffix of the grid
        support = slice(int(np.searchsorted(t, a_k)), None)
        z0, step = _harmonic_table(cfg.kappa_pos, cfg.tau, t[support], a_k,
                                   weights[support])
        members = np.flatnonzero(group == k)
        members.flags.writeable = False
        groups.append(_WarpGroup(members=members, support=support, z0=z0,
                                 step=step))
    return tuple(groups)


def _bank_passes(groups, samples, cfg: XampleConfig,
                 c_qm: np.ndarray) -> None:
    """One harmonic pass per warp group, each into its own ``c_qm`` column;
    every pass reuses one pair of grid-length buffers, allocated here."""
    trace_buf = np.empty(samples.shape[1])
    z_buf = np.empty(samples.shape[1], dtype=complex)
    for grp in groups:
        sup = grp.support
        trace = trace_buf[sup]
        first, *rest = grp.members
        np.copyto(trace, samples[first, sup])
        for m in rest:
            np.add(trace, samples[m, sup], out=trace)
        z = z_buf[sup]
        np.multiply(grp.z0, trace, out=z)
        g = _harmonics(z, grp.step, cfg.K)
        c_qm[:, first] = np.concatenate([g.real, g.imag]) / cfg.tau


def xample_channels(ch: ChannelSet, cfg: XampleConfig,
                    S: MixingMatrix) -> XampleOutput:
    """Run the kernel bank over every element and fold the outputs.

    Elements with the same warp have the same kernel (the offset enters only
    as delta^2 and |delta|), so their traces are summed and take one
    harmonic pass: pairs +/-m in dynamic focus, the whole aperture in
    infinity focus.  The passes' weighted, warped kernels come from
    ``_bank_tables``.  Raises ``InvariantViolation`` unless the channels
    come from the configuration's array and window, or if c overflows.
    """
    if ch.geometry != cfg.geometry:
        raise InvariantViolation(
            f"channels from {ch.geometry}, configuration for {cfg.geometry}")
    if ch.tau != cfg.tau:
        raise InvariantViolation(f"channels of window {ch.tau!r} s, "
                                 f"configuration for {cfg.tau!r} s")
    if S.p != len(cfg.kappa):
        raise InvariantViolation("mixing matrix branches must match |kappa|")
    groups = _bank_tables(cfg, ch.grid_len, ch.grid_step)
    c_qm = np.zeros((S.p, cfg.geometry.num_elements))
    # the worker takes every second group and this thread the rest, each
    # with its own buffers; a group writes only its own column, so c_qm is
    # bitwise that of one thread taking every group.  A non-finite c_qm
    # entry makes its row of c non-finite, so c alone is checked
    with np.errstate(over="ignore", invalid="ignore"):
        both(lambda: _bank_passes(groups[1::2], ch.samples, cfg, c_qm),
             lambda: _bank_passes(groups[0::2], ch.samples, cfg, c_qm))
        c = c_qm.sum(axis=1)
    return XampleOutput(c_qm=c_qm, c=refuse_overflow(c, "kernel bank output"))


def xample_beamformed_oracle(line: BeamformedLine, cfg: XampleConfig,
                             S: MixingMatrix) -> np.ndarray:
    """Sample a materialized beamformed line with the unwarped kernel bank.

    The line must live on a simulation-resolution grid spanning [0, tau];
    this is the reference the direct per-element path is validated against.
    """
    check_grid_step(line.grid_step)
    if line.grid_step * (len(line.samples) - 1) < cfg.tau * (1 - 1e-9):
        raise GridTooShort("oracle line does not span [0, tau]")
    if S.p != len(cfg.kappa):
        raise InvariantViolation("mixing matrix branches must match |kappa|")
    w = _trapezoid_weights(len(line.samples), line.grid_step)
    z0, step = _harmonic_table(cfg.kappa_pos, cfg.tau, line.times, 0.0, w)
    g = _harmonics(z0 * line.samples, step, cfg.K)
    return np.concatenate([g.real, g.imag]) / cfg.tau

