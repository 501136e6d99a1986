"""Nyquist-rate reference pipeline: dynamic-focus delay-and-sum.

This is the conventional digital path the low-rate scheme is measured
against, and doubles as the oracle that materializes the beamformed signal
on the simulation grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, check_finite, refuse_overflow
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


def _keys_reads(x, base, size):
    """``(taps, weights)`` of Keys reads at grid positions ``x``, one row per
    element, whose rows start at the flat indices ``base``: the four taps,
    clamped to the element's own row, and their weights, each stacked on the
    first axis.  A read off the grid has four zero weights.  Takes ``x``
    over and frees it early."""
    outside = ~((x >= 0.0) & (x <= size - 1))
    np.clip(x, 0.0, size - 1, out=x)
    k = np.minimum(x.astype(np.intp), size - 2)
    u = x - k
    del x
    k += base
    taps = np.stack([np.maximum(k - 1, base), k, k + 1,
                     np.minimum(k + 2, base + size - 1)])
    del k
    u2 = u * u
    u3 = u2 * u
    weights = np.empty((4,) + u.shape)
    weights[0] = -0.5 * u3 + u2 - 0.5 * u
    weights[1] = 1.5 * u3 - 2.5 * u2 + 1.0
    weights[2] = -1.5 * u3 + 2.0 * u2 + 0.5 * u
    weights[3] = 0.5 * u3 - 0.5 * u2
    weights[:, outside] = 0.0
    return taps, weights


def _read_blocks(geometry, alpha, focus_mode, n, out_step, grid_step,
                 grid_len):
    """Each element block's ``_keys_reads`` for an ``n``-sample line, in
    element order; a block holds at most ``grid_len`` reads."""
    t = np.arange(n) * out_step
    offsets = geometry.offsets

    def read_times(rows):
        if focus_mode == "dynamic":
            return arrival_time(t / 2.0, alpha, offsets[rows],
                                geometry.speed_of_sound)
        return np.broadcast_to(t, (len(rows), n))

    block = max(1, grid_len // n)
    for lo in range(0, len(offsets), block):
        rows = np.arange(lo, min(lo + block, len(offsets)))[:, None]
        # unnamed here, so _keys_reads can free it
        yield _keys_reads(read_times(rows) / grid_step, rows * grid_len,
                          grid_len)


@functools.lru_cache(maxsize=1)
def _read_plan(*key) -> tuple:
    """``_read_blocks(*key)`` materialized, its arrays read-only.  One entry
    pays off only when consecutive lines repeat the key, as a run whose lines
    share one angle does; a run that steers every line differently misses on
    every line and builds each plan once, as a streamed line would."""
    blocks = tuple(_read_blocks(*key))
    for block in blocks:
        for arr in block:
            arr.flags.writeable = False
    return blocks


def _add_reads(acc, flat, taps, weights) -> None:
    """Add one block's rows to ``acc``, summed as ``beamform_line`` says."""
    y = flat[taps]
    y *= weights
    w0g0, w1g1, w2g2, w3g3 = y
    w0g0 += w1g1
    w0g0 += w2g2
    w0g0 += w3g3
    for row in w0g0:
        acc += row


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
    O((f dt)^2) droop does not).  A read outside the grid has four zero
    weights, so it adds zero on finite samples; edge neighbors are clamped.

    The reads depend on no echo, only on the array, angle, focus mode,
    output grid and channel grid, so ``_read_blocks`` derives them and
    ``_read_plan`` keeps them (one plan at a time) when they take no more
    bytes than the channel array: 64 bytes per read (four taps, four
    weights) against 8 per channel sample, about half the channel bytes for
    a 50 ns line on the 16x grid.  A line at the grid step would need about
    8x, so it streams its blocks and keeps nothing.  The kept plan saves
    work only for consecutive lines on one array, angle and grid; lines
    steered each at their own angle rebuild it every line.  Either way a
    line takes four gathers per block, the sum ``w0 g0 + w1 g1 + w2 g2 +
    w3 g3`` in that order and its rows added in element order, so each row
    is bitwise that of one element alone.

    Raises ``InvariantViolation`` for an unknown focus mode, a non-finite
    angle, an output step that is not finite or is below the grid step, and
    a duration that is not finite, is negative or asks for more output
    samples than the channel array holds, and a line whose sum overflows.
    """
    if focus_mode not in ("dynamic", "infinity"):
        raise InvariantViolation(f"unknown focus_mode {focus_mode!r}")
    check_finite(alpha, f"beam_angle {alpha}")
    if not ch.grid_step * (1 - 1e-12) <= out_step < math.inf:
        raise InvariantViolation(
            "out_step must be finite and >= the grid step")
    if duration is None:
        duration = ch.tau
    if not 0 <= duration < math.inf:
        raise InvariantViolation(
            f"duration {duration} must be finite and non-negative")
    last = duration / out_step + 1e-9
    if last >= ch.samples.size:  # refused before the output is allocated
        raise InvariantViolation(f"duration {duration} s needs more samples "
                                 f"than the channel array's {ch.samples.size}")
    n = int(last) + 1
    # infinity focus reads every element at t, whatever the angle
    key = (ch.geometry, alpha if focus_mode == "dynamic" else 0.0,
           focus_mode, n, out_step, ch.grid_step, ch.grid_len)
    if 8 * n <= ch.grid_len:  # 64 bytes a read, 8 a channel sample
        blocks = _read_plan(*key)
    else:
        blocks = _read_blocks(*key)
    flat = ch.samples.ravel()
    acc = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for block in blocks:
            _add_reads(acc, flat, *block)
            del block  # a streamed block is freed before the next is built
    return BeamformedLine(samples=refuse_overflow(acc, "delay-and-sum line"),
                          grid_step=out_step)


def envelope_detect(line: BeamformedLine) -> np.ndarray:
    """Magnitude of the analytic signal: bins 1..(n-1)//2 doubled, bin 0 and
    the Nyquist bin (even n) kept, the negative half zeroed.  Raises
    ``InvariantViolation`` if a transform overflows."""
    n = len(line.samples)
    if n == 0:
        return np.zeros(0)
    spectrum = np.zeros(n, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        spectrum[:n // 2 + 1] = np.fft.rfft(line.samples)
        spectrum[1:(n + 1) // 2] *= 2.0
        return refuse_overflow(np.abs(np.fft.ifft(spectrum)), "envelope")
