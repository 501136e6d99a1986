"""B-mode style rendering: parameter streams to traces to 8-bit images."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllZero, InvariantViolation, ParseError
from .outfile import open_new
from .pulse import PulseModel
from .recover import LineEstimate

DEFAULT_DYNAMIC_RANGE_DB = 50.0


@dataclass
class ImageGrid:
    axial_step: float
    pixels: np.ndarray  # (axial samples, lines) uint8


def check_dynamic_range(dynamic_range_db: float) -> None:
    """Raises ``InvariantViolation`` unless the range is finite and > 0."""
    if not (np.isfinite(dynamic_range_db) and dynamic_range_db > 0):
        raise InvariantViolation(
            f"dynamic range {dynamic_range_db!r} dB must be finite and > 0")


def render_line(est: LineEstimate, pulse: PulseModel, axial_grid) -> np.ndarray:
    """Convolve the recovered pulse stream with the pulse envelope.

    The stream is already demodulated (delays + amplitudes), so the trace is
    sum_l |b_l| * env(t - t_l) with env the pulse's Gaussian window.
    """
    axial_grid = np.asarray(axial_grid, dtype=float)
    trace = np.zeros(len(axial_grid))
    sig = pulse.envelope_sigma
    for t_l, b_l in zip(est.delays, est.amplitudes):
        trace += abs(b_l) * pulse.amplitude * np.exp(
            -((axial_grid - t_l) ** 2) / (2.0 * sig**2)
        )
    return trace


def assemble_image(lines, dynamic_range_db: float = DEFAULT_DYNAMIC_RANGE_DB,
                   axial_step: float = 50e-9) -> ImageGrid:
    """Log-compress traces into an 8-bit image, lines as columns.

    pixel = clamp(255 * (1 + 20 log10(v / v_max) / DR), 0, 255), with zeros
    mapping to zero.  Normalization is by the global maximum, so scaling all
    traces together leaves the image bit-identical.  ``dynamic_range_db``
    must pass ``check_dynamic_range``.
    """
    check_dynamic_range(dynamic_range_db)
    try:
        traces = np.asarray(lines, dtype=float)
    except ValueError as e:
        raise InvariantViolation(f"traces must share one length: {e}") from e
    if traces.ndim != 2:
        raise InvariantViolation("traces must share one length")
    v_max = traces.max()
    if v_max <= 0.0:
        raise AllZero("all traces are zero; nothing to normalize")
    pixels = np.zeros(traces.shape)
    pos = traces > 0
    with np.errstate(divide="ignore"):
        pixels[pos] = 255.0 * (
            1.0 + 20.0 * np.log10(traces[pos] / v_max) / dynamic_range_db
        )
    pixels = np.clip(np.rint(pixels), 0, 255).astype(np.uint8)
    return ImageGrid(axial_step=axial_step, pixels=pixels.T)


def write_pgm(path, image: ImageGrid) -> None:
    """Binary PGM (P5), width = lines, height = axial samples, written as a
    new file that replaces any file at ``path`` (``outfile.open_new``: an
    open handle keeps the old image, a symlink is replaced, not followed)."""
    h, w = image.pixels.shape
    with open_new(path) as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(image.pixels.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read back a P5 image written by ``write_pgm``.

    The header must be ``P5``, two positive decimal dimensions and maxval
    255, one line each, and the body exactly width x height bytes; anything
    else raises ``ParseError``.
    """
    with open(path, "rb") as f:
        data = f.read()
    parts = data.split(b"\n", 3)
    if len(parts) < 4 or parts[0] != b"P5":
        raise ParseError(f"{path}: not a binary PGM")
    dims = [int(d) if d.isdigit() and len(d) < 19 else 0
            for d in parts[1].split()]
    if len(dims) != 2 or min(dims) < 1:
        raise ParseError(f"{path}: PGM size {parts[1][:40]!r} is not two "
                         "positive integers")
    if parts[2] != b"255":
        raise ParseError(f"{path}: PGM maxval {parts[2][:40]!r} is not 255")
    w, h = dims
    body = parts[3]
    if len(body) != w * h:
        raise ParseError(f"{path}: PGM body holds {len(body)} bytes, "
                         f"{w}x{h} needs {w * h}")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w)
