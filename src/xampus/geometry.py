"""Array layout and two-way travel-time geometry.

All timing here is expressed on the image-line clock: the transmit pulse
leaves the array center at t = 0, intersects the beam point parameterized by
axial time ``t_n`` (depth ``c * t_n``), and the echo lands back on element m
at ``arrival_time``.  That is the one place the two-way travel time is
written: the receive beamformer reads each element at the arrival time of its
focal point (``t/2`` in dynamic focus), and ``tau_hat``, the kernel bank's
integration bound, is the latest arrival of the echo from the window's end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, check_positive


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array centered on the scanned beam.

    Element offsets are symmetric about the beam: ``m * pitch`` for an odd
    count (2M+1 elements, m in -M..M), half-integer multiples of the pitch
    for an even count.  Either way ``offsets`` is ascending and
    ``offsets[i] == -offsets[n-1-i]``.
    """

    num_elements: int
    pitch: float
    speed_of_sound: float = 1540.0

    def __post_init__(self):
        if self.num_elements < 1:
            raise InvariantViolation("array num_elements must be >= 1")
        check_positive(self.pitch, "array pitch")
        check_positive(self.speed_of_sound, "array speed_of_sound")

    @property
    def offsets(self) -> np.ndarray:
        """Element x-coordinates in meters, ascending."""
        n = self.num_elements
        return (np.arange(n) - (n - 1) / 2.0) * self.pitch

    @property
    def offset_times(self) -> np.ndarray:
        """Per-element |offset| / c in seconds (the warp parameter)."""
        return np.abs(self.offsets) / self.speed_of_sound


def arrival_time(t_n, alpha, delta_m, c):
    """Echo arrival time at the element offset ``delta_m`` (meters).

    A pulse scattered at axial time ``t_n`` on a beam steered by ``alpha``
    arrives back at the element after covering the return path:

        t_n + sqrt((c t_n sin(alpha) - delta_m)^2 + (c t_n cos(alpha))^2) / c
    """
    t_n = np.asarray(t_n, dtype=float)
    return t_n + np.sqrt(
        (c * t_n * np.sin(alpha) - delta_m) ** 2 + (c * t_n * np.cos(alpha)) ** 2
    ) / c


def tau_hat(tau: float, geometry: ArrayGeometry, alpha: float = 0.0) -> float:
    """Upper integration bound covering the longest warped arrival.

    The latest arrival of the echo from the end of the window, focal time
    tau/2, on a beam steered by ``alpha``, over all elements:
    ``max_m arrival_time(tau/2, alpha, delta_m, c)``; always >= tau, and
    the offsets' symmetry makes the unsteered bound the least over alpha.
    """
    c = geometry.speed_of_sound
    return float(np.max(arrival_time(tau / 2.0, alpha, geometry.offsets, c)))
