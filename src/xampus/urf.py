"""URF1 binary channel file: the on-disk form of a ChannelSet.

Layout (little-endian): magic ``URF1``, u32 num_elements, u32 grid_len,
f64 grid_step_s, f64 tau_s, then num_elements x grid_len f64 samples
row-major.  Array geometry is not stored; readers supply it from the scene
configuration.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import ParseError
from .geometry import ArrayGeometry
from .sim import ChannelSet

MAGIC = b"URF1"
_HEADER = struct.Struct("<4sIIdd")


def write_channels(path, ch: ChannelSet) -> None:
    header = _HEADER.pack(MAGIC, ch.samples.shape[0], ch.samples.shape[1],
                          ch.grid_step, ch.tau)
    body = np.ascontiguousarray(ch.samples, dtype="<f8").tobytes()
    with open(path, "wb") as f:
        f.write(header)
        f.write(body)


def read_channels(path, geometry: ArrayGeometry) -> ChannelSet:
    with open(path, "rb") as f:
        raw = f.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise ParseError(f"{path}: truncated URF1 header")
        magic, num_elements, grid_len, grid_step, tau = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise ParseError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        for key, value in (("grid_step", grid_step), ("tau", tau)):
            if not 0 < value < math.inf:
                raise ParseError(
                    f"{path}: {key} {value!r} must be finite and positive"
                )
        body = f.read(8 * num_elements * grid_len)
    if len(body) != 8 * num_elements * grid_len:
        raise ParseError(f"{path}: truncated URF1 body")
    if num_elements != geometry.num_elements:
        raise ParseError(
            f"{path}: file has {num_elements} elements, geometry expects "
            f"{geometry.num_elements}"
        )
    samples = np.frombuffer(body, dtype="<f8").reshape(num_elements, grid_len)
    return ChannelSet(grid_step=grid_step, samples=samples.copy(),
                      geometry=geometry, tau=tau)
