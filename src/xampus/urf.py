"""URF1 binary channel file: the on-disk form of a ChannelSet.

Layout (little-endian): magic ``URF1``, u32 num_elements, u32 grid_len,
f64 grid_step_s, f64 tau_s, then num_elements x grid_len f64 samples
row-major.  Array geometry is not stored; readers supply it from the scene
configuration.  The file must hold exactly the samples its header declares,
and every sample must be finite; ``ChannelSet`` checks the rest.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import ParseError, XampusError
from .geometry import ArrayGeometry
from .outfile import open_new
from .sim import ChannelSet

MAGIC = b"URF1"
_HEADER = struct.Struct("<4sIIdd")


def write_channels(path, ch: ChannelSet) -> None:
    """Write ``ch`` to ``path`` as a new file, replacing any file there
    (``outfile.open_new``: an open handle keeps the old samples, a symlink
    is replaced, not followed)."""
    header = _HEADER.pack(MAGIC, ch.samples.shape[0], ch.samples.shape[1],
                          ch.grid_step, ch.tau)
    with open_new(path) as f:
        f.write(header)
        f.write(np.ascontiguousarray(ch.samples, dtype="<f8"))


def read_channels(path, geometry: ArrayGeometry) -> ChannelSet:
    with open(path, "rb") as f:
        raw = f.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise ParseError(f"{path}: truncated URF1 header")
        magic, num_elements, grid_len, grid_step, tau = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise ParseError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        # checked against the file size before allocating, so a hostile
        # header cannot ask for more memory than the file holds
        body_size = 8 * num_elements * grid_len
        file_size = os.fstat(f.fileno()).st_size
        if file_size != _HEADER.size + body_size:
            raise ParseError(
                f"{path}: header declares {body_size} body bytes, "
                f"file holds {file_size - _HEADER.size}"
            )
        samples = np.empty((num_elements, grid_len), dtype="<f8")
        if f.readinto(samples) != body_size:
            raise ParseError(f"{path}: truncated URF1 body")
    if not np.isfinite(samples).all():
        raise ParseError(f"{path}: samples must be finite")
    try:
        return ChannelSet(grid_step=grid_step, samples=samples,
                          geometry=geometry, tau=tau)
    except XampusError as e:
        e.args = (f"{path}: {e}",)
        raise
