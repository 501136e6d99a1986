import struct

import numpy as np
import pytest

from xampus import ParseError, Scatterer, Scene, read_channels, write_channels

from util import default_geometry, synthesize


def test_roundtrip_bit_exact(tmp_path):
    geom = default_geometry(num_elements=5)
    scene = Scene(scatterers=(Scatterer(6e-6, 0.8),), tau=25.6e-6)
    ch = synthesize(scene, geom)
    path = tmp_path / "line_000.urf"
    write_channels(path, ch)
    back = read_channels(path, geom)
    np.testing.assert_array_equal(back.samples, ch.samples)
    assert back.grid_step == ch.grid_step
    assert back.tau == ch.tau


def test_header_fields(tmp_path):
    geom = default_geometry(num_elements=3)
    scene = Scene(scatterers=(), tau=25.6e-6)
    ch = synthesize(scene, geom)
    path = tmp_path / "x.urf"
    write_channels(path, ch)
    raw = path.read_bytes()
    assert raw[:4] == b"URF1"
    assert int.from_bytes(raw[4:8], "little") == 3
    assert len(raw) == 28 + 8 * 3 * ch.grid_len


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.urf"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ParseError):
        read_channels(path, default_geometry(num_elements=3))


def test_truncated_body(tmp_path):
    geom = default_geometry(num_elements=3)
    ch = synthesize(Scene(scatterers=(), tau=25.6e-6), geom)
    path = tmp_path / "t.urf"
    write_channels(path, ch)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(ParseError):
        read_channels(path, geom)


def test_element_count_mismatch(tmp_path):
    geom = default_geometry(num_elements=3)
    ch = synthesize(Scene(scatterers=(), tau=25.6e-6), geom)
    path = tmp_path / "m.urf"
    write_channels(path, ch)
    with pytest.raises(ParseError):
        read_channels(path, default_geometry(num_elements=5))


@pytest.mark.parametrize("field, value", [
    ("grid_step", float("nan")), ("grid_step", float("inf")),
    ("grid_step", 0.0), ("grid_step", -3.125e-9),
    ("tau", float("nan")), ("tau", float("inf")), ("tau", -25.6e-6),
])
def test_header_rejects_bad_step_or_tau(tmp_path, field, value):
    geom = default_geometry(num_elements=3)
    ch = synthesize(Scene(scatterers=(), tau=25.6e-6), geom)
    path = tmp_path / "line_007.urf"
    write_channels(path, ch)
    raw = bytearray(path.read_bytes())
    offset = {"grid_step": 12, "tau": 20}[field]
    raw[offset:offset + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match=f"line_007.urf: {field}"):
        read_channels(path, geom)
