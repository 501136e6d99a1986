import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from xampus import (ChannelSet, GridTooCoarse, GridTooShort,
                    InvariantViolation, ParseError, Scatterer, Scene,
                    read_channels, tau_hat, write_channels)
from xampus.sim import MAX_GRID_STEP

from util import SPEED, default_geometry, fresh_dir, synthesize

# deterministic, no example database; each example writes into its own
# fresh_dir(tmp_path)
FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# finite: a file holding a NaN or infinite sample is refused
samples_st = st.tuples(st.integers(1, 4), st.integers(0, 40)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(
        width=64, allow_nan=False, allow_infinity=False)))
grid_step_st = st.floats(0.0, MAX_GRID_STEP, exclude_min=True)
# a window as a share of the grid's span, which covered_window turns into tau
share_st = st.floats(0.0, 0.5, exclude_min=True)


def covered_window(samples, grid_step, share):
    """(array, window) whose tau_hat the grid of ``samples`` reaches.  The
    aperture's half-width is under half the grid's span and tau is at most
    half of it, so tau_hat stays below 0.81 of the span.  A grid of fewer
    than two samples reaches no window and is refused."""
    rows, span = samples.shape[0], (samples.shape[1] - 1) * grid_step
    if span <= 0:
        with pytest.raises(GridTooShort):
            ChannelSet(grid_step, samples, default_geometry(rows), 25.6e-6)
    # a share of a subnormal span can round to a window of 0
    assume(span * share > 0)
    return (default_geometry(num_elements=rows, pitch=span * SPEED / rows),
            span * share)


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
    with pytest.raises(InvariantViolation,
                       match="m.urf: 3 rows for 5 elements"):
        read_channels(path, default_geometry(num_elements=5))


def test_rewrite_leaves_an_open_handle_on_the_old_samples(tmp_path):
    # the old file is replaced, not truncated under a reader
    geom = default_geometry(num_elements=3)
    old = synthesize(Scene(scatterers=(Scatterer(6e-6, 0.8),), tau=25.6e-6),
                     geom)
    new = synthesize(Scene(scatterers=(Scatterer(9e-6, 1.2),), tau=25.6e-6),
                     geom)
    path = tmp_path / "line_000.urf"
    write_channels(path, old)
    old_bytes = path.read_bytes()
    with open(path, "rb") as f:
        write_channels(path, new)
        assert f.read() == old_bytes
    np.testing.assert_array_equal(read_channels(path, geom).samples,
                                  new.samples)


def test_rewrite_with_fewer_channels_leaves_only_the_new_file(tmp_path):
    big = synthesize(Scene(scatterers=(Scatterer(6e-6, 0.8),), tau=51.2e-6),
                     default_geometry(num_elements=5))
    geom = default_geometry(num_elements=2)
    small = synthesize(Scene(scatterers=(), tau=25.6e-6), geom)
    path = tmp_path / "line_000.urf"
    write_channels(path, big)
    write_channels(path, small)
    write_channels(tmp_path / "fresh.urf", small)
    assert path.read_bytes() == (tmp_path / "fresh.urf").read_bytes()
    np.testing.assert_array_equal(read_channels(path, geom).samples,
                                  small.samples)


def test_rewrite_replaces_a_symlink_instead_of_following_it(tmp_path):
    geom = default_geometry(num_elements=3)
    ch = synthesize(Scene(scatterers=(), tau=25.6e-6), geom)
    target = tmp_path / "target.bin"
    target.write_bytes(b"keep")
    path = tmp_path / "line_000.urf"
    path.symlink_to(target)
    write_channels(path, ch)
    assert not path.is_symlink()
    assert target.read_bytes() == b"keep"
    np.testing.assert_array_equal(read_channels(path, geom).samples,
                                  ch.samples)


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
    kind = {"grid_step": GridTooCoarse, "tau": InvariantViolation}[field]
    with pytest.raises(kind, match=f"line_007.urf: {field}"):
        read_channels(path, geom)


@FUZZ
@given(samples=samples_st, grid_step=grid_step_st, share=share_st)
@example(samples=np.array([[-0.0, 0.0, 5e-324, -2.2e-308, 1.5e-310]]),
         grid_step=MAX_GRID_STEP, share=0.5)
def test_fuzz_roundtrip_bitwise(tmp_path, samples, grid_step, share):
    geom, tau = covered_window(samples, grid_step, share)
    path = fresh_dir(tmp_path) / "f.urf"
    write_channels(path, ChannelSet(grid_step, samples, geom, tau))
    back = read_channels(path, geom)
    np.testing.assert_array_equal(back.samples.view(np.uint64),
                                  samples.view(np.uint64))
    assert (back.grid_step, back.tau) == (grid_step, tau)


@pytest.mark.parametrize("share, tau", [(0.6, 25.6e-6), (1.0, 1e200)])
def test_grid_that_ends_before_tau_hat_is_refused(tmp_path, share, tau):
    # the header and body agree, but the grid stops at 60% of tau_hat, or
    # the header's window is so long that tau_hat overflows to inf
    geom = default_geometry(num_elements=3)
    ch = synthesize(Scene(scatterers=(Scatterer(6e-6, 0.8),), tau=25.6e-6),
                    geom)
    keep = int(share * ch.grid_len)
    path = tmp_path / "line_002.urf"
    path.write_bytes(struct.pack("<4sIIdd", b"URF1", 3, keep, ch.grid_step,
                                 tau)
                     + np.ascontiguousarray(ch.samples[:, :keep]).tobytes())
    with np.errstate(over="ignore"):
        bound = tau_hat(tau, geom)
    with pytest.raises(GridTooShort, match=f"line_002.urf: channel grid ends "
                                           f"at .* s, needs {bound:g} s"):
        read_channels(path, geom)


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_non_finite_samples_are_refused(tmp_path, value):
    geom = default_geometry(num_elements=3)
    ch = synthesize(Scene(scatterers=(Scatterer(6e-6, 0.8),), tau=25.6e-6),
                    geom)
    ch.samples[1, 100:200] = value
    path = tmp_path / "line_001.urf"
    write_channels(path, ch)
    with pytest.raises(ParseError, match="line_001.urf: samples must be "
                                         "finite"):
        read_channels(path, geom)


@FUZZ
@given(samples=samples_st, share=share_st, data=st.data())
def test_fuzz_every_truncation_fails(tmp_path, samples, share, data):
    geom, tau = covered_window(samples, MAX_GRID_STEP, share)
    full = fresh_dir(tmp_path) / "full.urf"
    write_channels(full, ChannelSet(MAX_GRID_STEP, samples, geom, tau))
    raw = full.read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1))
    path = full.with_name("f.urf")
    path.write_bytes(raw[:cut])
    with pytest.raises(ParseError):
        read_channels(path, geom)


@FUZZ
@given(num_elements=st.integers(1, 4), grid_len=st.integers(41, 2**32 - 1),
       body=st.binary(max_size=8 * 40))
def test_fuzz_huge_grid_len_fails(tmp_path, num_elements, grid_len, body):
    # the header asks for more samples than the file holds (the body is
    # shorter than one row); the reader must refuse before allocating them
    path = fresh_dir(tmp_path) / "f.urf"
    path.write_bytes(struct.pack("<4sIIdd", b"URF1", num_elements, grid_len,
                                 MAX_GRID_STEP, 25.6e-6) + body)
    with pytest.raises(ParseError):
        read_channels(path, default_geometry(num_elements=num_elements))
