import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from xampus import (AllZero, ImageGrid, InvariantViolation, LineEstimate,
                    ParseError, assemble_image, read_pgm, render_line,
                    write_pgm)

from util import PULSE, fresh_dir

# deterministic, no example database; each example writes into its own
# fresh_dir(tmp_path)
FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

pixels_st = st.tuples(st.integers(1, 9), st.integers(1, 9)).flatmap(
    lambda shape: arrays(np.uint8, shape))


def make_estimate(delays, amps):
    delays = np.asarray(delays, dtype=float)
    amps = np.asarray(amps, dtype=float)
    return LineEstimate(delays=delays, amplitudes=amps,
                        model_order=len(delays),
                        singular_values=np.ones(1), residual=0.0)


GRID = np.arange(0, 40e-6, 50e-9)


def test_render_empty_estimate():
    trace = render_line(make_estimate([], []), PULSE, GRID)
    np.testing.assert_array_equal(trace, np.zeros(len(GRID)))


def test_render_single_delay_unit_peak():
    t1 = 13e-6
    trace = render_line(make_estimate([t1], [1.0]), PULSE, GRID)
    peak = np.argmax(trace)
    assert abs(GRID[peak] - t1) <= 50e-9
    assert trace[peak] == pytest.approx(1.0, abs=1e-3)


def test_render_negative_amplitude_shows_as_brightness():
    trace = render_line(make_estimate([13e-6], [-2.0]), PULSE, GRID)
    assert trace.max() == pytest.approx(2.0, abs=2e-3)


def test_render_two_disjoint_bumps():
    trace = render_line(make_estimate([10e-6, 30e-6], [1.0, 1.0]), PULSE, GRID)
    sig = PULSE.envelope_sigma
    mid = int(20e-6 / 50e-9)
    assert trace[mid] < 1e-6  # valley between far-apart bumps
    for t1 in (10e-6, 30e-6):
        i = int(t1 / 50e-9)
        assert trace[i] == pytest.approx(1.0, abs=1e-3)
        # bump width follows the envelope: half max near 1.18 sigma
        half_w = np.sum(trace[max(0, i - 200): i + 200] > 0.5) * 50e-9
        assert half_w == pytest.approx(2 * np.sqrt(2 * np.log(2)) * sig,
                                       rel=0.15)


def test_image_formula_endpoints():
    img = assemble_image([[1.0, 0.5, 0.0]], dynamic_range_db=40.0)
    px = img.pixels[:, 0]
    assert px[0] == 255               # v = v_max
    assert px[2] == 0                 # v = 0
    img2 = assemble_image([[1.0, 10 ** (-40 / 20.0)]], dynamic_range_db=40.0)
    assert img2.pixels[1, 0] == 0     # v = v_max * 10^(-DR/20)


def test_image_midpoint_value():
    img = assemble_image([[1.0, 0.1]], dynamic_range_db=40.0)
    assert img.pixels[1, 0] == 128    # 255 * (1 - 20/40) rounded


def test_image_monotone():
    rng = np.random.default_rng(30)
    v = np.sort(rng.uniform(0, 5.0, 50))
    px = assemble_image([v], dynamic_range_db=50.0).pixels[:, 0]
    assert np.all(np.diff(px.astype(int)) >= 0)


def test_image_scale_invariant():
    rng = np.random.default_rng(31)
    traces = rng.uniform(0, 2.0, (4, 64))
    a = assemble_image(traces, 50.0).pixels
    b = assemble_image(traces * 7.25, 50.0).pixels
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("db", ["0", "-10", "nan", "inf"])
def test_image_bad_dynamic_range_is_refused(db):
    with pytest.raises(InvariantViolation,
                       match=f"^dynamic range {float(db)!r} dB must be "
                             "finite and > 0$"):
        assemble_image([[1.0, 0.5]], dynamic_range_db=float(db))


def test_image_all_zero():
    with pytest.raises(AllZero):
        assemble_image(np.zeros((3, 8)))


def test_image_ragged_traces_rejected():
    with pytest.raises(InvariantViolation):
        assemble_image([[1.0, 2.0], [1.0]])


@pytest.mark.parametrize("traces", [[1.0, 2.0], np.ones((2, 2, 2))],
                         ids=["1-D", "3-D"])
def test_image_traces_that_are_not_2d_are_refused(traces):
    with pytest.raises(InvariantViolation,
                       match="^traces must share one length$"):
        assemble_image(traces)


def test_image_layout_lines_as_columns():
    img = assemble_image([[1.0, 0.2], [0.4, 1.0]], 50.0)
    assert img.pixels.shape == (2, 2)  # (axial samples, lines)
    assert img.pixels[0, 0] == 255  # line 0, first axial sample


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(32)
    img = assemble_image(rng.uniform(0.01, 1.0, (5, 9)), 50.0)
    path = tmp_path / "im.pgm"
    write_pgm(path, img)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n5 9\n255\n")
    back = read_pgm(path)
    np.testing.assert_array_equal(back, img.pixels)


def write_image(path, pixels):
    write_pgm(path, ImageGrid(axial_step=50e-9, pixels=pixels))
    return path.read_bytes()


def test_rewrite_leaves_an_open_handle_on_the_old_image(tmp_path):
    # the old file is replaced, not truncated under a reader
    path = tmp_path / "image.pgm"
    old_bytes = write_image(path, np.full((3, 4), 7, dtype=np.uint8))
    new = np.arange(12, dtype=np.uint8).reshape(3, 4)
    with open(path, "rb") as f:
        write_image(path, new)
        assert f.read() == old_bytes
    np.testing.assert_array_equal(read_pgm(path), new)


def test_rewrite_replaces_a_symlink_instead_of_following_it(tmp_path):
    target = tmp_path / "target.bin"
    target.write_bytes(b"keep")
    path = tmp_path / "image.pgm"
    path.symlink_to(target)
    pixels = np.arange(6, dtype=np.uint8).reshape(2, 3)
    write_image(path, pixels)
    assert not path.is_symlink()
    assert target.read_bytes() == b"keep"
    np.testing.assert_array_equal(read_pgm(path), pixels)


def test_smaller_rewrite_leaves_only_the_new_image(tmp_path):
    path = tmp_path / "image.pgm"
    write_image(path, np.full((40, 16), 200, dtype=np.uint8))
    small = np.arange(6, dtype=np.uint8).reshape(3, 2)
    assert write_image(path, small) == write_image(tmp_path / "fresh.pgm",
                                                   small)
    np.testing.assert_array_equal(read_pgm(path), small)


@pytest.mark.parametrize("raw", [
    pytest.param(b"P5\n2 2\n65535\n" + bytes(8), id="maxval-65535"),
    pytest.param(b"P5\n2 2\n1\n" + bytes(4), id="maxval-1"),
    pytest.param(b"P5\n2 2 2\n255\n" + bytes(8), id="three-dimensions"),
    pytest.param(b"P5\n2\n255\n" + bytes(2), id="one-dimension"),
    pytest.param(b"P5\n0 2\n255\n", id="zero-width"),
    pytest.param(b"P5\n-1 2\n255\n" + bytes(2), id="negative-width"),
    pytest.param(b"P5\n+2 2\n255\n" + bytes(4), id="signed-width"),
    pytest.param(b"P5\n2 x\n255\n" + bytes(4), id="non-digit-height"),
    pytest.param(b"P5\n" + b"9" * 5000 + b" 1\n255\n", id="5000-digit-width"),
    pytest.param(b"P2\n2 2\n255\n" + bytes(4), id="ascii-magic"),
    pytest.param(b"P5 2 2 255 " + bytes(4), id="one-line-header"),
])
def test_pgm_rejects_bad_header(tmp_path, raw):
    path = tmp_path / "bad.pgm"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match="bad.pgm: "):
        read_pgm(path)


@FUZZ
@given(pixels=pixels_st)
def test_fuzz_pgm_roundtrip_bitwise(tmp_path, pixels):
    path = fresh_dir(tmp_path) / "f.pgm"
    write_image(path, pixels)
    back = read_pgm(path)
    assert back.dtype == np.uint8
    np.testing.assert_array_equal(back, pixels)


@FUZZ
@given(pixels=pixels_st, data=st.data())
def test_fuzz_pgm_every_truncation_fails(tmp_path, pixels, data):
    full = fresh_dir(tmp_path) / "full.pgm"
    raw = write_image(full, pixels)
    path = full.with_name("f.pgm")
    path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises(ParseError):
        read_pgm(path)


@FUZZ
@given(pixels=pixels_st, extra=st.binary(min_size=1, max_size=16))
def test_fuzz_pgm_extra_bytes_fail(tmp_path, pixels, extra):
    full = fresh_dir(tmp_path) / "full.pgm"
    path = full.with_name("f.pgm")
    path.write_bytes(write_image(full, pixels) + extra)
    with pytest.raises(ParseError):
        read_pgm(path)
