import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import xampus
from xampus import (BeamformedLine, ChannelSet, InvariantViolation,
                    Scatterer, Scene, add_interference, arrival_time,
                    beamform_line, envelope_detect)
from xampus import beamform

from util import PULSE, SPEED, default_geometry, sample_trace, synthesize


def reference_beamform(ch, alpha, focus_mode, out_step, duration=None):
    """The branched delay-and-sum the one-loop beamformer replaced, with its
    own spelling of the receive warp."""
    if duration is None:
        duration = ch.tau
    n = int(np.floor(duration / out_step + 1e-9)) + 1
    t = np.arange(n) * out_step
    c = ch.geometry.speed_of_sound
    acc = np.zeros(n)
    if focus_mode == "infinity":
        for m in range(ch.geometry.num_elements):
            acc += sample_trace(ch.samples[m], ch.grid_step, t)
    else:
        for m, delta in enumerate(ch.geometry.offsets):
            d = delta / c
            warped = 0.5 * (t + np.sqrt(t**2 + 4.0 * d * (d - t * np.sin(alpha))))
            acc += sample_trace(ch.samples[m], ch.grid_step, warped)
    return acc


def per_element_beamform(ch, alpha, focus_mode, out_step, duration=None,
                         arrival=arrival_time):
    """Delay-and-sum one element at a time, each read by ``sample_trace``
    at ``arrival(t/2)`` (dynamic focus) or at t (infinity focus)."""
    if duration is None:
        duration = ch.tau
    n = int(np.floor(duration / out_step + 1e-9)) + 1
    t = np.arange(n) * out_step
    c = ch.geometry.speed_of_sound
    acc = np.zeros(n)
    for trace, delta in zip(ch.samples, ch.geometry.offsets):
        read = t
        if focus_mode == "dynamic":
            read = arrival(t / 2.0, alpha, delta, c)
        acc += sample_trace(trace, ch.grid_step, read)
    return acc


def only_element(ch, m):
    """The channel set with every element but ``m`` silenced."""
    samples = np.zeros_like(ch.samples)
    samples[m] = ch.samples[m]
    return ChannelSet(ch.grid_step, samples, ch.geometry, ch.tau)


def fig3_setup():
    """Two reflectors at 1 cm and 2 cm depth seen by a 16-element array."""
    geom = default_geometry()
    t1, t2 = 0.01 / SPEED, 0.02 / SPEED
    scene = Scene(scatterers=(Scatterer(t1, 1.0), Scatterer(t2, 1.0)),
                  tau=51.2e-6)
    return geom, scene, (2 * t1, 2 * t2)


def test_distort_identity_on_axis():
    # the on-axis element is read at its own time: dynamic focus passes it
    geom = default_geometry(num_elements=17)
    scene = Scene(scatterers=(Scatterer(8e-6, 1.0),), tau=51.2e-6)
    ch = synthesize(scene, geom)
    center = geom.num_elements // 2
    line = beamform_line(only_element(ch, center), out_step=ch.grid_step)
    n = len(line.samples)
    np.testing.assert_allclose(line.samples, ch.samples[center][:n],
                               atol=1e-15)


def test_distort_realigns_offset_element():
    # outer element at |delta|/c = 10 us sees the echo at 24.1421 us;
    # dynamic focus puts it back at the round-trip time 20 us
    geom = default_geometry(num_elements=3, pitch=10e-6 * SPEED)
    scene = Scene(scatterers=(Scatterer(10e-6, 1.0),), tau=51.2e-6)
    ch = synthesize(scene, geom)
    raw_peak = np.argmax(np.abs(ch.samples[2])) * ch.grid_step
    assert raw_peak == pytest.approx(2.4142135623730952e-05, abs=ch.grid_step)
    line = beamform_line(only_element(ch, 2), out_step=ch.grid_step)
    peak = np.argmax(np.abs(line.samples)) * ch.grid_step
    assert peak == pytest.approx(20e-6, abs=2 * ch.grid_step)


def test_distort_outside_grid_is_zero():
    geom = default_geometry(num_elements=17)
    scene = Scene(scatterers=(Scatterer(8e-6, 1.0),), tau=51.2e-6)
    ch = add_interference(synthesize(scene, geom), 10.0, 5, seed=3,
                          pulse=PULSE)
    for focus_mode in ("dynamic", "infinity"):
        line = beamform_line(ch, focus_mode=focus_mode, out_step=ch.grid_step,
                             duration=ch.duration + 1e-6)
        past = line.times > ch.duration
        assert past.any() and not line.samples[past].any()
        assert line.samples[~past].any()
    assert sample_trace(ch.samples[8], ch.grid_step, np.array([-1e-6]))[0] == 0.0


def noisy_channels(num_elements, alpha):
    """Three scatterers at 25 dB with 25 speckle, on a beam steered by alpha."""
    geom = default_geometry(num_elements=num_elements)
    scene = Scene(scatterers=(Scatterer(3e-6, 1.0), Scatterer(10e-6, 0.7),
                              Scatterer(17e-6, 1.3)),
                  beam_angle=alpha, tau=51.2e-6)
    return add_interference(synthesize(scene, geom), 25.0, 25, seed=11,
                            pulse=PULSE, beam_angle=alpha)


def beamform_case(alpha, focus_mode):
    ch = noisy_channels(16, alpha)
    new = beamform_line(ch, alpha, focus_mode)
    return new.samples, reference_beamform(ch, alpha, focus_mode, 50e-9)


@pytest.mark.parametrize("alpha", [0.0, 0.3], ids=["0.0-None", "0.3-None"])
def test_one_loop_matches_three_branch_reference(alpha):
    new, ref = beamform_case(alpha, "dynamic")
    assert np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_one_loop_infinity_focus_bitwise():
    new, ref = beamform_case(0.3, "infinity")
    np.testing.assert_array_equal(new, ref)


# At the grid step each block holds one element; at 50 ns a block holds
# every element (5) or 15 of them and then 1 (16).  A duration past the
# grid's end makes the last reads of every element fall off it.
@pytest.mark.parametrize("past_end", [False, True], ids=["tau", "past-end"])
@pytest.mark.parametrize("out_step", [None, 50e-9], ids=["grid", "50ns"])
@pytest.mark.parametrize("num_elements", [16, 5])
@pytest.mark.parametrize("alpha", [0.0, 0.3, -0.5])
@pytest.mark.parametrize("focus_mode", ["dynamic", "infinity"])
def test_blocks_match_per_element_loop_bitwise(focus_mode, alpha,
                                               num_elements, out_step,
                                               past_end):
    ch = noisy_channels(num_elements, alpha)
    step = ch.grid_step if out_step is None else out_step
    duration = ch.duration + 1e-6 if past_end else None
    got = beamform_line(ch, alpha, focus_mode, step, duration).samples
    want = per_element_beamform(ch, alpha, focus_mode, step, duration)
    np.testing.assert_array_equal(got, want)


@pytest.fixture()
def no_kept_plan():
    """An empty plan cache before and after the test, for a test that
    replaces the warp the kept plans were read under."""
    beamform._read_plan.cache_clear()
    yield
    beamform._read_plan.cache_clear()


@pytest.mark.parametrize("out_step", [None, 50e-9], ids=["grid", "50ns"])
@pytest.mark.parametrize("num_elements", [16, 5])
def test_reads_before_time_zero_are_zero_bitwise(monkeypatch, no_kept_plan,
                                                 num_elements, out_step):
    # arrival_time never reads before t = 0; shifted 2 us early, the first
    # reads of every element fall before the grid
    def early(*args):
        return arrival_time(*args) - 2e-6

    monkeypatch.setattr(beamform, "arrival_time", early)
    ch = noisy_channels(num_elements, 0.3)
    step = ch.grid_step if out_step is None else out_step
    got = beamform_line(ch, 0.3, "dynamic", step).samples
    want = per_element_beamform(ch, 0.3, "dynamic", step, arrival=early)
    np.testing.assert_array_equal(got, want)
    assert got[0] == 0.0 and got.any()


def test_grid_resolution_line_allocates_about_one_channel_array():
    """The tracemalloc peak of one line at the grid step, on the default
    16-element array, stays within 1.5x the bytes of the channel array.

    The benchmark's lowrate-L5 set-up beamforms a line at the grid step, so
    a transient here shows in that workload's peak RSS, whose bound is 10%.
    Reading every element in one numpy pass holds about 9x (20 MB); blocks
    of at most ``grid_len`` reads hold one element's temporaries at a time
    and peak near 0.8x.  The per-element loop peaked at 1.07x.
    """
    ch = noisy_channels(16, 0.0)
    tracemalloc.start()
    try:
        beamform_line(ch, out_step=ch.grid_step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * ch.samples.nbytes


@pytest.mark.parametrize("kwargs", [
    {"alpha": math.nan}, {"alpha": math.inf}, {"out_step": math.nan},
    {"out_step": math.inf}, {"duration": math.nan}, {"duration": math.inf},
    {"duration": -1.0}, {"duration": 1e3}, {"duration": 1e12},
], ids=["alpha-nan", "alpha-inf", "out_step-nan", "out_step-inf",
        "duration-nan", "duration-inf", "duration-negative",
        "duration-1e3", "duration-1e12"])
def test_hostile_arguments_are_refused_before_the_plan(kwargs):
    # each once failed in numpy (a cast warning, a bare ValueError, an
    # OverflowError, a negative dimension, a MemoryError for a 149 GiB
    # output, a dimension beyond numpy's maximum) or read NaN positions
    ch = synthesize(Scene(scatterers=(Scatterer(8e-6, 1.0),), tau=25.6e-6),
                    default_geometry(num_elements=4))
    before = beamform._read_plan.cache_info()
    with pytest.raises(InvariantViolation):
        beamform_line(ch, **kwargs)
    assert beamform._read_plan.cache_info() == before


def _plan_cases():
    """(channels, alpha, focus, out_step) on 16 and 5 elements, two angles,
    both focus modes, 50 ns and the grid step; the plan of each differs from
    the others' except for infinity focus, which reads at t whatever the
    angle."""
    cases = {}
    for num_elements in (16, 5):
        ch = noisy_channels(num_elements, 0.3)
        for alpha in (0.0, 0.3):
            for focus in ("dynamic", "infinity"):
                for step, name in ((50e-9, "50ns"), (ch.grid_step, "grid")):
                    cases[f"{num_elements}-{alpha}-{focus}-{name}"] = (
                        ch, alpha, focus, step)
    return cases


def test_kept_plan_matches_a_cleared_cache_bitwise():
    cases = _plan_cases()
    fresh = {}
    for name, (ch, alpha, focus, step) in cases.items():
        beamform._read_plan.cache_clear()
        fresh[name] = beamform_line(ch, alpha, focus, step).samples
    # a stale plan would show: each dynamic case reads differently
    dynamic = [out for name, out in fresh.items() if "dynamic" in name]
    for i in range(len(dynamic)):
        for j in range(i):
            assert not np.array_equal(dynamic[i], dynamic[j])
    # consecutive calls differ in the array, angle, focus or output step
    for name in [*cases, *reversed(cases)]:
        ch, alpha, focus, step = cases[name]
        got = beamform_line(ch, alpha, focus, step).samples
        np.testing.assert_array_equal(got, fresh[name])
        assert beamform._read_plan.cache_info().currsize <= 1
    assert beamform._read_plan.cache_info().maxsize == 1


def test_kept_plan_is_read_only_and_no_larger_than_the_channels():
    ch = noisy_channels(16, 0.0)
    beamform._read_plan.cache_clear()
    beamform_line(ch, out_step=50e-9, duration=ch.tau)
    assert beamform._read_plan.cache_info().currsize == 1
    n = int(np.floor(ch.tau / 50e-9 + 1e-9)) + 1
    blocks = beamform._read_plan(ch.geometry, 0.0, "dynamic", n, 50e-9,
                                 ch.grid_step, ch.grid_len)
    assert beamform._read_plan.cache_info().hits >= 1
    arrays = [arr for block in blocks for arr in block]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 0
    kept = sum(arr.nbytes for arr in arrays)
    assert kept == ch.geometry.num_elements * n * 64
    assert kept <= ch.samples.nbytes


def test_grid_step_line_streams_its_plan():
    ch = noisy_channels(16, 0.0)
    beamform_line(ch, out_step=50e-9)
    before = beamform._read_plan.cache_info()
    beamform_line(ch, out_step=ch.grid_step)
    assert beamform._read_plan.cache_info() == before


def test_concurrent_callers_match_serial_results():
    # threads with different angles take turns in the one-entry plan cache;
    # each line must equal the same call made alone
    ch = noisy_channels(5, 0.3)
    alphas = (0.0, 0.3, -0.5)
    serial = [beamform_line(ch, alpha, out_step=50e-9).samples
              for alpha in alphas]
    mismatches = []

    def caller(k):
        for i in range(30):
            got = beamform_line(ch, alphas[k], out_step=50e-9).samples
            if not np.array_equal(got, serial[k]):
                mismatches.append((k, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,), daemon=True)
                   for k in range(len(alphas))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads), "a caller hung"
    assert not mismatches


def test_single_element_modes_coincide():
    geom = default_geometry(num_elements=1)
    scene = Scene(scatterers=(Scatterer(8e-6, 1.0),), tau=51.2e-6)
    ch = synthesize(scene, geom)
    dyn = beamform_line(ch, focus_mode="dynamic", out_step=ch.grid_step)
    inf = beamform_line(ch, focus_mode="infinity", out_step=ch.grid_step)
    np.testing.assert_allclose(dyn.samples, inf.samples, atol=1e-15)
    n = len(dyn.samples)
    np.testing.assert_allclose(dyn.samples, ch.samples[0][:n], atol=1e-15)


def _pulse_groups(env, step, floor=0.5):
    """Time centers of contiguous regions above floor * max."""
    mask = env > floor * env.max()
    groups = []
    start = None
    for i, on in enumerate(mask):
        if on and start is None:
            start = i
        elif not on and start is not None:
            groups.append(0.5 * (start + i - 1) * step)
            start = None
    if start is not None:
        groups.append(0.5 * (start + len(mask) - 1) * step)
    return groups


def test_two_reflector_line_has_two_groups_at_round_trips():
    geom, scene, trips = fig3_setup()
    ch = synthesize(scene, geom)
    line = beamform_line(ch, focus_mode="dynamic", out_step=50e-9)
    env = envelope_detect(line)
    groups = _pulse_groups(env, line.grid_step)
    assert len(groups) == 2
    assert groups[0] == pytest.approx(trips[0], abs=0.5e-6)
    assert groups[1] == pytest.approx(trips[1], abs=0.5e-6)


def test_dynamic_peak_beats_infinity_focus():
    geom, scene, _ = fig3_setup()
    ch = synthesize(scene, geom)
    dyn = beamform_line(ch, focus_mode="dynamic", out_step=50e-9)
    inf = beamform_line(ch, focus_mode="infinity", out_step=50e-9)
    assert np.max(np.abs(dyn.samples)) >= np.max(np.abs(inf.samples))


def test_single_scatterer_peak_at_round_trip():
    geom = default_geometry()
    t_n = 9e-6
    scene = Scene(scatterers=(Scatterer(t_n, 1.0),), tau=51.2e-6)
    ch = synthesize(scene, geom)
    line = beamform_line(ch, focus_mode="dynamic", out_step=50e-9)
    peak = np.argmax(np.abs(line.samples)) * line.grid_step
    assert abs(peak - 2 * t_n) <= line.grid_step


def test_beamform_linear_in_channels():
    geom, scene, _ = fig3_setup()
    ch = synthesize(scene, geom)
    ch2 = type(ch)(ch.grid_step, 2.0 * ch.samples, ch.geometry, ch.tau)
    a = beamform_line(ch, out_step=50e-9).samples
    b = beamform_line(ch2, out_step=50e-9).samples
    np.testing.assert_allclose(b, 2 * a, rtol=1e-12)


def test_unknown_focus_mode_is_refused():
    ch = synthesize(Scene(scatterers=(), tau=25.6e-6), default_geometry(1))
    with pytest.raises(InvariantViolation,
                       match="^unknown focus_mode 'sideways'$"):
        beamform_line(ch, focus_mode="sideways")


def test_out_step_must_not_undersample_grid():
    geom = default_geometry(num_elements=1)
    ch = synthesize(Scene(scatterers=(), tau=25.6e-6), geom)
    with pytest.raises(InvariantViolation):
        beamform_line(ch, out_step=ch.grid_step / 2)


def test_envelope_recovers_gaussian_window():
    step = 50e-9
    t = np.arange(0, 20e-6, step)
    window = np.exp(-((t - 10e-6) ** 2) / (2 * (1e-6) ** 2))
    burst = window * np.cos(2 * np.pi * 5e6 * t)
    line = BeamformedLine(samples=burst, grid_step=step)
    env = envelope_detect(line)
    core = window > 0.1
    assert np.max(np.abs(env[core] - window[core]) / window[core]) <= 0.05


def test_envelope_zero_line():
    line = BeamformedLine(samples=np.zeros(64), grid_step=50e-9)
    np.testing.assert_array_equal(envelope_detect(line), np.zeros(64))


def test_envelope_of_an_empty_line_is_empty():
    env = envelope_detect(BeamformedLine(samples=np.zeros(0), grid_step=50e-9))
    assert env.shape == (0,)


def test_envelope_dominates_signal():
    rng = np.random.default_rng(8)
    sig = rng.standard_normal(512)
    line = BeamformedLine(samples=sig, grid_step=50e-9)
    env = envelope_detect(line)
    assert np.all(env >= np.abs(sig) - 1e-9 * np.max(env))


@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 1025])
def test_envelope_matches_scipy_hilbert(n):
    signal = pytest.importorskip("scipy.signal")
    sig = np.random.default_rng(n).standard_normal(n)
    line = BeamformedLine(samples=sig, grid_step=50e-9)
    ref = np.abs(signal.hilbert(sig))
    env = envelope_detect(line)
    assert env.shape == ref.shape
    assert np.max(np.abs(env - ref)) <= 1e-12 * np.max(ref)


def test_cli_import_loads_no_scipy():
    probe = ("import sys, xampus.cli; "
             "print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    src = str(Path(xampus.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
