import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xampus
from xampus import (BeamformedLine, Scatterer, Scene, beamform_line,
                    distort_channel, envelope_detect)

from util import SPEED, default_geometry, synthesize


def fig3_setup():
    """Two reflectors at 1 cm and 2 cm depth seen by a 16-element array."""
    geom = default_geometry()
    t1, t2 = 0.01 / SPEED, 0.02 / SPEED
    scene = Scene(scatterers=(Scatterer(t1, 1.0), Scatterer(t2, 1.0)),
                  tau=51.2e-6)
    return geom, scene, (2 * t1, 2 * t2)


def test_distort_identity_on_axis():
    geom = default_geometry(num_elements=17)
    scene = Scene(scatterers=(Scatterer(8e-6, 1.0),), tau=51.2e-6)
    ch = synthesize(scene, geom)
    t = ch.times[: ch.grid_len // 2]
    center = geom.num_elements // 2
    np.testing.assert_allclose(distort_channel(ch, center, 0.0, t),
                               ch.samples[center][: len(t)], atol=1e-15)


def test_distort_realigns_offset_element():
    # outer element at |delta|/c = 10 us sees the echo at 24.1421 us;
    # after the warp the trace peaks back at the round-trip time 20 us
    geom = default_geometry(num_elements=3, pitch=10e-6 * SPEED)
    scene = Scene(scatterers=(Scatterer(10e-6, 1.0),), tau=51.2e-6)
    ch = synthesize(scene, geom)
    raw_peak = np.argmax(np.abs(ch.samples[2])) * ch.grid_step
    assert raw_peak == pytest.approx(2.4142135623730952e-05, abs=ch.grid_step)
    t = ch.times
    warped = distort_channel(ch, 2, 0.0, t)
    peak = np.argmax(np.abs(warped)) * ch.grid_step
    assert peak == pytest.approx(20e-6, abs=2 * ch.grid_step)


def test_distort_outside_grid_is_zero():
    geom = default_geometry(num_elements=17)
    scene = Scene(scatterers=(Scatterer(8e-6, 1.0),), tau=51.2e-6)
    ch = synthesize(scene, geom)
    assert distort_channel(ch, 8, 0.0, np.array([-1e-6]))[0] == 0.0
    assert distort_channel(ch, 0, 0.0, np.array([ch.duration + 1e-6]))[0] == 0.0


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


def test_focal_zones_approach_dynamic():
    geom, scene, _ = fig3_setup()
    ch = synthesize(scene, geom)
    dyn = beamform_line(ch, focus_mode="dynamic", out_step=50e-9)
    fine = beamform_line(ch, focus_mode="dynamic", out_step=50e-9,
                         num_focal_zones=256)
    coarse = beamform_line(ch, focus_mode="dynamic", out_step=50e-9,
                           num_focal_zones=4)
    scale = np.max(np.abs(dyn.samples))
    fine_err = np.max(np.abs(fine.samples - dyn.samples)) / scale
    coarse_err = np.max(np.abs(coarse.samples - dyn.samples)) / scale
    assert fine_err < 0.1
    assert fine_err < coarse_err


def test_out_step_must_not_undersample_grid():
    geom = default_geometry(num_elements=1)
    ch = synthesize(Scene(scatterers=(), tau=25.6e-6), geom)
    with pytest.raises(ValueError):
        beamform_line(ch, out_step=ch.grid_step / 2)


def test_envelope_recovers_gaussian_window():
    step = 50e-9
    t = np.arange(0, 20e-6, step)
    window = np.exp(-((t - 10e-6) ** 2) / (2 * (1e-6) ** 2))
    burst = window * np.cos(2 * np.pi * 5e6 * t)
    line = BeamformedLine(samples=burst, grid_step=step, alpha=0.0,
                          focus_mode="dynamic")
    env = envelope_detect(line)
    core = window > 0.1
    assert np.max(np.abs(env[core] - window[core]) / window[core]) <= 0.05


def test_envelope_zero_line():
    line = BeamformedLine(samples=np.zeros(64), grid_step=50e-9, alpha=0.0,
                          focus_mode="dynamic")
    np.testing.assert_array_equal(envelope_detect(line), np.zeros(64))


def test_envelope_dominates_signal():
    rng = np.random.default_rng(8)
    sig = rng.standard_normal(512)
    line = BeamformedLine(samples=sig, grid_step=50e-9, alpha=0.0,
                          focus_mode="dynamic")
    env = envelope_detect(line)
    assert np.all(env >= np.abs(sig) - 1e-9 * np.max(env))


@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 1025])
def test_envelope_matches_scipy_hilbert(n):
    signal = pytest.importorskip("scipy.signal")
    sig = np.random.default_rng(n).standard_normal(n)
    line = BeamformedLine(samples=sig, grid_step=50e-9, alpha=0.0,
                          focus_mode="dynamic")
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
