import numpy as np
import pytest

from xampus import (ChannelSet, GridTooCoarse, InvariantViolation, NoiseSpec,
                    Scatterer, Scene, add_interference, arrival_time,
                    simulation_grid_step, synthesize_channels, tau_hat)

from util import PULSE, SPEED, default_geometry, synthesize


def test_empty_scene_all_zero():
    scene = Scene(scatterers=(), tau=51.2e-6)
    ch = synthesize(scene, default_geometry())
    assert not np.any(ch.samples)


def test_single_scatterer_on_axis_peaks_at_round_trip():
    geom = default_geometry(num_elements=17)  # odd: center element on axis
    t_n = 8e-6
    scene = Scene(scatterers=(Scatterer(t_n, 1.0),), tau=51.2e-6)
    ch = synthesize(scene, geom)
    center = geom.num_elements // 2
    peak = np.argmax(np.abs(ch.samples[center]))
    assert abs(peak * ch.grid_step - 2 * t_n) <= ch.grid_step


def test_two_scatterer_peaks_match_arrival_times():
    # reflectors at 1 cm and 2 cm depth; per-element peaks follow the
    # two-way geometry (the deep one isolated by windowing the trace)
    geom = default_geometry()
    t1, t2 = 0.01 / SPEED, 0.02 / SPEED
    scene = Scene(scatterers=(Scatterer(t1, 1.0), Scatterer(t2, 1.0)),
                  tau=51.2e-6)
    ch = synthesize(scene, geom)
    split = int((2 * t1 + 2 * t2) / 2 / ch.grid_step)
    for m, delta in enumerate(geom.offsets):
        for t_n, lo, hi in ((t1, 0, split), (t2, split, ch.grid_len)):
            expect = arrival_time(t_n, 0.0, delta, SPEED)
            peak = lo + np.argmax(np.abs(ch.samples[m][lo:hi]))
            assert abs(peak * ch.grid_step - expect) <= ch.grid_step


def test_grid_covers_warped_bound():
    geom = default_geometry(pitch=1e-3)
    scene = Scene(scatterers=(), tau=51.2e-6)
    ch = synthesize(scene, geom)
    assert ch.duration >= tau_hat(scene.tau, geom) - 1e-15


def test_linearity_in_reflectivity():
    geom = default_geometry(num_elements=5)
    base = Scene(scatterers=(Scatterer(6e-6, 0.7), Scatterer(9e-6, -1.1)),
                 tau=25.6e-6)
    doubled = Scene(scatterers=(Scatterer(6e-6, 1.4), Scatterer(9e-6, -2.2)),
                    tau=25.6e-6)
    ch1 = synthesize(base, geom)
    ch2 = synthesize(doubled, geom)
    np.testing.assert_array_equal(ch2.samples, 2.0 * ch1.samples)


def test_grid_too_coarse():
    scene = Scene(scatterers=(), tau=25.6e-6)
    with pytest.raises(GridTooCoarse):
        synthesize_channels(scene, default_geometry(), PULSE, grid_step=1e-8)
    for step in (float("nan"), 0.0, -3.125e-9):
        with pytest.raises(GridTooCoarse):
            synthesize_channels(scene, default_geometry(), PULSE, step)
    with pytest.raises(GridTooCoarse):
        simulation_grid_step(8)


def test_scene_invariants():
    with pytest.raises(InvariantViolation):
        Scene(scatterers=(Scatterer(-1e-6, 1.0),), tau=25.6e-6)
    with pytest.raises(InvariantViolation):
        Scene(scatterers=(Scatterer(13e-6, 1.0),), tau=25.6e-6)  # 2 t_n >= tau
    with pytest.raises(InvariantViolation):
        Scene(scatterers=(Scatterer(5e-6, 1.0), Scatterer(5e-6, 2.0)),
              tau=25.6e-6)


def test_noise_disabled_is_identity():
    scene = Scene(scatterers=(Scatterer(6e-6, 1.0),), tau=25.6e-6)
    ch = synthesize(scene, default_geometry())
    out = add_interference(ch, None, 0, seed=9)
    np.testing.assert_array_equal(out.samples, ch.samples)
    assert out.samples is not ch.samples


@pytest.mark.parametrize("speckle", [0, 60])
def test_measured_snr_matches_target(speckle):
    scene = Scene(scatterers=(Scatterer(5e-6, 1.0), Scatterer(9e-6, 1.5)),
                  tau=25.6e-6)
    ch = synthesize(scene, default_geometry())
    noisy = add_interference(ch, 20.0, speckle, seed=7, pulse=PULSE)
    added = noisy.samples - ch.samples
    snr = 10 * np.log10(np.mean(ch.samples**2, axis=1)
                        / np.mean(added**2, axis=1))
    assert np.all(np.abs(snr - 20.0) <= 0.5)


def test_noise_deterministic():
    scene = Scene(scatterers=(Scatterer(6e-6, 1.0),), tau=25.6e-6)
    ch = synthesize(scene, default_geometry())
    a = add_interference(ch, 15.0, 40, seed=123, pulse=PULSE)
    b = add_interference(ch, 15.0, 40, seed=123, pulse=PULSE)
    np.testing.assert_array_equal(a.samples, b.samples)
    c = add_interference(ch, 15.0, 40, seed=124, pulse=PULSE)
    assert np.any(c.samples != a.samples)


def test_speckle_requires_snr_budget():
    with pytest.raises(InvariantViolation):
        NoiseSpec(snr_db=None, speckle_count=10, seed=0)
    scene = Scene(scatterers=(Scatterer(6e-6, 1.0),), tau=25.6e-6)
    ch = synthesize(scene, default_geometry())
    with pytest.raises(InvariantViolation):
        add_interference(ch, None, 10, seed=0, pulse=PULSE)


def test_channelset_row_count_checked():
    geom = default_geometry(num_elements=4)
    with pytest.raises(InvariantViolation):
        ChannelSet(grid_step=3.125e-9, samples=np.zeros((3, 100)),
                   geometry=geom, tau=25.6e-6)


@pytest.mark.parametrize("kwargs", [
    {"tau": float("nan")},
    {"tau": float("inf")},
    {"scatterers": (Scatterer(float("nan"), 1.0),)},
    {"scatterers": (Scatterer(float("inf"), 1.0),)},
    {"scatterers": (Scatterer(5e-6, float("nan")),)},
])
def test_scene_rejects_non_finite(kwargs):
    with pytest.raises(InvariantViolation):
        Scene(**{"scatterers": (), "tau": 25.6e-6, **kwargs})


@pytest.mark.parametrize("grid_step",
                         [float("nan"), float("inf"), 0.0, -3.125e-9])
def test_channelset_rejects_bad_grid_step(grid_step):
    geom = default_geometry(num_elements=3)
    with pytest.raises(GridTooCoarse):
        ChannelSet(grid_step=grid_step, samples=np.zeros((3, 100)),
                   geometry=geom, tau=25.6e-6)


@pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_snr_rejected(snr_db):
    with pytest.raises(InvariantViolation):
        NoiseSpec(snr_db=snr_db)
    scene = Scene(scatterers=(Scatterer(6e-6, 1.0),), tau=25.6e-6)
    ch = synthesize(scene, default_geometry(num_elements=3))
    with pytest.raises(InvariantViolation):
        add_interference(ch, snr_db, 0, seed=0)


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), 0.0, -25.6e-6])
def test_channelset_rejects_bad_tau(tau):
    geom = default_geometry(num_elements=3)
    with pytest.raises(InvariantViolation):
        ChannelSet(grid_step=3.125e-9, samples=np.zeros((3, 100)),
                   geometry=geom, tau=tau)
