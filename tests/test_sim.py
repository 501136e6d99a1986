import numpy as np
import pytest

from xampus import (ChannelSet, GridTooCoarse, InvariantViolation, NoiseSpec,
                    PulseModel, Scatterer, Scene, add_interference,
                    arrival_time, eval_pulse, simulation_grid_step,
                    synthesize_channels, tau_hat)
from xampus.sim import _echoes, _row_power

from util import PULSE, SPEED, default_geometry, synthesize


def dense_echoes(t0, gains, dt, grid_len, pulse):
    """Per-echo reference: gain * h(idx*dt - t0) over the +/- 8 sigma window."""
    half = 8.0 * pulse.envelope_sigma
    rows = np.zeros((len(t0), grid_len))
    for row, times in zip(rows, t0):
        for t, gain in zip(times, gains):
            lo = max(0, int(np.ceil((t - half) / dt)))
            hi = min(grid_len - 1, int(np.floor((t + half) / dt)))
            idx = np.arange(lo, hi + 1)
            row[idx] += gain * eval_pulse(pulse, idx * dt - t)
    return rows


def assert_rows_close(got, want, rel=1e-12):
    """Each row within rel times its peak; all-zero rows must be exact."""
    peak = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= rel * peak)


def reference_channels(scene, geom):
    dt = simulation_grid_step(16)
    grid_len = int(np.ceil(tau_hat(scene.tau, geom) / dt - 1e-9)) + 1
    t0 = [[float(arrival_time(sc.axial_time, scene.beam_angle, delta, SPEED))
           for sc in scene.scatterers] for delta in geom.offsets]
    gains = [sc.reflectivity for sc in scene.scatterers]
    return dense_echoes(t0, gains, dt, grid_len, PULSE)


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


def _interference_reference(ch, snr_db, speckle_count, seed, beam_angle):
    """The full-array algorithm: a copy of the samples plus the scaled
    speckle plus one full-array white-noise draw."""
    rng = np.random.default_rng(seed)
    target = _row_power(ch.samples) * 10.0 ** (-snr_db / 10.0)
    out = ch.samples.copy()
    frac = 0.5 if speckle_count else 0.0
    if speckle_count:
        positions = rng.uniform(0.02 * ch.tau, 0.48 * ch.tau, speckle_count)
        gains = rng.standard_normal(speckle_count)
        t0 = arrival_time(positions, beam_angle, ch.geometry.offsets[:, None],
                          SPEED)
        speckle = _echoes(t0, gains, ch.grid_step, ch.grid_len, PULSE)
        speckle *= np.sqrt(frac * target / _row_power(speckle))[:, None]
        out += speckle
    white = rng.standard_normal(ch.samples.shape)
    white *= np.sqrt((1.0 - frac) * target)[:, None]
    out += white
    return out


@pytest.mark.parametrize("speckle", [0, 25])
def test_interference_matches_full_array_reference(speckle):
    scene = Scene(scatterers=(Scatterer(5e-6, 1.0), Scatterer(9e-6, -1.5)),
                  beam_angle=0.1, tau=TAU)
    ch = synthesize(scene, default_geometry(num_elements=5))
    before = ch.samples.copy()
    out = add_interference(ch, 20.0, speckle, seed=11, pulse=PULSE,
                           beam_angle=0.1)
    np.testing.assert_array_equal(
        out.samples, _interference_reference(ch, 20.0, speckle, 11, 0.1))
    np.testing.assert_array_equal(ch.samples, before)
    assert not np.shares_memory(out.samples, ch.samples)


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
    {"beam_angle": float("nan")},
    {"beam_angle": float("inf")},
    {"beam_angle": -float("inf")},
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


TAU = 25.6e-6


@pytest.mark.parametrize("num_elements, beam_angle, scatterers", [
    (16, 0.0, ((6e-6, 0.7), (9e-6, -1.1))),
    (1, 0.0, ((6e-6, 1.0),)),
    (17, 0.0, ((6e-6, 1.0), (6.05e-6, -0.4))),  # overlapping echoes
    (17, 0.25, ((4e-6, -0.8), (9e-6, 1.3))),  # steered beam
    # windows clipped at t = 0 and at the grid end
    (16, 0.0, ((0.1e-6, 1.0), (TAU / 2 - 0.1e-6, -2.0))),
    (5, -0.3, ((0.05e-6, 0.5), (TAU / 2 - 0.02e-6, 1.0))),
    (17, 0.0, ()),
])
def test_synthesis_matches_dense_reference(num_elements, beam_angle,
                                           scatterers):
    geom = default_geometry(num_elements=num_elements)
    scene = Scene(scatterers=tuple(Scatterer(t, r) for t, r in scatterers),
                  beam_angle=beam_angle, tau=TAU)
    ch = synthesize(scene, geom)
    assert_rows_close(ch.samples, reference_channels(scene, geom))


@pytest.mark.parametrize("num_elements, beam_angle, speckle", [
    (16, 0.0, 25), (1, 0.0, 40), (17, 0.2, 30),
])
def test_speckle_matches_dense_reference(num_elements, beam_angle, speckle):
    geom = default_geometry(num_elements=num_elements)
    scene = Scene(scatterers=(Scatterer(5e-6, 1.0), Scatterer(9e-6, -1.5)),
                  beam_angle=beam_angle, tau=TAU)
    ch = synthesize(scene, geom)
    out = add_interference(ch, 20.0, speckle, seed=5, pulse=PULSE,
                           beam_angle=beam_angle)
    # same draws in the same order: positions, gains, then the white noise
    rng = np.random.default_rng(5)
    positions = rng.uniform(0.02 * TAU, 0.48 * TAU, speckle)
    gains = rng.standard_normal(speckle)
    white = rng.standard_normal(ch.samples.shape)
    t0 = [arrival_time(positions, beam_angle, delta, SPEED)
          for delta in geom.offsets]
    ref = dense_echoes(t0, gains, ch.grid_step, ch.grid_len, PULSE)
    target = np.mean(ch.samples**2, axis=1) * 10.0 ** (-20.0 / 10.0)
    ref *= np.sqrt(0.5 * target / np.mean(ref**2, axis=1))[:, None]
    got = out.samples - ch.samples - white * np.sqrt(0.5 * target)[:, None]
    assert_rows_close(got, ref)


def test_echoes_match_dense_reference_at_any_arrival():
    # arrivals on a sample, on a half sample (the anchor's rounding tie),
    # at t = 0, at and past the grid end, with negative gains
    dt, grid_len = simulation_grid_step(16), 2000
    t0 = np.array([[0.0, 10.5 * dt, 1000 * dt, 1e-9, (grid_len - 1) * dt],
                   [0.5 * dt, 777.25 * dt, 1500.5 * dt, 0.25 * dt,
                    (grid_len + 100) * dt]])
    gains = np.array([1.0, -2.5, 0.3, 1.7, -0.9])
    assert_rows_close(_echoes(t0, gains, dt, grid_len, PULSE),
                      dense_echoes(t0, gains, dt, grid_len, PULSE))


def test_each_echo_covers_exactly_its_window():
    # one echo per row: the nonzero samples are the +/- 8 sigma window,
    # whose end samples (~1e-14 of the gain) the tolerance above cannot see
    dt, grid_len = simulation_grid_step(16), 2000
    t0 = (np.array([0.0, 10.5, 300.0, 300.25, 300.5, 300.75, 1999.0, 2100.0])
          * dt)[:, None]
    got = _echoes(t0, [1.0], dt, grid_len, PULSE)
    want = dense_echoes(t0, [1.0], dt, grid_len, PULSE)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(np.flatnonzero(g), np.flatnonzero(w))


def test_echoes_reject_a_pulse_the_grid_cannot_resolve():
    narrow = PulseModel(carrier_hz=5e6, envelope_sigma=1e-9)
    scene = Scene(scatterers=(Scatterer(6e-6, 1.0),), tau=TAU)
    with pytest.raises(GridTooCoarse):
        synthesize(scene, default_geometry(), pulse=narrow)


@pytest.mark.parametrize("kwargs", [
    {"beam_angle": float("nan")},
    {"beam_angle": float("inf")},
    {"beam_angle": float("nan"), "speckle_count": 0},
    {"speckle_count": -3},
    {"speckle_count": 2.5},
    {"speckle_count": True},
])
def test_add_interference_rejects_bad_angle_or_speckle_count(kwargs):
    ch = synthesize(Scene(scatterers=(Scatterer(6e-6, 1.0),), tau=TAU),
                    default_geometry(num_elements=3))
    args = {"snr_db": 20.0, "speckle_count": 10, "seed": 0, "pulse": PULSE,
            **kwargs}
    with pytest.raises(InvariantViolation):
        add_interference(ch, **args)
