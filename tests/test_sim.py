import multiprocessing
import sys
import threading

import numpy as np
import pytest

from xampus import (ChannelSet, GridTooCoarse, InvariantViolation, NoiseSpec,
                    PulseModel, Scatterer, Scene, add_interference,
                    arrival_time, simulation_grid_step,
                    synthesize_channels, tau_hat)
from xampus import sim
from xampus._worker import both
from xampus.sim import _echoes, _row_power

from util import PULSE, SPEED, default_geometry, eval_pulse, synthesize


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
    end = tau_hat(scene.tau, geom, scene.beam_angle)
    grid_len = int(np.ceil(end / dt - 1e-9)) + 1
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


@pytest.mark.parametrize("alpha", [-0.5, 0.5])
def test_steered_grid_reaches_the_last_echo(alpha):
    # the echo from the window's end reaches the outer element after the
    # unsteered tau_hat (51.93 against 51.24 us), so the grid follows alpha
    geom = default_geometry()
    scene = Scene(scatterers=(), beam_angle=alpha, tau=51.2e-6)
    last = arrival_time(scene.tau / 2, alpha, geom.offsets, SPEED).max()
    assert last > tau_hat(scene.tau, geom) * (1 + 1e-3)
    assert synthesize(scene, geom).duration >= last


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
    for gain in (0.0, -0.0):  # a scatterer must reflect
        with pytest.raises(InvariantViolation, match="nonzero"):
            Scene(scatterers=(Scatterer(5e-6, gain),), tau=25.6e-6)


def test_noise_disabled_is_identity():
    scene = Scene(scatterers=(Scatterer(6e-6, 1.0),), tau=25.6e-6)
    ch = synthesize(scene, default_geometry())
    out = add_interference(ch, None, 0, seed=9, pulse=PULSE)
    np.testing.assert_array_equal(out.samples, ch.samples)
    assert out.samples is not ch.samples


def box_muller(rng, shape):
    """Float32 unit normals by Box-Muller from ``rng``'s uniforms, written
    out of place: radii from the first half of the uniforms, angles from
    the second, the cosines then the sines in row-major order."""
    n = shape[0] * shape[1]
    half = -(-n // 2)
    u = rng.random(2 * half, dtype=np.float32)
    r = np.sqrt(-2 * np.log1p(-u[:half]))
    theta = 2 * np.pi * u[half:]
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n] \
        .reshape(shape)


def white_noise(seed, shape):
    """The unit white noise of one call: one SFC64 stream, the first that
    ``SeedSequence(seed).spawn`` gives."""
    stream = np.random.SeedSequence(seed).spawn(1)[0]
    return box_muller(np.random.Generator(np.random.SFC64(stream)), shape)


def _interference_reference(ch, snr_db, speckle_count, seed, beam_angle):
    """The full-array algorithm: a copy of the samples plus the scaled
    speckle plus the white noise, scaled in float64."""
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
    out += white_noise(seed, ch.samples.shape) \
        * np.sqrt((1.0 - frac) * target)[:, None]
    return out


@pytest.mark.parametrize("speckle", [0, 25])
def test_interference_matches_full_array_reference(speckle):
    # rows of over 16384 samples: einsum sums such a row in another order
    # when it comes alone than as one row of a larger array
    scene = Scene(scatterers=(Scatterer(5e-6, 1.0), Scatterer(9e-6, -1.5)),
                  beam_angle=0.1, tau=2 * TAU)
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


def test_add_interference_rejects_a_negative_seed():
    ch = synthesize(Scene(scatterers=(Scatterer(6e-6, 1.0),), tau=25.6e-6),
                    default_geometry(num_elements=3))
    with pytest.raises(InvariantViolation, match="seed -1 must be >= 0"):
        add_interference(ch, 20.0, 0, seed=-1, pulse=PULSE)


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
        add_interference(ch, snr_db, 0, seed=0, pulse=PULSE)


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
    # the same draws: positions, then gains, then the white noise
    rng = np.random.default_rng(5)
    positions = rng.uniform(0.02 * TAU, 0.48 * TAU, speckle)
    gains = rng.standard_normal(speckle)
    white = white_noise(5, ch.samples.shape)
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


def every_row(t0, gains, dt, grid_len, pulse):
    """``_echoes`` called once per row, so that no row is copied."""
    return np.vstack([_echoes(row[None], gains, dt, grid_len, pulse)
                      for row in t0])


@pytest.mark.parametrize("num_elements, beam_angle, mirrored", [
    (16, 0.0, True), (5, 0.0, True), (16, 0.3, False),
])
def test_mirrored_rows_are_copied_bitwise(num_elements, beam_angle,
                                          mirrored):
    # unsteered, rows m and N-1-m have bitwise equal arrival times (with 5
    # elements the centre row has no partner); steered, no two rows do
    geom = default_geometry(num_elements=num_elements)
    dt = simulation_grid_step(16)
    times = np.array([3e-6, 7.7e-6, 12e-6])
    t0 = arrival_time(times, beam_angle, geom.offsets[:, None], SPEED)
    assert np.array_equal(t0, t0[::-1]) == mirrored
    gains = np.array([1.0, -0.4, 2.2])
    np.testing.assert_array_equal(_echoes(t0, gains, dt, 9000, PULSE),
                                  every_row(t0, gains, dt, 9000, PULSE))


@pytest.mark.parametrize("num_elements", [16, 5])
def test_unsteered_channels_mirror_bitwise(num_elements):
    # the copy rests on this: element m's row is element N-1-m's
    scene = Scene(scatterers=(Scatterer(4e-6, 1.0), Scatterer(11e-6, -0.6)),
                  tau=TAU)
    ch = synthesize(scene, default_geometry(num_elements=num_elements))
    np.testing.assert_array_equal(ch.samples, ch.samples[::-1])


def test_echoes_reject_a_pulse_the_grid_cannot_resolve():
    narrow = PulseModel(carrier_hz=5e6, envelope_sigma=1e-9)
    scene = Scene(scatterers=(Scatterer(6e-6, 1.0),), tau=TAU)
    with pytest.raises(GridTooCoarse):
        synthesize(scene, default_geometry(), pulse=narrow)


def test_echoes_whose_summed_peaks_pass_the_float_range_are_refused():
    # no sample exceeds the sum of the peaks, and that sum is checked before
    # any row: echoes 10 us apart, each of whose samples is finite, too
    with pytest.raises(InvariantViolation, match="summed .* overflows$"):
        _echoes([[2e-6, 12e-6]], [1e308, 1e308], simulation_grid_step(),
                8000, PULSE)


def test_worker_share_runs_under_the_callers_errstate():
    # numpy's errstate is a context variable: a share run outside the
    # caller's context would warn, here an error, on an overflow it ignores
    with np.errstate(over="ignore"):
        got = both(lambda: (np.geterr()["over"], np.float64(1e308) * 10.0),
                   lambda: None)
    assert got == (("ignore", np.inf), None)


def test_speckle_error_on_the_worker_reaches_the_caller():
    # the speckle rows are synthesized on the package's worker thread while
    # the caller draws the noise; the worker's error must release the
    # caller with its type unchanged.  A helper thread turns a hang into a
    # failure instead of a stalled suite.
    ch = synthesize(Scene(scatterers=(Scatterer(6e-6, 1.0),), tau=TAU),
                    default_geometry(num_elements=5))
    narrow = PulseModel(carrier_hz=5e6, envelope_sigma=1e-9)
    raised = []

    def call():
        try:
            add_interference(ch, 20.0, 5, 3, pulse=narrow)
        except GridTooCoarse as e:
            raised.append(e)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "add_interference hung"
    assert len(raised) == 1


def test_forked_child_gets_its_own_worker():
    # a fork copies the worker's executor but not its thread; a child that
    # queued on the parent's executor would wait forever.  One child repeats
    # the parent's call and must return its result bitwise, or is killed.
    ch = synthesize(Scene(scatterers=(Scatterer(6e-6, 1.0),), tau=TAU),
                    default_geometry(num_elements=5))

    def interfere():
        return add_interference(ch, 20.0, 5, 3, pulse=PULSE).samples

    want = interfere()
    fork = multiprocessing.get_context("fork")
    receive, send = fork.Pipe(duplex=False)
    child = fork.Process(target=lambda: send.send_bytes(interfere().tobytes()))
    child.start()
    with receive, send:
        try:
            assert receive.poll(timeout=30), "a forked child hung"
            got = np.frombuffer(receive.recv_bytes()).reshape(want.shape)
        finally:
            child.kill()  # ends a hung child; a finished one is exiting
            child.join()
            child.close()
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("kwargs", [
    {"beam_angle": float("nan")},
    {"beam_angle": float("inf")},
    {"beam_angle": float("nan"), "speckle_count": 0},
    {"speckle_count": -3},
    {"speckle_count": 2.5},
    {"speckle_count": True},
    {"seed": 1.5},
    {"seed": "3"},
    {"seed": True},
])
def test_add_interference_rejects_bad_angle_or_speckle_count(kwargs):
    ch = synthesize(Scene(scatterers=(Scatterer(6e-6, 1.0),), tau=TAU),
                    default_geometry(num_elements=3))
    args = {"snr_db": 20.0, "speckle_count": 10, "seed": 0, "pulse": PULSE,
            **kwargs}
    with pytest.raises(InvariantViolation):
        add_interference(ch, **args)


def _serial_both(worker_first):
    """A stand-in for ``sim.both`` that runs the worker's share on the
    calling thread, before the caller's share or after it."""
    def both(on_worker, here):
        if worker_first:
            return on_worker(), here()
        mine = here()
        return on_worker(), mine
    return both


@pytest.mark.parametrize("speckle", [0, 25])
def test_noise_does_not_depend_on_the_thread_that_draws_it(speckle,
                                                           monkeypatch):
    # the worker's share before the caller's, or the caller's before the
    # worker's: the noise depends on the seed alone
    ch = synthesize(Scene(scatterers=(Scatterer(5e-6, 1.0),), tau=TAU),
                    default_geometry(num_elements=16))

    def interfere():
        return add_interference(ch, 20.0, speckle, seed=4, pulse=PULSE).samples

    threaded = interfere()
    for worker_first in (True, False):
        monkeypatch.setattr(sim, "both", _serial_both(worker_first))
        np.testing.assert_array_equal(interfere(), threaded)


def test_speckle_is_synthesized_on_the_worker(monkeypatch):
    # the worker builds clean plus speckle, the array that becomes the
    # output, while the caller draws the whole noise array; the caller
    # building the output instead cost about 1000 minor page faults and a
    # fifth of a benchmark line, and splitting the noise rows between both
    # threads measured no gain
    ch = synthesize(Scene(scatterers=(Scatterer(5e-6, 1.0),), tau=TAU),
                    default_geometry(num_elements=4))
    threads = {}

    def recording(name):
        original = getattr(sim, name)

        def record(*args):
            threads.setdefault(name, []).append(
                threading.current_thread().name)
            return original(*args)
        monkeypatch.setattr(sim, name, record)

    recording("_echoes")
    recording("_unit_noise")
    add_interference(ch, 20.0, 25, seed=4, pulse=PULSE)
    assert len(threads["_echoes"]) == 1
    assert threads["_echoes"][0].startswith("xampus-worker")
    assert threads["_unit_noise"] == [threading.current_thread().name]


def test_each_row_and_seed_has_its_own_noise_stream():
    # the CLI gives line i the seed noise.seed + i, so neighbouring seeds
    # must not share a row's noise; one stream fills every row, so no two
    # rows may repeat each other; nor may the noise repeat the stream the
    # speckle is drawn from
    ch = synthesize(Scene(scatterers=(Scatterer(5e-6, 1.0),), tau=TAU),
                    default_geometry(num_elements=4))
    sd = np.sqrt(_row_power(ch.samples) * 10.0 ** (-20.0 / 10.0))

    def noise(seed):
        out = add_interference(ch, 20.0, 0, seed=seed, pulse=PULSE).samples
        return (out - ch.samples) / sd[:, None]

    a, b = noise(7), noise(8)
    shared = box_muller(np.random.default_rng(7), a.shape)
    assert np.max(np.abs(a[0] - shared[0])) > 1.0
    assert np.all(np.max(np.abs(a - b), axis=1) > 1.0)
    assert all(np.max(np.abs(a[m] - a[n])) > 1.0
               for m in range(len(a)) for n in range(m))


def test_white_noise_is_unit_normal():
    """Over n >= 1M samples of one call with no speckle, each row divided by
    its noise standard deviation, within bounds fixed before the first run
    at five standard errors of a unit normal sample:

    - |mean| <= 5 / sqrt(n);
    - |variance - 1| <= 5 sqrt(2 / n);
    - |excess kurtosis| <= 5 sqrt(24 / n);
    - max |z| <= 5.78, the 24-bit uniforms' bound sqrt(48 ln 2) ~ 5.768
      plus float32 rounding;
    - the share of |z| > 3 within 5 standard errors of 0.0027.
    """
    geom = default_geometry(num_elements=16)
    ch = synthesize(Scene(scatterers=(Scatterer(50e-6, 1.0),), tau=8 * TAU),
                    geom)
    assert ch.samples.size >= 1_000_000
    out = add_interference(ch, 0.0, 0, seed=2024, pulse=PULSE)
    z = ((out.samples - ch.samples)
         / np.sqrt(_row_power(ch.samples))[:, None]).ravel()
    n = z.size
    mean = z.mean()
    var = np.mean((z - mean) ** 2)
    kurtosis = np.mean((z - mean) ** 4) / var**2 - 3.0
    assert abs(mean) <= 5 / np.sqrt(n)
    assert abs(var - 1.0) <= 5 * np.sqrt(2 / n)
    assert abs(kurtosis) <= 5 * np.sqrt(24 / n)
    assert np.max(np.abs(z)) <= 5.78
    p = 0.0027
    assert abs(np.mean(np.abs(z) > 3) - p) <= 5 * np.sqrt(p * (1 - p) / n)


def test_concurrent_callers_each_get_every_row():
    # more calling threads than cores, each queueing shares on the one
    # worker and switching every microsecond: each call's noise must come
    # from that call's own stream and be added to that call's own output,
    # or a call would get noise from another seed, and not match its
    # serial result
    ch = synthesize(Scene(scatterers=(Scatterer(5e-6, 1.0),), tau=TAU),
                    default_geometry(num_elements=8))
    want = {seed: _interference_reference(ch, 20.0, 5, seed, 0.0)
            for seed in range(4)}
    mismatched = []

    def call(seed):
        for _ in range(5):
            got = add_interference(ch, 20.0, 5, seed, pulse=PULSE).samples
            if not np.array_equal(got, want[seed]):
                mismatched.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(seed,), daemon=True)
                   for seed in want]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers), "a caller hung"
    assert mismatched == []
