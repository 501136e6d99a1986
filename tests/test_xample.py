import json
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from xampus import (BeamformedLine, ChannelSet, GridTooShort,
                    InvariantViolation, OffBand, PulseModel, Scatterer, Scene,
                    XampleConfig, add_interference, beamform_line, build_S,
                    select_kappa, xample_beamformed_oracle, xample_channels)
from xampus.cli import main
from xampus import xample
from xampus.xample import _bank_tables

from util import (PULSE, SPEED, default_geometry, kernel_value, random_scene,
                  synthesize)


def make_config(L=5, rho=1.0, tau=25.6e-6, geometry=None, focus="dynamic"):
    geometry = geometry or default_geometry()
    return XampleConfig.create(L, rho, tau, PULSE, geometry, focus_mode=focus)


# --- harmonic selection -----------------------------------------------------

def test_select_kappa_reference_case():
    kappa = select_kappa(30, 1, 102.4e-6, 5.142e6)
    assert len(kappa) == 120
    np.testing.assert_array_equal(kappa[:60], np.arange(498, 558))
    np.testing.assert_array_equal(kappa[60:], -np.arange(498, 558))


def test_select_kappa_sizes():
    assert len(select_kappa(30, 4, 102.4e-6, 5.142e6)) == 480
    assert len(select_kappa(1, 1, 102.4e-6, 5.142e6)) == 4


def test_select_kappa_pairing():
    kappa = select_kappa(5, 2, 25.6e-6, 5.142e6)
    K = len(kappa) // 2
    np.testing.assert_array_equal(kappa[K:], -kappa[:K])


def test_select_kappa_off_band():
    # a 1 us envelope narrows the band to about +/-1 MHz around the carrier,
    # while K = 240 harmonics at tau = 25.6 us span 0.5 to 9.8 MHz
    long_pulse = PulseModel(carrier_hz=PULSE.carrier_hz, envelope_sigma=1e-6)
    with pytest.raises(OffBand):
        XampleConfig.create(30, 4, 25.6e-6, long_pulse, default_geometry())
    # the usual short pulse covers the same set
    XampleConfig.create(30, 4, 25.6e-6, PULSE, default_geometry())


def test_select_kappa_validation():
    with pytest.raises(InvariantViolation):
        select_kappa(0, 1, 102.4e-6, 5.142e6)
    with pytest.raises(InvariantViolation):
        select_kappa(5, 0.5, 102.4e-6, 5.142e6)
    with pytest.raises(InvariantViolation):
        select_kappa(2, 1.2, 102.4e-6, 5.142e6)  # 2*rho*L = 4.8
    for rho in (np.inf, np.nan, 1e300):
        with pytest.raises(InvariantViolation):
            select_kappa(5, rho, 102.4e-6, 5.142e6)
    # checked before 2*rho*L is formed, which overflows a float here
    for L, rho in ((10**400, 1), (10**9, 1e300)):
        with pytest.raises(InvariantViolation, match="2\\*\\*53"):
            select_kappa(L, rho, 102.4e-6, 5.142e6)
    # K = 1e7 reaches below k = 1: refused before its index range is built
    tracemalloc.start()
    try:
        with pytest.raises(InvariantViolation, match="k < 1"):
            select_kappa(5, 1e6, 102.4e-6, 5.142e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_config_invariants():
    cfg = make_config(L=5, rho=2)
    assert cfg.K == 20
    assert cfg.p == 40
    assert len(cfg.kappa) == 40
    for rho in (np.inf, np.nan):
        with pytest.raises(InvariantViolation):
            XampleConfig(L=5, rho=rho, tau=cfg.tau,
                         carrier_hz=cfg.carrier_hz, focus_mode="dynamic",
                         geometry=cfg.geometry)
    with pytest.raises(InvariantViolation, match="focus_mode"):
        XampleConfig(L=5, rho=2, tau=cfg.tau, carrier_hz=cfg.carrier_hz,
                     focus_mode="sideways", geometry=cfg.geometry)
    # kappa is derived from (L, rho, tau, carrier_hz), never passed in
    with pytest.raises(TypeError):
        XampleConfig(L=5, rho=2, tau=cfg.tau, carrier_hz=cfg.carrier_hz,
                     kappa=cfg.kappa, focus_mode="dynamic",
                     geometry=cfg.geometry)


# --- mixing matrix ----------------------------------------------------------

def test_build_s_p2():
    S = build_S(2).entries
    np.testing.assert_allclose(S, [[0.5, 0.5], [-0.5j, 0.5j]], atol=0)


def test_build_s_invertible():
    S = build_S(4).entries
    assert np.isfinite(np.linalg.cond(S))
    np.testing.assert_allclose(np.linalg.inv(S) @ S, np.eye(4), atol=1e-12)


def test_build_s_rows_make_cos_sin_kernels():
    cfg = make_config(L=2, rho=1)  # p = 8
    S = build_S(cfg.p)
    rng = np.random.default_rng(10)
    t = rng.uniform(0, cfg.tau, 10)
    half = cfg.p // 2
    for q in range(half):
        s_q = np.exp((-2j * np.pi / cfg.tau) * np.outer(t, cfg.kappa)) \
            @ S.entries[q]
        expect = np.cos(2 * np.pi * cfg.kappa_pos[q] * t / cfg.tau)
        np.testing.assert_allclose(s_q.real, expect, atol=1e-12)
        np.testing.assert_allclose(s_q.imag, 0.0, atol=1e-12)
        s_q2 = np.exp((-2j * np.pi / cfg.tau) * np.outer(t, cfg.kappa)) \
            @ S.entries[q + half]
        np.testing.assert_allclose(
            s_q2.real, -np.sin(2 * np.pi * cfg.kappa_pos[q] * t / cfg.tau),
            atol=1e-12)


def test_build_s_odd_p_rejected():
    for p in (0, 3):
        with pytest.raises(InvariantViolation):
            build_S(p)


# --- kernels ----------------------------------------------------------------

def test_kernel_on_axis_is_plain_cosine():
    geom = default_geometry(num_elements=17)
    cfg = make_config(L=2, rho=1, geometry=geom)
    t = np.linspace(0, cfg.tau, 37)
    center = geom.num_elements // 2
    for q in range(cfg.p // 2):
        vals = kernel_value(cfg, q, center, t)
        np.testing.assert_allclose(
            vals, np.cos(2 * np.pi * cfg.kappa_pos[q] * t / cfg.tau),
            atol=1e-12)


def test_kernel_zero_before_step():
    cfg = make_config(L=2, rho=1, geometry=default_geometry(pitch=1e-3))
    a = cfg.geometry.offset_times[0]
    assert kernel_value(cfg, 0, 0, a / 2) == 0.0
    assert kernel_value(cfg, 0, 0, 0.0) == 0.0


def test_kernel_symmetric_elements():
    cfg = make_config(L=2, rho=1)
    t = np.linspace(0, cfg.tau, 64)
    n = cfg.geometry.num_elements
    for q in (0, cfg.p - 1):
        np.testing.assert_array_equal(kernel_value(cfg, q, 2, t),
                                      kernel_value(cfg, q, n - 3, t))


def test_kernel_sum_is_real_by_pairing():
    # imaginary part of the raw complex kernel sum vanishes to roundoff
    cfg = make_config(L=3, rho=1, geometry=default_geometry(pitch=0.8e-3))
    S = build_S(cfg.p)
    rng = np.random.default_rng(11)
    a = cfg.geometry.offset_times[-1]
    t = rng.uniform(a * 1.01, cfg.tau, 200)
    phase = t - a**2 / t
    ex = np.exp((-2j * np.pi / cfg.tau) * np.outer(phase, cfg.kappa))
    for q in range(cfg.p):
        vals = (1 + (a / t) ** 2) * (ex @ S.entries[q])
        assert np.max(np.abs(vals.imag)) <= 1e-12 * np.max(np.abs(vals.real))


def test_kernel_infinity_mode_drops_warp():
    geom = default_geometry(pitch=1e-3)
    cfg = make_config(L=2, rho=1, geometry=geom, focus="infinity")
    t = np.linspace(0, cfg.tau, 50)
    vals = kernel_value(cfg, 0, 0, t)  # outermost element, no step/warp
    np.testing.assert_allclose(
        vals, np.cos(2 * np.pi * cfg.kappa_pos[0] * t / cfg.tau), atol=1e-12)


# --- sampling ---------------------------------------------------------------

def test_zero_channels_give_zero_samples():
    geom = default_geometry()
    cfg = make_config(geometry=geom)
    ch = synthesize(Scene(scatterers=(), tau=cfg.tau), geom)
    out = xample_channels(ch, cfg, build_S(cfg.p))
    assert not np.any(out.c_qm)
    assert not np.any(out.c)


def test_sampling_linear_in_channels():
    geom = default_geometry()
    cfg = make_config(geometry=geom)
    scene = Scene(scatterers=(Scatterer(6e-6, 1.0),), tau=cfg.tau)
    ch = synthesize(scene, geom)
    S = build_S(cfg.p)
    c1 = xample_channels(ch, cfg, S).c
    ch2 = ChannelSet(ch.grid_step, 2 * ch.samples, geom, ch.tau)
    c2 = xample_channels(ch2, cfg, S).c
    np.testing.assert_allclose(c2, 2 * c1, rtol=1e-12)


def test_output_fold_identity():
    geom = default_geometry()
    scene, _, _ = random_scene(np.random.default_rng(12), 3, 25.6e-6)
    ch = synthesize(scene, geom)
    half = geom.num_elements // 2
    for focus in ("dynamic", "infinity"):
        cfg = make_config(geometry=geom, focus=focus)
        S = build_S(cfg.p)
        out = xample_channels(ch, cfg, S)
        plain = _dense_c_qm(ch, cfg, S).sum(axis=1)  # one pass per element
        scale = np.linalg.norm(plain)
        assert np.max(np.abs(out.c - plain)) <= 1e-12 * scale
        assert np.array_equal(out.c, out.c_qm.sum(axis=1))
        assert out.c_qm.shape == (cfg.p, geom.num_elements)
        # grouped layout: a mirror pair shares column i < N/2 in dynamic
        # focus, the whole aperture shares column 0 in infinity focus
        empty = half if focus == "dynamic" else 1
        assert not np.any(out.c_qm[:, empty:])
        assert np.all(np.any(out.c_qm[:, :empty], axis=0))


# --- dense reference --------------------------------------------------------

def _trapezoid(ch):
    w = np.full(ch.grid_len, ch.grid_step)
    w[[0, -1]] /= 2
    return w


def _dense_c_qm(ch, cfg, S):
    """Per-element branch samples from the dense |kappa| x N exp table."""
    t = ch.times
    w = _trapezoid(ch)
    dynamic = cfg.focus_mode == "dynamic"
    out = np.zeros((S.p, ch.geometry.num_elements))
    for m, a in enumerate(ch.geometry.offset_times):
        keep = t >= a if dynamic else np.ones(t.shape, bool)
        ts = t[keep]
        phase, bracket = ts, 1.0
        if dynamic and a:
            phase, bracket = ts - a * a / ts, 1.0 + (a / ts) ** 2
        weighted = w[keep] * bracket * ch.samples[m][keep]
        # row blocks keep the table small at L=30, rho=4
        g = np.concatenate([
            np.exp((-2j * np.pi / cfg.tau) * np.outer(k, phase)) @ weighted
            for k in np.array_split(cfg.kappa, 12)])
        out[:, m] = np.real(S.entries @ g) / cfg.tau
    return out


def _rel(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


def _noisy_channels(cfg, seed):
    # 3 elements: one on axis, two mirrored off-axis at 0.65 us
    scene, _, _ = random_scene(np.random.default_rng(seed), 3, cfg.tau)
    ch = synthesize(scene, cfg.geometry)
    noise = np.random.default_rng(seed + 1).standard_normal(ch.samples.shape)
    return ChannelSet(ch.grid_step, ch.samples + 0.1 * noise, ch.geometry,
                      ch.tau)


@pytest.mark.parametrize("focus", ["dynamic", "infinity"])
@pytest.mark.parametrize("L,rho", [(5, 2), (30, 4)])
def test_kernel_bank_matches_dense_reference(L, rho, focus):
    # 1, 3 and 5 elements make 1, 2 and 3 warp groups in dynamic focus: the
    # worker's share of the groups is empty, one group, or the smaller half
    for num_elements in (1, 3, 5):
        geom = default_geometry(num_elements=num_elements, pitch=1e-3)
        cfg = make_config(L=L, rho=rho, tau=51.2e-6, geometry=geom,
                          focus=focus)
        S = build_S(cfg.p)
        ch = _noisy_channels(cfg, seed=15)
        ref = _dense_c_qm(ch, cfg, S)
        out = xample_channels(ch, cfg, S)
        assert _rel(out.c, ref.sum(axis=1)) <= 1e-12
        # dynamic focus: mirrored elements m and N-1-m share column
        # min(m, N-1-m); infinity focus: the whole aperture fills column 0
        want = np.zeros_like(ref)
        for m in range(num_elements):
            col = min(m, num_elements - 1 - m) if focus == "dynamic" else 0
            want[:, col] += ref[:, m]
        for got_col, want_col in zip(out.c_qm.T, want.T):
            if np.any(want_col):
                assert _rel(got_col, want_col) <= 1e-12
            else:
                assert not np.any(got_col)


def test_concurrent_callers_match_serial_results():
    # two calling threads share the package's one worker: each call's
    # interference and kernel bank must equal the same call made alone
    geom = default_geometry(num_elements=5, pitch=1e-3)
    cfg = make_config(L=5, rho=2, tau=51.2e-6, geometry=geom)
    S = build_S(cfg.p)
    chans = [synthesize(random_scene(np.random.default_rng(k), 3, cfg.tau)[0],
                        geom) for k in range(2)]

    def run(k, i):
        noisy = add_interference(chans[k], 20.0, 25, 100 * k + i,
                                 pulse=PULSE)
        return noisy.samples, xample_channels(noisy, cfg, S).c_qm

    serial = [[run(k, i) for i in range(20)] for k in range(2)]
    mismatches = []

    def caller(k):
        for i in range(20):
            for got, want in zip(run(k, i), serial[k][i]):
                if not np.array_equal(got, want):
                    mismatches.append((k, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(k,), daemon=True)
                   for k in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads), "a caller hung"
    assert not mismatches


def test_kernel_bank_waits_for_the_worker_share(monkeypatch):
    # the worker's share ends before the call returns or raises, and its
    # error reaches the caller with its type unchanged
    geom = default_geometry(num_elements=5, pitch=1e-3)
    cfg = make_config(L=5, rho=2, tau=51.2e-6, geometry=geom)
    ch = _noisy_channels(cfg, seed=17)
    caller = threading.current_thread()
    passes = xample._bank_passes
    worker_done = []

    class WorkerFailed(Exception):
        pass

    def caller_fails(groups, *args):
        if threading.current_thread() is caller:
            raise InvariantViolation("caller share")
        time.sleep(0.2)
        passes(groups, *args)
        worker_done.append(True)

    monkeypatch.setattr(xample, "_bank_passes", caller_fails)
    with pytest.raises(InvariantViolation, match="caller share"):
        xample_channels(ch, cfg, build_S(cfg.p))
    assert worker_done == [True]

    def worker_fails(groups, *args):
        if threading.current_thread() is not caller:
            raise WorkerFailed
        passes(groups, *args)

    monkeypatch.setattr(xample, "_bank_passes", worker_fails)
    with pytest.raises(WorkerFailed):
        xample_channels(ch, cfg, build_S(cfg.p))


def test_kernel_value_integrates_to_c_qm_column():
    geom = default_geometry(num_elements=3, pitch=1e-3)
    cfg = make_config(L=5, rho=2, tau=51.2e-6, geometry=geom)
    S = build_S(cfg.p)
    ch = _noisy_channels(cfg, seed=16)
    out = xample_channels(ch, cfg, S)
    # off-axis pair 0 and 2: exercises the step and the warp, and shares
    # one kernel, so column 0 holds both elements
    weighted = _trapezoid(ch) * (ch.samples[0] + ch.samples[2])
    kernels = [kernel_value(cfg, q, 0, ch.times) for q in range(cfg.p)]
    for q, k in enumerate(kernels):
        assert np.array_equal(k, kernel_value(cfg, q, 2, ch.times))
    col = np.array([k @ weighted for k in kernels]) / cfg.tau
    assert _rel(col, out.c_qm[:, 0]) <= 1e-12


def test_grid_too_short_detected():
    geom = default_geometry(pitch=1e-3)
    cfg = make_config(geometry=geom)
    # grid that stops at tau instead of tau_hat
    n = int(cfg.tau / 3.125e-9)
    ch = ChannelSet(grid_step=3.125e-9, samples=np.zeros((16, n)),
                    geometry=geom, tau=cfg.tau)
    with pytest.raises(GridTooShort):
        xample_channels(ch, cfg, build_S(cfg.p))


def test_oracle_orthogonality_single_harmonic():
    # line = cos of a selected harmonic: its cosine branch integrates to 1/2,
    # every other branch to 0
    geom = default_geometry()
    cfg = make_config(L=1, rho=1, geometry=geom)  # p = 4
    S = build_S(cfg.p)
    step = 3.125e-9
    n = int(round(cfg.tau / step))
    t = np.arange(n + 1) * step
    line = BeamformedLine(
        samples=np.cos(2 * np.pi * cfg.kappa_pos[0] * t / cfg.tau),
        grid_step=step)
    c = xample_beamformed_oracle(line, cfg, S)
    assert c[0] == pytest.approx(0.5, abs=1e-9)
    np.testing.assert_allclose(c[1:], 0.0, atol=1e-9)


def test_oracle_zero_line():
    cfg = make_config(L=1, rho=1)
    step = 3.125e-9
    n = int(round(cfg.tau / step)) + 1
    line = BeamformedLine(samples=np.zeros(n), grid_step=step)
    np.testing.assert_array_equal(
        xample_beamformed_oracle(line, cfg, build_S(cfg.p)), np.zeros(cfg.p))


def _channel_vs_oracle(focus, rng_seed=13, oversample=16):
    geom = default_geometry()
    cfg = make_config(L=5, rho=1, geometry=geom, focus=focus)
    scene, _, _ = random_scene(np.random.default_rng(rng_seed), 4, cfg.tau)
    ch = synthesize(scene, geom, oversample=oversample)
    S = build_S(cfg.p)
    c_direct = xample_channels(ch, cfg, S).c
    mode = "dynamic" if focus == "dynamic" else "infinity"
    line = beamform_line(ch, focus_mode=mode, out_step=ch.grid_step,
                         duration=cfg.tau)
    c_oracle = xample_beamformed_oracle(line, cfg, S)
    return np.linalg.norm(c_direct - c_oracle) / np.linalg.norm(c_oracle)


def test_channel_path_matches_beamformed_oracle_dynamic():
    assert _channel_vs_oracle("dynamic") <= 1e-3


def test_channel_path_matches_beamformed_oracle_infinity():
    assert _channel_vs_oracle("infinity") <= 1e-3


# --- kernel-bank tables, cached per configuration and grid -------------------

def _cache_cases():
    """Named (cfg, channels) pairs for the cache tests."""
    geom, narrow = default_geometry(), default_geometry(pitch=0.2e-3)
    dyn = make_config(L=5, rho=2, geometry=geom)
    inf = make_config(L=5, rho=2, geometry=geom, focus="infinity")
    scene, _, _ = random_scene(np.random.default_rng(21), 3, dyn.tau)

    def noisy(oversample):
        ch = synthesize(scene, geom, oversample=oversample)
        return add_interference(ch, 25.0, 25, seed=3, pulse=PULSE)

    ch16, ch18 = noisy(16), noisy(18)
    return {
        "dynamic": (dyn, ch16),
        "infinity": (inf, ch16),
        # a narrower array on the same samples and grid
        "pitch": (make_config(L=5, rho=2, geometry=narrow),
                  ChannelSet(ch16.grid_step, ch16.samples, narrow, ch16.tau)),
        # the same grid step, seven samples longer
        "longer": (dyn, ChannelSet(ch16.grid_step,
                                   np.pad(ch16.samples, ((0, 0), (0, 7))),
                                   geom, ch16.tau)),
        "oversample": (dyn, ch18),
        # the same samples and grid length at a coarser step, which still
        # reaches tau_hat
        "step": (dyn, ChannelSet(1.0 / (17 * 20e6), ch18.samples, geom,
                                 ch18.tau)),
    }


def test_cached_tables_match_a_cleared_cache_bitwise():
    cases = _cache_cases()
    fresh = {}
    for name, (cfg, ch) in cases.items():
        _bank_tables.cache_clear()
        fresh[name] = xample_channels(ch, cfg, build_S(cfg.p))
    # each case changes the output, so a stale table would show
    outs = list(fresh.values())
    for i in range(len(outs)):
        for j in range(i):
            assert not np.array_equal(outs[i].c, outs[j].c)
    # each call differs from the one before in one part of the cache key:
    # the config (its focus, then its array), the grid length, length and
    # step, the step
    order = ["dynamic", "infinity", "dynamic", "pitch", "dynamic", "longer",
             "oversample", "step", "oversample", "dynamic"]
    for name in order * 2:
        cfg, ch = cases[name]
        out = xample_channels(ch, cfg, build_S(cfg.p))
        np.testing.assert_array_equal(out.c_qm, fresh[name].c_qm)
        np.testing.assert_array_equal(out.c, fresh[name].c)
        assert _bank_tables.cache_info().currsize <= 1
    assert _bank_tables.cache_info().maxsize == 1


def test_cached_tables_are_read_only():
    cfg, ch = _cache_cases()["dynamic"]
    xample_channels(ch, cfg, build_S(cfg.p))
    groups = _bank_tables(cfg, ch.grid_len, ch.grid_step)
    assert _bank_tables.cache_info().hits >= 1
    assert len(groups) == ch.geometry.num_elements // 2
    for grp in groups:
        for arr in (grp.members, grp.z0, grp.step):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
    # the tables are built from kappa, so it cannot change under them
    assert not cfg.kappa.flags.writeable


@pytest.mark.parametrize("geometry", [
    default_geometry(num_elements=8), default_geometry(pitch=0.2e-3)],
    ids=["count", "pitch"])
def test_channels_from_another_array_are_refused(geometry):
    # the kernel bank's warps come from the configuration's array
    cfg = make_config(L=5, rho=2, geometry=geometry)
    ch = synthesize(Scene(scatterers=(), tau=cfg.tau), default_geometry())
    with pytest.raises(InvariantViolation, match="configuration for"):
        xample_channels(ch, cfg, build_S(cfg.p))


def test_channels_from_another_window_are_refused():
    # a 102.4 us simulation holds a 30 us scatterer that a 51.2 us
    # configuration cannot see; its grid also reaches the 51.2 us tau_hat,
    # so only the window tells the two apart
    cfg = make_config(L=5, rho=2, tau=51.2e-6)
    scene = Scene(scatterers=(Scatterer(30e-6, 1.0),), tau=102.4e-6)
    ch = synthesize(scene, cfg.geometry)
    with pytest.raises(InvariantViolation,
                       match=r"window 0\.0001024 s, configuration for "
                             r"5\.12e-05 s"):
        xample_channels(ch, cfg, build_S(cfg.p))


def test_config_derives_kappa():
    cfg = XampleConfig(L=5, rho=2, tau=25.6e-6, carrier_hz=PULSE.carrier_hz,
                       focus_mode="dynamic", geometry=default_geometry())
    kappa = select_kappa(5, 2, 25.6e-6, PULSE.carrier_hz)
    np.testing.assert_array_equal(cfg.kappa, kappa)
    assert cfg.kappa.dtype == kappa.dtype
    assert not cfg.kappa.flags.writeable and kappa.flags.writeable


def test_cli_focus_switch_reuses_no_stale_table(tmp_path):
    doc = {
        "speed_of_sound_m_s": SPEED,
        "tau_s": 25.6e-6,
        "pulse": {"carrier_hz": 5.142e6, "sigma_s": 1e-7, "amplitude": 1.0},
        "array": {"num_elements": 16, "pitch_m": 0.3e-3},
        "lines": [{"scatterers": [{"t_n_s": 4e-6, "reflectivity": 1.0},
                                  {"t_n_s": 8e-6, "reflectivity": -0.7}]},
                  {"scatterers": [{"t_n_s": 6e-6, "reflectivity": 1.5}]}],
    }
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    ch_dir = tmp_path / "ch"
    assert main(["simulate", "--scene", str(scene), "--out", str(ch_dir)]) == 0
    runs = []
    for i, focus in enumerate(("dynamic", "infinity", "dynamic")):
        out = tmp_path / f"run{i}"
        assert main(["xample", "--channels", str(ch_dir), "--scene",
                     str(scene), "--out", str(out), "--L", "5",
                     "--focus", focus,
                     "--dump-samples"]) == 0
        runs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert set(runs[0]) >= {"estimates.csv", "samples_c.csv",
                            "samples_cqm.csv", "xampled.pgm"}
    assert runs[0] == runs[2]
    assert runs[0]["samples_c.csv"] != runs[1]["samples_c.csv"]
