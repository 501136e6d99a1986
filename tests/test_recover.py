import numpy as np
import pytest

from xampus import (FourierCoeffs, IllConditioned, InvariantViolation,
                    MixingMatrix, OrderOverflow, Scatterer, Scene,
                    annihilating_filter, beamform_line,
                    build_H, build_S, estimate_order,
                    least_squares_amplitudes, matrix_pencil, pencil_split,
                    recover_fourier, recover_line, XampleConfig,
                    xample_beamformed_oracle, xample_channels)

from util import (PULSE, SPEED, SV_THRESHOLD_EXACT, cisoid_coeffs,
                  default_geometry, line_fourier_coeffs, random_scene,
                  synthesize)

TAU = 25.6e-6


def make_coeffs(delays, amps, K=16, tau=TAU):
    kc = round(5.142e6 * tau)
    kpos = np.arange(kc - K // 2 + 1, kc + K // 2 + 1)
    y = cisoid_coeffs(kpos, tau, delays, amps)
    return FourierCoeffs(y=y, kappa_pos=kpos, tau=tau)


def pipeline_c(scene, geom, cfg, oversample=16):
    ch = synthesize(scene, geom, oversample=oversample)
    return xample_channels(ch, cfg, build_S(cfg.p)).c


# --- recover_fourier ---------------------------------------------------------

def test_unmix_identity_pair():
    # smallest real case: one +/-k pair, H = 2 on both; the branches hold
    # Re phi and Im phi of phi = 4 - 6j
    fc = recover_fourier([4.0, -6.0], build_S(2), [2.0, 2.0], [5, -5], TAU)
    np.testing.assert_allclose(fc.y, [2.0 - 3.0j])
    np.testing.assert_allclose(fc.y * 2.0, [4.0 - 6.0j])
    assert fc.kappa_pos.tolist() == [5]


def test_unmix_linear_in_samples():
    S = build_S(8)
    H = np.full(8, 0.5)
    kappa = np.concatenate([np.arange(10, 14), -np.arange(10, 14)])
    rng = np.random.default_rng(20)
    c = rng.standard_normal(8)
    y1 = recover_fourier(c, S, H, kappa, TAU).y
    y2 = recover_fourier(3.0 * c, S, H, kappa, TAU).y
    np.testing.assert_allclose(y2, 3.0 * y1, rtol=1e-12)


def test_coefficients_match_dense_grid_fourier_oracle():
    geom = default_geometry()
    cfg = XampleConfig.create(5, 2, TAU, PULSE, geom)
    scene, _, _ = random_scene(np.random.default_rng(21), 3, TAU)
    ch = synthesize(scene, geom)
    c = xample_channels(ch, cfg, build_S(cfg.p)).c
    H = build_H(PULSE, cfg.kappa, cfg.tau)
    fc = recover_fourier(c, build_S(cfg.p), H, cfg.kappa, cfg.tau)
    line = beamform_line(ch, focus_mode="dynamic", out_step=ch.grid_step,
                         duration=cfg.tau)
    direct = line_fourier_coeffs(line, cfg.kappa_pos, cfg.tau)
    Hpos = H[: cfg.K]
    phi = fc.y * Hpos
    assert np.linalg.norm(phi - direct) / np.linalg.norm(direct) <= 1e-3
    # dividing the pulse spectrum out relates y to the same oracle
    assert np.linalg.norm(fc.y - direct / Hpos) \
        / np.linalg.norm(direct / Hpos) <= 1e-3


def _kappa(p, k0=10):
    pos = np.arange(k0, k0 + p // 2)
    return np.concatenate([pos, -pos])


def test_mixing_matrix_read_only_and_build_S_memoized():
    S = build_S(8)
    assert build_S(8) is S
    assert S.entries is S.entries  # built once, on first use
    with pytest.raises(ValueError):
        S.entries[0, 0] = 1.0


@pytest.mark.parametrize("case, message", [
    ("columns", "mixing matrix columns"), ("H", "pulse spectrum H"),
    ("c_length", "branch samples shape"), ("c_nan", "must be finite"),
    ("y", "^Fourier coefficient y overflows$")])
def test_unmix_rejects_mismatched_inputs(case, message):
    S, H, kappa, c = build_S(8), np.ones(8), _kappa(8), np.ones(8)
    if case == "columns":
        kappa = _kappa(6)
    elif case == "H":
        H = np.ones(6)
    elif case == "c_length":
        c = np.ones(9)
    elif case == "y":  # 1 / 1e-310 is beyond the float range
        H = np.full(8, 1e-310)
    else:
        c = np.full(8, np.nan)
    with pytest.raises(InvariantViolation, match=message):
        recover_fourier(c, S, H, kappa, TAU)


def test_recover_line_rejects_p_above_kappa():
    # a mixing matrix with more branches than |kappa| fits no kernel bank
    geom = default_geometry()
    cfg = XampleConfig.create(2, 1, TAU, PULSE, geom)
    wide = build_S(len(cfg.kappa) + 2)
    ch = synthesize(Scene(scatterers=(), tau=cfg.tau), geom)
    line = beamform_line(ch, focus_mode="dynamic", out_step=ch.grid_step,
                         duration=cfg.tau)
    with pytest.raises(InvariantViolation, match="must match"):
        xample_channels(ch, cfg, wide)
    with pytest.raises(InvariantViolation, match="must match"):
        xample_beamformed_oracle(line, cfg, wide)
    with pytest.raises(InvariantViolation, match="columns"):
        recover_line(np.ones(wide.p), cfg, PULSE, S=wide)


@pytest.mark.parametrize("p", [2, 4, 40, 480])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_paired_closed_form_matches_solve(p, kind):
    rng = np.random.default_rng(p)
    c = rng.standard_normal(p)
    if kind == "complex":
        c = c + 1j * rng.standard_normal(p)
    S = build_S(p)
    fc = recover_fourier(c, S, np.ones(p), _kappa(p), TAU)
    ref = np.linalg.solve(S.entries, c.astype(complex))[:p // 2]
    assert np.linalg.norm(fc.y - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("p", [4, 40, 480])
def test_unmix_square_solve_matches_lstsq(p):
    rng = np.random.default_rng(31)
    S = build_S(p)
    c = rng.standard_normal(p)
    fc = recover_fourier(c, S, np.ones(p), _kappa(p), TAU)
    ref = np.linalg.lstsq(S.entries, c.astype(complex), rcond=None)[0]
    assert np.linalg.norm(fc.y - ref[:p // 2]) \
        <= 1e-12 * np.linalg.norm(ref[:p // 2])


def test_mixing_matrix_and_config_compare_by_identity():
    a, b = MixingMatrix(2), MixingMatrix(2)
    assert a == a and a != b
    assert len({a, b, a}) == 2
    geom = default_geometry()
    c1 = XampleConfig.create(2, 1, TAU, PULSE, geom)
    c2 = XampleConfig.create(2, 1, TAU, PULSE, geom)
    assert c1 == c1 and c1 != c2
    assert len({c1, c2, c1}) == 2


# --- matrix pencil -----------------------------------------------------------

def test_pencil_single_cisoid():
    t1 = 13e-6
    fc = make_coeffs([t1], [1.0], K=8, tau=102.4e-6)
    delays, sv = matrix_pencil(fc, sv_threshold=SV_THRESHOLD_EXACT, L_max=2)
    assert len(delays) == 1
    assert abs(delays[0] - t1) <= 1e-12 * 102.4e-6
    assert np.sum(sv / sv[0] > SV_THRESHOLD_EXACT) == 1


def test_pencil_three_delays_exact():
    delays_true = np.array([6e-6, 13e-6, 20e-6])
    fc = make_coeffs(delays_true, [1.0, 0.7, 1.4], K=12)
    delays, sv = matrix_pencil(fc, sv_threshold=SV_THRESHOLD_EXACT, L_max=4)
    np.testing.assert_allclose(delays, delays_true, atol=1e-9 * TAU)
    assert np.all(sv[3:] <= 1e-8 * sv[0])


def test_pencil_parameter_guard():
    fc = make_coeffs([10e-6], [1.0], K=8)
    with pytest.raises(InvariantViolation, match="no pencil split"):
        matrix_pencil(fc, L_max=5)             # K < 2 L_max


def test_pencil_order_overflow():
    fc = make_coeffs([6e-6, 13e-6, 20e-6], [1.0, 1.0, 1.0], K=12)
    with pytest.raises(OrderOverflow):
        matrix_pencil(fc, sv_threshold=SV_THRESHOLD_EXACT, L_max=2)


def test_pencil_zero_data():
    fc = make_coeffs([10e-6], [0.0], K=8)
    delays, sv = matrix_pencil(fc, L_max=2)
    assert delays.size == 0


def test_pencil_default_eta_is_third():
    # K=12 -> eta=4 accepted for L_max up to 4
    fc = make_coeffs([9e-6], [1.0], K=12)
    delays, _ = matrix_pencil(fc, sv_threshold=SV_THRESHOLD_EXACT, L_max=4)
    assert abs(delays[0] - 9e-6) <= 1e-12 * TAU


# --- annihilating filter ------------------------------------------------------

def test_annihilating_matches_pencil_single():
    t1 = 13e-6
    fc = make_coeffs([t1], [1.0], K=8, tau=102.4e-6)
    d_pencil, _ = matrix_pencil(fc, sv_threshold=SV_THRESHOLD_EXACT, L_max=2)
    d_ann = annihilating_filter(fc, 1)
    assert abs(d_ann[0] - d_pencil[0]) <= 1e-9 * 102.4e-6


def test_annihilating_two_delays():
    delays_true = np.array([8e-6, 17e-6])
    fc = make_coeffs(delays_true, [1.0, -0.6], K=10)
    d = annihilating_filter(fc, 2)
    np.testing.assert_allclose(d, delays_true, atol=1e-9 * TAU)


@pytest.mark.parametrize("K, L", [(25, 3), (16, 4), (40, 6)])
def test_annihilating_is_the_hankel_tls_null_vector(K, L):
    # the filter is the smallest right singular vector of the dense
    # (K - L) x (L + 1) Hankel, with the noise fitted on every coefficient
    rng = np.random.default_rng(31)
    kpos = round(5.142e6 * TAU) + np.arange(K)
    y = cisoid_coeffs(kpos, TAU, np.sort(rng.uniform(0.05, 0.95, L)) * TAU,
                      rng.uniform(0.5, 1.5, L))
    noise = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    y += 1e-3 * np.linalg.norm(y) / np.linalg.norm(noise) * noise
    fc = FourierCoeffs(y=y, kappa_pos=kpos, tau=TAU)

    dense = y[np.arange(K - L)[:, None] + np.arange(L + 1)]
    v = np.linalg.svd(dense)[2][-1].conj()
    assert np.linalg.norm(dense @ v) < 1e-2 * np.linalg.norm(dense)
    z = np.roots(v[::-1])
    d_ref = np.sort((-np.angle(z) / (2.0 * np.pi)) % 1.0 * TAU)
    np.testing.assert_allclose(annihilating_filter(fc, L), d_ref,
                               rtol=0, atol=1e-12 * TAU)


def test_annihilating_on_the_wide_hankel():
    # K = 2 L: an L x (L + 1) Hankel whose null vector only the full Vh holds
    delays_true = np.array([3e-6, 9.5e-6, 16e-6, 22e-6])
    fc = make_coeffs(delays_true, [1.0, -0.6, 0.8, 1.3], K=8)
    np.testing.assert_allclose(annihilating_filter(fc, 4), delays_true,
                               rtol=0, atol=1e-9 * TAU)


def test_annihilating_singular_on_zero():
    fc = make_coeffs([10e-6], [0.0], K=8)
    with pytest.raises(InvariantViolation):
        annihilating_filter(fc, 2)


def test_annihilating_needs_a_positive_order():
    fc = make_coeffs([10e-6], [1.0], K=8)
    with pytest.raises(InvariantViolation, match="^L_est must be >= 1$"):
        annihilating_filter(fc, 0)


def test_annihilating_needs_enough_coefficients():
    fc = make_coeffs([10e-6], [1.0], K=6)
    with pytest.raises(InvariantViolation):
        annihilating_filter(fc, 4)


# --- amplitude fit ------------------------------------------------------------

def test_amplitude_forward_construction():
    fc = make_coeffs([11e-6], [2.5], K=8)
    amps, residual = least_squares_amplitudes(fc, [11e-6])
    assert amps[0] == pytest.approx(2.5, abs=1e-9)
    assert residual < 1e-12


def test_amplitude_refuses_more_delays_than_coefficients():
    fc = make_coeffs([10e-6], [1.0], K=4)
    with pytest.raises(InvariantViolation,
                       match="^more delays than coefficients$"):
        least_squares_amplitudes(fc, np.linspace(2e-6, 20e-6, 5))


def test_amplitude_zero_coefficients():
    fc = make_coeffs([11e-6], [0.0], K=8)
    amps, residual = least_squares_amplitudes(fc, [11e-6])
    np.testing.assert_allclose(amps, [0.0], atol=1e-12)
    assert residual == 0.0


def test_amplitude_permutation_covariance():
    delays = [5e-6, 12e-6, 19e-6]
    amps_true = [1.0, -0.5, 2.0]
    fc = make_coeffs(delays, amps_true, K=12)
    a, _ = least_squares_amplitudes(fc, delays)
    b, _ = least_squares_amplitudes(fc, delays[::-1])
    np.testing.assert_allclose(b, a[::-1], atol=1e-9)


def test_amplitude_residual_is_the_relative_misfit():
    # a misfit orthogonal to the columns of V leaves the amplitudes real
    delays = [5e-6, 12e-6]
    fc = make_coeffs(delays, [1.0, -0.5], K=12)
    V = np.exp((-2j * np.pi / fc.tau) * np.outer(fc.kappa_pos, delays))
    n = np.random.default_rng(29).standard_normal(12)
    misfit = 0.05 * (n - V @ np.linalg.lstsq(V, n, rcond=None)[0])
    fc.y = fc.y + misfit
    amps, residual = least_squares_amplitudes(fc, delays)
    np.testing.assert_allclose(amps, [1.0, -0.5], atol=1e-12)
    assert residual == pytest.approx(
        np.linalg.norm(misfit) / np.linalg.norm(fc.y), rel=1e-9)
    assert residual > 1e-3
    amps, residual = least_squares_amplitudes(fc, [])
    assert amps.size == 0 and residual == 1.0


@pytest.mark.parametrize("k", [-500, 500, 900])
def test_amplitude_residual_of_scaled_coefficients_is_unchanged(k):
    # beyond 2**512 the squares of y overflow; the norms are taken of y
    # scaled by a power of two, which is exact
    delays = [5e-6, 12e-6]
    fc = make_coeffs(delays, [1.0, -0.5], K=12)
    fc.y = fc.y + 0.05 * np.random.default_rng(29).standard_normal(12)
    _, residual = least_squares_amplitudes(fc, delays)
    scaled = FourierCoeffs(y=fc.y * 2.0**k, kappa_pos=fc.kappa_pos, tau=TAU)
    assert least_squares_amplitudes(scaled, delays)[1] == residual
    assert 0 < residual < 1


def test_amplitude_ill_conditioned_delays():
    fc = make_coeffs([10e-6], [1.0], K=8)
    with pytest.raises(IllConditioned):
        least_squares_amplitudes(fc, [10e-6, 10e-6 + 1e-16])


def test_amplitude_equal_delays_are_ill_conditioned():
    # two equal columns of V: its condition check fires, no separate rule
    fc = make_coeffs([10e-6], [1.0], K=20)
    with pytest.raises(IllConditioned):
        least_squares_amplitudes(fc, [10e-6, 10e-6])


def test_amplitude_residual_holds_imaginary_residue():
    fc = make_coeffs([10e-6], [1.0], K=8)
    fc.y = 1j * fc.y  # rotate the data off the real-amplitude model
    amps, residual = least_squares_amplitudes(fc, [10e-6])
    np.testing.assert_allclose(amps, [0.0], atol=1e-12)
    assert residual == pytest.approx(1.0, abs=1e-12)
    # on a noisy line the complex fit's misfit is orthogonal to V, so the
    # residual of the real parts splits into that misfit and |V Im a|
    delays = [3e-6, 9e-6, 17e-6]
    fc = make_coeffs(delays, [1.0, -0.6, 0.8], K=20)
    rng = np.random.default_rng(41)
    fc.y = fc.y + 0.02 * np.max(np.abs(fc.y)) * (
        rng.standard_normal(20) + 1j * rng.standard_normal(20))
    V = np.exp((-2j * np.pi / TAU) * np.outer(fc.kappa_pos, delays))
    a = np.linalg.lstsq(V, fc.y, rcond=None)[0]
    misfit = np.linalg.norm(fc.y - V @ a)
    imag_part = np.linalg.norm(V @ a.imag)
    assert imag_part > 1e-3 * np.linalg.norm(fc.y)
    amps, residual = least_squares_amplitudes(fc, delays)
    np.testing.assert_array_equal(amps, a.real)
    assert residual**2 == pytest.approx(
        (misfit**2 + imag_part**2) / np.linalg.norm(fc.y)**2, rel=1e-12)


# --- full chain ---------------------------------------------------------------

def test_recover_line_two_reflectors_end_to_end():
    geom = default_geometry()
    t1, t2 = 0.01 / SPEED, 0.02 / SPEED
    scene = Scene(scatterers=(Scatterer(t1, 1.0), Scatterer(t2, 1.0)),
                  tau=51.2e-6)
    cfg = XampleConfig.create(5, 2, scene.tau, PULSE, geom)
    est = recover_line(pipeline_c(scene, geom, cfg), cfg, PULSE)
    assert est.model_order == 2
    assert abs(est.delays[0] - 2 * t1) <= 50e-9
    assert abs(est.delays[1] - 2 * t2) <= 50e-9
    assert est.residual <= 1e-3


def test_annihilating_recover_line_of_order_zero_is_empty():
    # order 0 leaves the filter nothing to annihilate, so no delay is sought
    cfg = XampleConfig.create(5, 2, TAU, PULSE, default_geometry())
    est = recover_line(np.zeros(cfg.p), cfg, PULSE, method="annihilating")
    assert (est.model_order, est.delays.size, est.amplitudes.size) == (0, 0, 0)
    assert est.residual == 0.0


def test_recover_line_empty_scene():
    geom = default_geometry()
    scene = Scene(scatterers=(), tau=TAU)
    cfg = XampleConfig.create(5, 2, TAU, PULSE, geom)
    est = recover_line(pipeline_c(scene, geom, cfg), cfg, PULSE)
    assert est.model_order == 0
    assert est.delays.size == 0
    assert est.amplitudes.size == 0
    assert est.residual == 0.0


def test_recover_line_methods_agree_on_pipeline_data():
    geom = default_geometry()
    scene, trips, _ = random_scene(np.random.default_rng(22), 3, TAU)
    cfg = XampleConfig.create(5, 2, TAU, PULSE, geom)
    c = pipeline_c(scene, geom, cfg)
    pen = recover_line(c, cfg, PULSE, method="pencil")
    ann = recover_line(c, cfg, PULSE, method="annihilating")
    assert pen.model_order == ann.model_order == 3
    np.testing.assert_allclose(pen.delays, ann.delays, atol=5e-9)
    np.testing.assert_allclose(pen.delays, trips, atol=50e-9)


def test_methods_agree_on_exact_coefficients():
    rng = np.random.default_rng(23)
    for _ in range(10):
        L = int(rng.integers(1, 5))
        delays_true = np.sort(rng.uniform(2e-6, TAU - 2e-6, L))
        while L > 1 and np.min(np.diff(delays_true)) < 4 * TAU / 16:
            delays_true = np.sort(rng.uniform(2e-6, TAU - 2e-6, L))
        amps = rng.uniform(0.5, 2.0, L)
        fc = make_coeffs(delays_true, amps, K=16)
        d_pen, _ = matrix_pencil(fc, sv_threshold=SV_THRESHOLD_EXACT, L_max=5)
        d_ann = annihilating_filter(fc, len(d_pen))
        np.testing.assert_allclose(d_pen, d_ann, atol=1e-9 * TAU)
        np.testing.assert_allclose(d_pen, delays_true, atol=1e-9 * TAU)


def test_shift_covariance():
    rng = np.random.default_rng(24)
    delays_true = np.array([5e-6, 11e-6, 16e-6])
    amps = np.array([1.0, 0.8, 1.3])
    shift = 3e-6
    fc = make_coeffs(delays_true, amps, K=16)
    fc2 = make_coeffs(delays_true + shift, amps, K=16)
    d1, _ = matrix_pencil(fc, sv_threshold=SV_THRESHOLD_EXACT, L_max=5)
    d2, _ = matrix_pencil(fc2, sv_threshold=SV_THRESHOLD_EXACT, L_max=5)
    np.testing.assert_allclose(d2, d1 + shift, atol=1e-9 * TAU)


def test_scale_equivariance():
    delays_true = np.array([5e-6, 11e-6, 16e-6])
    amps = np.array([1.0, 0.8, 1.3])
    gamma = 3.7
    fc = make_coeffs(delays_true, amps, K=16)
    fc2 = make_coeffs(delays_true, gamma * amps, K=16)
    d1, _ = matrix_pencil(fc, sv_threshold=SV_THRESHOLD_EXACT, L_max=5)
    d2, _ = matrix_pencil(fc2, sv_threshold=SV_THRESHOLD_EXACT, L_max=5)
    np.testing.assert_allclose(d2, d1, atol=1e-9 * TAU)
    a1, _ = least_squares_amplitudes(fc, d1)
    a2, _ = least_squares_amplitudes(fc2, d2)
    np.testing.assert_allclose(a2, gamma * a1, rtol=1e-9)


def test_model_order_correct_when_separated():
    # separation >= 4 tau / K guarantees the order estimate is exact
    rng = np.random.default_rng(25)
    K = 16
    sep = 4 * TAU / K
    for _ in range(5):
        L = int(rng.integers(1, 4))
        while True:
            d = np.sort(rng.uniform(1e-6, TAU - 1e-6, L))
            if L == 1 or np.min(np.diff(d)) >= sep:
                break
        fc = make_coeffs(d, rng.uniform(0.5, 2.0, L), K=K)
        delays, _ = matrix_pencil(fc, sv_threshold=SV_THRESHOLD_EXACT, L_max=5)
        assert len(delays) == L


def test_recover_line_rejects_unknown_method():
    geom = default_geometry()
    cfg = XampleConfig.create(5, 2, TAU, PULSE, geom)
    with pytest.raises(InvariantViolation):
        recover_line(np.zeros(cfg.p), cfg, PULSE, method="music")


def test_recover_line_minimal_oversampling_default_eta():
    # rho = 1 gives K = 2L, collapsing the valid pencil interval to a single
    # point; the default eta must land on it
    geom = default_geometry()
    scene = Scene(scatterers=(Scatterer(5e-6, 1.0), Scatterer(9e-6, 1.2)),
                  tau=TAU)
    cfg = XampleConfig.create(2, 1, TAU, PULSE, geom)
    est = recover_line(pipeline_c(scene, geom, cfg), cfg, PULSE)
    assert est.model_order == 2
    np.testing.assert_allclose(est.delays, [10e-6, 18e-6], atol=50e-9)


# --- shared model-order estimate ----------------------------------------------

def test_pencil_split_default_and_guard():
    assert pencil_split(12, 4) == 4            # K//3
    assert pencil_split(12, 2) == 4
    assert pencil_split(10, 5) == 5            # K = 2 L_max: one feasible eta
    assert pencil_split(25, 12) == 12          # clamped up to L_max
    assert pencil_split(24, 12) == 12          # and down to K - L_max
    with pytest.raises(InvariantViolation):
        pencil_split(6, 4)                     # K < 2 L_max: no feasible eta


def test_estimate_order_counts_and_zero_data():
    fc = make_coeffs([6e-6, 13e-6, 20e-6], [1.0, 0.7, 1.2], K=12)
    order, s, _ = estimate_order(fc.y, 4, sv_threshold=SV_THRESHOLD_EXACT)
    assert order == 3
    assert np.sum(s / s[0] > SV_THRESHOLD_EXACT) == 3
    order, s, _ = estimate_order(np.zeros(12, dtype=complex), 4)
    assert order == 0


@pytest.mark.parametrize("threshold", [0.0, 1.0, 2.0, -1.0, np.nan, np.inf])
def test_estimate_order_refuses_a_threshold_outside_0_1(threshold):
    fc = make_coeffs([6e-6, 13e-6], [1.0, 0.7], K=12)
    with pytest.raises(InvariantViolation, match="sv threshold"):
        estimate_order(fc.y, 4, sv_threshold=threshold)


@pytest.mark.parametrize("K, L_max", [(25, 6), (25, 12), (24, 12)],
                         ids=["tall", "square", "wide"])
def test_estimate_order_matches_the_dense_hankel_svd(K, L_max):
    # the SVD of the Hankel's R factor against the SVD of the Hankel itself;
    # the split K//3 clamped into [L_max, K - L_max] gives a 17 x 9, a 13 x 13
    # and a 12 x 13 Hankel (R trapezoidal), the only wide shape it can make
    rng = np.random.default_rng(30)
    kpos = round(5.142e6 * TAU) + np.arange(K)
    noise = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    y = cisoid_coeffs(kpos, TAU, [6e-6, 13e-6, 20e-6], [1.0, 0.7, 1.2]) \
        + 1e-3 * noise
    order, s, Vh = estimate_order(y, L_max)

    e = pencil_split(K, L_max)
    dense = y[np.arange(K - e)[:, None] + np.arange(e + 1)]
    _, s_ref, Vh_ref = np.linalg.svd(dense, full_matrices=False)
    assert order == 3 == np.sum(s_ref / s_ref[0] > 1e-2)
    assert s.shape == s_ref.shape and Vh.shape == Vh_ref.shape
    np.testing.assert_allclose(s, s_ref, rtol=0, atol=1e-12 * s_ref[0])

    def projector(v):
        return v[:order].conj().T @ v[:order]

    np.testing.assert_allclose(projector(Vh), projector(Vh_ref),
                               rtol=0, atol=1e-10)
    zero_order, zero_s, _ = estimate_order(np.zeros(K, dtype=complex), L_max)
    assert zero_order == 0
    assert not np.any(zero_s)


def test_a_huge_finite_line_keeps_its_delays_or_is_refused_as_overflow():
    # two echoes, K = 20.  LAPACK's QR and SVD overflowed inside on the
    # Hankel of this line times 2**1022 (peak 7.2e307), refused as a
    # ConditioningFailure, and times 2**1021 it returned an infinite
    # singular value and order 0.  Divided by the power of two of its
    # peak, the line times 2**k has the unit line's Hankel, bit for bit
    unit = make_coeffs([8e-6, 17e-6], [1.0, -0.6], K=20)

    def times(k):
        return FourierCoeffs(y=unit.y * 2.0**k, kappa_pos=unit.kappa_pos,
                             tau=unit.tau)

    order, s, _ = estimate_order(unit.y, 5, SV_THRESHOLD_EXACT)
    delays, _ = matrix_pencil(unit, 5, SV_THRESHOLD_EXACT)
    ann = annihilating_filter(unit, order)
    assert order == 2
    # the largest of these lines whose singular values are floats
    big = times(1020)
    big_order, big_s, _ = estimate_order(big.y, 5, SV_THRESHOLD_EXACT)
    assert big_order == order
    np.testing.assert_array_equal(big_s, np.ldexp(s, 1020))
    np.testing.assert_array_equal(matrix_pencil(big, 5, SV_THRESHOLD_EXACT)[0],
                                  delays)
    np.testing.assert_array_equal(annihilating_filter(big, order), ann)
    for k in (1021, 1022):
        huge = times(k)
        np.testing.assert_array_equal(annihilating_filter(huge, order), ann)
        with pytest.raises(InvariantViolation,
                           match="Hankel singular value overflows"):
            estimate_order(huge.y, 5, SV_THRESHOLD_EXACT)
        with pytest.raises(InvariantViolation,
                           match="Hankel singular value overflows"):
            matrix_pencil(huge, 5, SV_THRESHOLD_EXACT)


def test_pencil_and_annihilating_share_the_order_estimate():
    geom = default_geometry()
    scene, _, _ = random_scene(np.random.default_rng(26), 3, TAU)
    cfg = XampleConfig.create(5, 2, TAU, PULSE, geom)
    c = pipeline_c(scene, geom, cfg)
    pen = recover_line(c, cfg, PULSE, method="pencil")
    ann = recover_line(c, cfg, PULSE, method="annihilating")
    assert pen.model_order == ann.model_order == 3
    np.testing.assert_array_equal(pen.singular_values, ann.singular_values)


@pytest.mark.parametrize("method", ["pencil", "annihilating"])
def test_recover_line_order_overflow(method):
    # five echoes on a line whose reflector bound is L = 3
    geom = default_geometry()
    scene, _, _ = random_scene(np.random.default_rng(27), 5, TAU)
    cfg = XampleConfig.create(3, 2, TAU, PULSE, geom)
    c = pipeline_c(scene, geom, cfg)
    with pytest.raises(OrderOverflow,
                       match=r"above threshold 0\.01, bound is 3$"):
        recover_line(c, cfg, PULSE, method=method)
