"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import contextlib
import csv
import filecmp
import json

import numpy as np


from xampus import (OrderOverflow, Scatterer, Scene, XampleConfig,
                    beamform_line, build_H, build_S, cost_table,
                    least_squares_amplitudes, matrix_pencil, recover_fourier,
                    recover_line, sample_counts, standard_ops,
                    standard_samples, xample_beamformed_oracle,
                    xample_channels, xampled_ops)
from xampus.cli import main

from util import (PULSE, SPEED, SV_THRESHOLD_EXACT, cisoid_coeffs,
                  default_geometry, line_fourier_coeffs, random_scene,
                  synthesize)

TAU = 25.6e-6


@contextlib.contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num} PASS - {description}")


def _identity_discrepancy(scene, geom, cfg, S, oversample):
    ch = synthesize(scene, geom, oversample=oversample)
    c_direct = xample_channels(ch, cfg, S).c
    line = beamform_line(ch, focus_mode="dynamic", out_step=ch.grid_step,
                         duration=cfg.tau)
    c_oracle = xample_beamformed_oracle(line, cfg, S)
    return np.linalg.norm(c_direct - c_oracle) / np.linalg.norm(c_oracle)


def test_criterion_1_kernel_identity():
    """Direct per-element sampling equals sampling the beamformed signal."""
    rng = np.random.default_rng(1001)
    geom = default_geometry()
    cfg = XampleConfig.create(5, 1, TAU, PULSE, geom)
    S = build_S(cfg.p)
    worst16 = worst64 = 0.0
    with criterion(1, "kernel identity, 20 scenes: 16x <= 1e-3, 64x <= 1e-4"):
        for _ in range(20):
            scene, _, _ = random_scene(rng, int(rng.integers(1, 6)), TAU)
            d16 = _identity_discrepancy(scene, geom, cfg, S, 16)
            d64 = _identity_discrepancy(scene, geom, cfg, S, 64)
            worst16 = max(worst16, d16)
            worst64 = max(worst64, d64)
            assert d16 <= 1e-3
            assert d64 <= 1e-4
        print(f"  worst relative l2 discrepancy: 16x {worst16:.2e}, "
              f"64x {worst64:.2e}")


def test_criterion_2_noiseless_end_to_end():
    """Delays within 50 ns, amplitudes within 5%, exact model order."""
    rng = np.random.default_rng(1002)
    geom = default_geometry()
    cfg = XampleConfig.create(5, 2, TAU, PULSE, geom, focus_mode="dynamic")
    S = build_S(cfg.p)
    worst_d = worst_b = 0.0
    with criterion(2, "noiseless recovery: |dt| <= 50 ns, |db|/b <= 5%, "
                      "order exact"):
        for _ in range(10):
            l_true = int(rng.integers(1, 6))
            scene, trips, refl = random_scene(rng, l_true, TAU, min_sep=2e-6)
            ch = synthesize(scene, geom)
            est = recover_line(xample_channels(ch, cfg, S).c, cfg, PULSE)
            assert est.model_order == l_true
            d_err = np.max(np.abs(est.delays - trips))
            b_err = np.max(np.abs(est.amplitudes / geom.num_elements - refl)
                           / refl)
            worst_d = max(worst_d, d_err)
            worst_b = max(worst_b, b_err)
            assert d_err <= 50e-9
            assert b_err <= 0.05
        print(f"  worst delay error {worst_d * 1e9:.2f} ns, "
              f"worst amplitude error {worst_b:.2%}")


def test_criterion_3_fourier_coefficient_oracle():
    """Unmixed coefficients match the dense-grid Fourier integral."""
    rng = np.random.default_rng(1003)
    geom = default_geometry()
    cfg = XampleConfig.create(5, 2, TAU, PULSE, geom)
    S = build_S(cfg.p)
    H = build_H(PULSE, cfg.kappa, cfg.tau)
    worst = 0.0
    with criterion(3, "recover_fourier vs dense-grid coefficients <= 1e-3, "
                      "10 scenes"):
        for _ in range(10):
            scene, _, _ = random_scene(rng, int(rng.integers(1, 6)), TAU)
            ch = synthesize(scene, geom)
            c = xample_channels(ch, cfg, S).c
            fc = recover_fourier(c, S, H, cfg.kappa, cfg.tau)
            line = beamform_line(ch, focus_mode="dynamic",
                                 out_step=ch.grid_step, duration=cfg.tau)
            direct = line_fourier_coeffs(line, cfg.kappa_pos, cfg.tau)
            phi = fc.y * H[:cfg.K]
            err = np.linalg.norm(phi - direct) / np.linalg.norm(direct)
            worst = max(worst, err)
            assert err <= 1e-3
        print(f"  worst relative l2 error {worst:.2e}")


def test_criterion_4_rate_and_cost_table():
    """K and sample columns exact; op counts near the reference MOps."""
    reference_mops = {1: 0.43, 2: 2.81, 3: 9.06, 4: 21.05}
    tolerance = {1: 0.20, 2: 0.20, 3: 0.20, 4: 0.15}
    with criterion(4, "rate table exact; op counts within tolerance; "
                      "cubic growth ratio in [40, 70]"):
        ops = {}
        for rho in (1, 2, 3, 4):
            K, samples = sample_counts(30, rho)
            assert K == 60 * rho
            assert samples == 120 * rho
            ops[rho] = xampled_ops(30, K, 2 * K, 8) / 1e6
            rel = abs(ops[rho] - reference_mops[rho]) / reference_mops[rho]
            assert rel <= tolerance[rho], (rho, ops[rho])
        ratio = ops[4] / ops[1]
        assert 40 <= ratio <= 70
        print(f"  MOps {[round(ops[r], 2) for r in (1, 2, 3, 4)]}, "
              f"rho4/rho1 ratio {ratio:.1f}")


def test_criterion_5_standard_path_accounting():
    """Sample count at 7.88 cm and the delay-and-sum add count."""
    with criterion(5, "standard path: 2048 +/- 1 samples, 2048x15 adds, "
                      "total within 2x of 0.06 MOps"):
        n = standard_samples(0.0788)
        assert abs(n - 2048) <= 1
        total = standard_ops(2048, 16)
        adds = 2048 * 15
        assert total - 2 * 2048 * np.log2(2048) == adds
        assert 0.5 <= (total / 1e6) / 0.06 <= 2.0
        print(f"  samples {n}, adds {adds}, total {total / 1e6:.4f} MOps")


def test_criterion_6_rate_reduction_headline(tmp_path):
    """Reduction factors vs the standard rate, as reported by the CLI."""
    with criterion(6, "reduction factors {17.1, 8.5, 5.7, 4.3}"):
        out = tmp_path / "cost.csv"
        assert main(["cost", "--L", "30", "--rho", "1", "2", "3", "4",
                     "--elements", "16", "--out", str(out)]) == 0
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        factors = [round(float(r["reduction_factor"]), 1) for r in rows]
        assert factors == [17.1, 8.5, 5.7, 4.3]
        # library-level check matches the CLI artifact
        lib = [round(r.reduction_factor, 1) for r in cost_table(30, [1, 2, 3, 4])]
        assert lib == factors
        print(f"  factors {factors}")


def test_criterion_7_method_cross_validation():
    """Pencil and annihilating filter agree; shift/scale invariants hold."""
    rng = np.random.default_rng(1007)
    tau = TAU
    K = 16
    kc = round(5.142e6 * tau)
    kpos = np.arange(kc - K // 2 + 1, kc + K // 2 + 1)

    def coeffs(delays, amps):
        from xampus import FourierCoeffs
        return FourierCoeffs(y=cisoid_coeffs(kpos, tau, delays, amps),
                             kappa_pos=kpos, tau=tau)

    with criterion(7, "pencil vs annihilating <= 1e-9 tau over 20 instances; "
                      "shift covariance and scale equivariance"):
        from xampus import annihilating_filter
        for _ in range(20):
            L = int(rng.integers(1, 5))
            while True:
                d = np.sort(rng.uniform(1e-6, tau - 1e-6, L))
                if L == 1 or np.min(np.diff(d)) >= 4 * tau / K:
                    break
            a = rng.uniform(0.5, 2.0, L)
            fc = coeffs(d, a)
            d_pen, _ = matrix_pencil(fc, sv_threshold=SV_THRESHOLD_EXACT,
                                     L_max=4)
            d_ann = annihilating_filter(fc, len(d_pen))
            assert len(d_pen) == L
            assert np.max(np.abs(d_pen - d_ann)) <= 1e-9 * tau
            assert np.max(np.abs(d_pen - d)) <= 1e-9 * tau

            # shift covariance (keep the shifted delays inside the window)
            shift = rng.uniform(0, tau - d[-1] - 1e-6)
            d_shift, _ = matrix_pencil(coeffs(d + shift, a),
                                       sv_threshold=SV_THRESHOLD_EXACT,
                                       L_max=4)
            assert np.max(np.abs(d_shift - (d_pen + shift))) <= 1e-9 * tau

            # scale equivariance
            gamma = rng.uniform(0.1, 10.0)
            fc_scaled = coeffs(d, gamma * a)
            d_scaled, _ = matrix_pencil(fc_scaled,
                                        sv_threshold=SV_THRESHOLD_EXACT,
                                        L_max=4)
            assert np.max(np.abs(d_scaled - d_pen)) <= 1e-9 * tau
            a1, _ = least_squares_amplitudes(fc, d_pen)
            a2, _ = least_squares_amplitudes(fc_scaled, d_scaled)
            np.testing.assert_allclose(a2, gamma * a1, rtol=1e-8)


def test_criterion_8_focus_mode_contrast():
    """Wide aperture: dynamic focus beats focus-at-infinity."""
    geom = default_geometry(num_elements=16, pitch=1e-3)
    assert geom.offset_times.max() >= 0.5 * 6 * PULSE.envelope_sigma
    tau = 51.2e-6
    trips = np.array([16e-6, 26e-6, 36e-6])
    scene = Scene(scatterers=tuple(Scatterer(t / 2, 1.0) for t in trips),
                  tau=tau)
    ch = synthesize(scene, geom)

    def delay_rmse(focus):
        cfg = XampleConfig.create(5, 2, tau, PULSE, geom, focus_mode=focus)
        c = xample_channels(ch, cfg, build_S(cfg.p)).c
        try:
            est = recover_line(c, cfg, PULSE)
        except OrderOverflow:
            return float("inf")
        if est.model_order == 0:
            return float("inf")
        sq = [np.min((est.delays - t) ** 2) for t in trips]
        return float(np.sqrt(np.mean(sq)))

    with criterion(8, "dynamic focus: lower delay RMSE and higher reference "
                      "peak than focus-at-infinity"):
        rmse_dyn = delay_rmse("dynamic")
        rmse_inf = delay_rmse("infinity")
        assert rmse_dyn <= rmse_inf
        dyn = beamform_line(ch, focus_mode="dynamic", out_step=50e-9)
        inf = beamform_line(ch, focus_mode="infinity", out_step=50e-9)
        peak_dyn = float(np.max(np.abs(dyn.samples)))
        peak_inf = float(np.max(np.abs(inf.samples)))
        assert peak_dyn >= peak_inf
        print(f"  delay RMSE {rmse_dyn * 1e9:.2f} ns (dynamic) vs "
              f"{rmse_inf * 1e9:.1f} ns (infinity); peaks {peak_dyn:.2f} vs "
              f"{peak_inf:.2f}")


def _run_pipeline(scene_path, root):
    ch = root / "ch"
    ref = root / "ref"
    xa = root / "xa"
    assert main(["simulate", "--scene", str(scene_path),
                 "--out", str(ch)]) == 0
    assert main(["beamform", "--channels", str(ch), "--scene",
                 str(scene_path), "--out", str(ref)]) == 0
    # noise floor sits near 4e-2 of the leading singular value here, so the
    # order estimate needs a threshold above it
    assert main(["xample", "--channels", str(ch), "--scene", str(scene_path),
                 "--out", str(xa), "--L", "5", "--rho", "2",
                 "--sv-threshold", "0.1", "--dump-samples"]) == 0
    assert main(["compare", "--reference", str(ref / "reference.pgm"),
                 "--xampled", str(xa / "xampled.pgm"),
                 "--estimates", str(xa / "estimates.csv"),
                 "--scene", str(scene_path),
                 "--out", str(root / "metrics.csv")]) == 0
    return [ref / "reference.pgm", ref / "reference_lines.csv",
            xa / "xampled.pgm", xa / "estimates.csv", xa / "samples_c.csv",
            xa / "samples_cqm.csv", root / "metrics.csv",
            ch / "line_000.urf", ch / "line_001.urf"]


def test_criterion_9_pipeline_determinism(tmp_path):
    """Identical scene + config + seed give byte-identical artifacts."""
    doc = {
        "speed_of_sound_m_s": SPEED,
        "tau_s": 51.2e-6,
        "pulse": {"carrier_hz": 5.142e6, "sigma_s": 1e-7, "amplitude": 1.0},
        "array": {"num_elements": 16, "pitch_m": 0.3e-3},
        "lines": [
            {"scatterers": [{"t_n_s": 6e-6, "reflectivity": 1.0},
                            {"t_n_s": 14e-6, "reflectivity": 1.4}]},
            {"scatterers": [{"t_n_s": 10e-6, "reflectivity": 0.9}]},
        ],
        "noise": {"snr_db": 25.0, "speckle_count": 25, "seed": 7},
    }
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(doc))
    with criterion(9, "two identical runs produce byte-identical PGM and CSV "
                      "artifacts"):
        a = _run_pipeline(scene_path, tmp_path / "run1")
        b = _run_pipeline(scene_path, tmp_path / "run2")
        for pa, pb in zip(a, b):
            assert filecmp.cmp(pa, pb, shallow=False), f"{pa.name} differs"
        print(f"  {len(a)} artifacts compared byte-for-byte")
