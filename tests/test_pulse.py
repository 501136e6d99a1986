import numpy as np
import pytest

from xampus import (InvariantViolation, OffBand, PulseModel, build_H,
                    pulse_spectrum)

from util import PULSE, eval_pulse, numeric_ctft


def test_peak_is_amplitude():
    assert eval_pulse(PULSE, 0.0) == 1.0
    assert eval_pulse(PulseModel(5.142e6, 1e-7, 3.25), 0.0) == 3.25


def test_tail_below_support_floor():
    sig = PULSE.envelope_sigma
    for t in (6 * sig, -6 * sig, 10 * sig):
        assert abs(eval_pulse(PULSE, t)) < 1e-6


def test_zero_at_quarter_carrier_period():
    t = 1.0 / (4.0 * PULSE.carrier_hz)
    assert abs(eval_pulse(PULSE, t)) <= 1e-12


def test_even_symmetry():
    rng = np.random.default_rng(0)
    t = rng.uniform(-5e-7, 5e-7, 32)
    np.testing.assert_array_equal(eval_pulse(PULSE, t), eval_pulse(PULSE, -t))


def test_spectrum_against_numeric_integral():
    wc = 2 * np.pi * PULSE.carrier_hz
    for w in (wc, 0.0):
        num = numeric_ctft(PULSE, w)[0]
        closed = pulse_spectrum(PULSE, w)
        assert abs(num - closed) / abs(closed) <= 1e-6
    # dominant-term form at the carrier
    sig = PULSE.envelope_sigma
    expect = sig * np.sqrt(2 * np.pi) / 2 * (1 + np.exp(-2 * sig**2 * wc**2))
    assert np.isclose(pulse_spectrum(PULSE, wc), expect, rtol=1e-12)
    expect0 = sig * np.sqrt(2 * np.pi) * np.exp(-(sig * wc) ** 2 / 2)
    assert np.isclose(pulse_spectrum(PULSE, 0.0), expect0, rtol=1e-12)


def test_spectrum_even_and_real():
    rng = np.random.default_rng(1)
    w = rng.uniform(0, 2 * np.pi * 12e6, 10)
    np.testing.assert_array_equal(pulse_spectrum(PULSE, w),
                                  pulse_spectrum(PULSE, -w))


def test_spectrum_matches_numeric_on_harmonics():
    # the harmonics the sampling stage actually uses
    tau = 102.4e-6
    k = np.arange(498, 558)
    w = 2 * np.pi * k / tau
    num = numeric_ctft(PULSE, w)
    closed = pulse_spectrum(PULSE, w)
    assert np.max(np.abs(num - closed) / np.abs(closed)) <= 1e-5


def test_build_h_single_harmonic():
    tau = 102.4e-6
    H = build_H(PULSE, [527], tau)
    assert H.shape == (1,)
    assert H[0] == pulse_spectrum(PULSE, 2 * np.pi * 527 / tau)


def test_build_h_near_carrier_all_nonzero():
    tau = 102.4e-6
    k = np.concatenate([np.arange(498, 558), -np.arange(498, 558)])
    H = build_H(PULSE, k, tau)
    assert np.all(np.abs(H) > 0)


def test_build_h_rejects_off_band_harmonic():
    # k = 5000 is 48.8 MHz, where H/H(w_c) ~ exp(-377), below SPECTRUM_FLOOR
    with pytest.raises(OffBand, match="5000"):
        build_H(PULSE, [5000, 527], 102.4e-6)
    # H(0)/H(w_c) ~ 1.1e-2 for this pulse, well above the floor
    assert np.all(np.abs(build_H(PULSE, [0, 527], 102.4e-6)) > 0)


def test_invalid_parameters():
    with pytest.raises(InvariantViolation, match="pulse carrier_hz"):
        PulseModel(carrier_hz=-1.0, envelope_sigma=1e-7)
    with pytest.raises(InvariantViolation, match="pulse envelope_sigma"):
        PulseModel(carrier_hz=5e6, envelope_sigma=0.0)


@pytest.mark.parametrize("kwargs", [
    {"carrier_hz": float("inf")},
    {"carrier_hz": float("nan")},
    {"envelope_sigma": float("inf")},
    {"envelope_sigma": float("nan")},
    {"amplitude": float("nan")},
    {"amplitude": float("inf")},
    {"amplitude": 0.0},
])
def test_pulse_rejects_non_finite(kwargs):
    field = next(iter(kwargs))
    with pytest.raises(InvariantViolation, match=f"pulse {field} must be"):
        PulseModel(**kwargs)
