import numpy as np
import pytest

from xampus import ArrayGeometry, InvariantViolation, arrival_time, tau_hat

C = 1540.0


def focus_delay(t_n, alpha, delta_m, c):
    """The delay a beamformer focused at ``t_n`` takes from element
    ``delta_m``: the on-axis round trip minus the element's own arrival."""
    return 2.0 * t_n - arrival_time(t_n, alpha, delta_m, c)


def test_on_axis_arrival_is_round_trip():
    for alpha in (0.0, 0.3, -0.7):
        assert arrival_time(1e-5, alpha, 0.0, C) == pytest.approx(2e-5, rel=1e-14)


def test_arrival_frozen_value():
    # t_n = 10 us, delta/c = 10 us, alpha = 0
    assert arrival_time(10e-6, 0.0, 10e-6 * C, C) == pytest.approx(
        2.4142135623730952e-05, rel=1e-12)


def test_arrival_colocated_element():
    # alpha = pi/2 puts the scatterer on the array axis at the element
    t_n = 7e-6
    assert arrival_time(t_n, np.pi / 2, C * t_n, C) == pytest.approx(t_n, rel=1e-9)


def test_arrival_never_precedes_scatter_time():
    rng = np.random.default_rng(2)
    for _ in range(100):
        t_n = rng.uniform(1e-6, 60e-6)
        alpha = rng.uniform(-1.0, 1.0)
        delta = rng.uniform(-5e-3, 5e-3)
        assert arrival_time(t_n, alpha, delta, C) >= t_n


def test_arrival_symmetric_in_offset_at_zero_angle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        t_n = rng.uniform(1e-6, 60e-6)
        delta = rng.uniform(0, 5e-3)
        assert arrival_time(t_n, 0.0, delta, C) == arrival_time(t_n, 0.0, -delta, C)


def test_focus_delay_on_axis_zero():
    assert focus_delay(1e-5, 0.0, 0.0, C) == 0.0


def test_focus_delay_frozen_value():
    assert focus_delay(10e-6, 0.0, 10e-6 * C, C) == pytest.approx(
        -4.14213562373095e-06, rel=1e-12)


def test_focus_delay_even_in_offset():
    rng = np.random.default_rng(5)
    for _ in range(20):
        t_n = rng.uniform(1e-6, 60e-6)
        delta = rng.uniform(0, 5e-3)
        assert focus_delay(t_n, 0.0, delta, C) == focus_delay(t_n, 0.0, -delta, C)


def test_warp_reduces_to_identity_on_axis():
    # dynamic focus reads element m at arrival_time(t/2): t on axis
    t = np.linspace(0, 1e-4, 11)
    np.testing.assert_allclose(arrival_time(t / 2, 0.0, 0.0, C), t, atol=0)


def test_warp_radicand_never_negative():
    # a sum of squares: finite for any angle
    t = np.linspace(0, 1e-4, 101)
    for alpha in (-1.2, 0.0, 0.9):
        w = arrival_time(t / 2, alpha, 4e-3, C)
        assert np.all(np.isfinite(w))
    # and with the focal point on the element, where the radicand is zero
    t_n = np.random.default_rng(7).uniform(1e-7, 60e-6, 20000)
    assert np.all(np.isfinite(arrival_time(t_n, np.pi / 2, C * t_n, C)))


def test_tau_hat_on_axis_equals_tau():
    geom = ArrayGeometry(1, 1e-3, C)
    assert tau_hat(102.4e-6, geom) == 102.4e-6


def test_tau_hat_frozen_value():
    # max |delta|/c = 10 us
    geom = ArrayGeometry(3, 10e-6 * C, C)
    assert tau_hat(102.4e-6, geom) == pytest.approx(1.0336742278472264e-04,
                                                    rel=1e-12)


def test_tau_hat_never_below_tau():
    rng = np.random.default_rng(6)
    for _ in range(20):
        geom = ArrayGeometry(int(rng.integers(1, 32)), rng.uniform(1e-4, 2e-3), C)
        tau = rng.uniform(1e-5, 2e-4)
        assert tau_hat(tau, geom) >= tau


def test_offsets_symmetric_odd_and_even():
    odd = ArrayGeometry(17, 0.3e-3, C).offsets
    np.testing.assert_array_equal(odd, -odd[::-1])
    assert odd[8] == 0.0
    even = ArrayGeometry(16, 0.3e-3, C).offsets
    np.testing.assert_array_equal(even, -even[::-1])
    assert 0.0 not in even
    assert even[8] == pytest.approx(0.15e-3)


def test_geometry_validation():
    with pytest.raises(InvariantViolation, match="array num_elements"):
        ArrayGeometry(0, 1e-3, C)
    with pytest.raises(InvariantViolation, match="array pitch"):
        ArrayGeometry(16, -1e-3, C)
    with pytest.raises(InvariantViolation, match="array speed_of_sound"):
        ArrayGeometry(16, 1e-3, 0.0)


@pytest.mark.parametrize("pitch, speed", [
    (float("nan"), C), (float("inf"), C), (-float("inf"), C),
    (1e-3, float("nan")), (1e-3, float("inf")),
])
def test_geometry_rejects_non_finite(pitch, speed):
    with pytest.raises(InvariantViolation, match="array "):
        ArrayGeometry(16, pitch, speed)
