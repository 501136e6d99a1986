
import pytest

from xampus import (InvariantViolation, cost_table, sample_counts,
                    standard_ops, standard_samples, xampled_ops)


def test_sample_counts_table_rows():
    assert sample_counts(30, 1) == (60, 120)
    assert sample_counts(30, 2) == (120, 240)
    assert sample_counts(30, 3) == (180, 360)
    assert sample_counts(30, 4) == (240, 480)
    assert sample_counts(1, 1) == (2, 4)


def test_sample_counts_validation():
    # the kernel bank's own (L, rho) check, so cost refuses what xample does
    with pytest.raises(InvariantViolation):
        sample_counts(0, 1)
    with pytest.raises(InvariantViolation):
        sample_counts(30, 0.5)
    for rho in (float("inf"), float("nan"), 1e300):
        with pytest.raises(InvariantViolation):
            sample_counts(30, rho)
    with pytest.raises(InvariantViolation):
        sample_counts(10**400, 1)  # too large for a float
    for rho in (1.5, 1.05):  # 2*rho*L = 15 (odd) and 10.5
        with pytest.raises(InvariantViolation, match="even integer"):
            sample_counts(5, rho)


def test_xampled_ops_frozen_block_sums():
    # block-sum values for L=30, 16-element aperture (M=8)
    assert xampled_ops(30, 60, 120, 8) == pytest.approx(475823, rel=1e-6)
    assert xampled_ops(30, 120, 240, 8) == pytest.approx(2907063, rel=1e-6)
    assert xampled_ops(30, 180, 360, 8) == pytest.approx(9288703, rel=1e-6)
    assert xampled_ops(30, 240, 480, 8) == pytest.approx(21588743, rel=1e-6)


def test_xampled_ops_monotone():
    base = xampled_ops(30, 60, 120, 8)
    assert xampled_ops(30, 90, 120, 8) > base
    assert xampled_ops(30, 60, 180, 8) > base
    assert xampled_ops(30, 60, 120, 12) > base


def test_cubic_growth_ratio():
    r = xampled_ops(30, 240, 480, 8) / xampled_ops(30, 60, 120, 8)
    assert 40 <= r <= 70


def test_standard_samples_at_reference_depth():
    assert standard_samples(0.0788) == 2047
    assert abs(standard_samples() - 2048) <= 1


@pytest.mark.parametrize("kwargs", [
    {"depth_m": float("inf")}, {"depth_m": float("nan")}, {"depth_m": 0.0},
    {"depth_m": -0.01},
    {"depth_m": 1e300},  # a finite depth whose count passes 2**53
    {"depth_m": 1e-11},  # a round trip that rounds to no sample
])
def test_standard_samples_rejects_bad_inputs(kwargs):
    with pytest.raises(InvariantViolation):
        standard_samples(**kwargs)


def test_standard_ops_reference_case():
    total = standard_ops(2048, 16)
    assert total == 2048 * 15 + 2 * 2048 * 11  # adds + two FFTs
    assert total == 75776
    # within a factor 2 of 0.06 MOps
    assert 0.5 <= (total / 1e6) / 0.06 <= 2.0


def test_standard_ops_single_element_is_fft_only():
    assert standard_ops(1024, 1) == 2 * 1024 * 10


def test_standard_ops_validation():
    with pytest.raises(InvariantViolation):
        standard_ops(0, 16)
    with pytest.raises(InvariantViolation,
                       match="num_elements -3 must be >= 1"):
        standard_ops(2048, -3)


def test_cost_table_reductions():
    rows = cost_table(30, [1, 2, 3, 4])
    assert [r.K for r in rows] == [60, 120, 180, 240]
    assert [r.samples_per_element_per_line for r in rows] == [120, 240, 360, 480]
    assert [round(r.reduction_factor, 1) for r in rows] == [17.1, 8.5, 5.7, 4.3]
    for r in rows:
        assert r.standard_samples == 2047
        assert r.xampled_mops > r.standard_mops
