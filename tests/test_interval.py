import math

import mpmath
import numpy as np
import pytest

from noncompact import interval

TWO_PI = 2.0 * math.pi
EPS = np.finfo(float).eps


# --- eigenbasis and matrix elements -------------------------------------------


def test_fourier_mode_eigenvalue():
    assert interval.FourierMode(3).eigenvalue == pytest.approx(6.0 * math.pi)
    assert interval.FourierMode(0).nonnegative
    assert not interval.FourierMode(-2).nonnegative


def test_position_element_diagonal():
    assert interval.position_matrix_element(4, 4) == pytest.approx(0.5)


def test_position_element_off_diagonal():
    # <e^{0} | x | e^{2 pi i x}> = 1/(2 pi i) = -i/(2 pi).
    value = interval.position_matrix_element(0, 1)
    assert value == pytest.approx(-1j / TWO_PI, abs=1e-15)
    # Hermitian conjugate relation.
    assert interval.position_matrix_element(1, 0) == pytest.approx(
        np.conj(value), abs=1e-15
    )


def test_position_element_oracle():
    # Independent trapezoid oracle for int_0^1 x e^{2 pi i (n - l) x} dx.
    x = np.linspace(0.0, 1.0, 200001)
    for ell, n in [(0, 1), (2, -3), (5, 5), (-1, 4)]:
        integrand = x * np.exp(2j * math.pi * (n - ell) * x)
        expected = np.trapezoid(integrand, x)
        assert interval.position_matrix_element(ell, n) == pytest.approx(
            expected, abs=1e-8
        )


def test_compression_entries():
    comp = interval.assemble_interval_compression(8, 8)
    assert comp.matrix.shape == (8, 8)
    # Row l=0, column n=1 holds <e^0 | x | e^{-2 pi i x}> = i/(2 pi).
    assert comp.matrix[0, 0] == pytest.approx(1j / TWO_PI, abs=1e-15)
    for a, row in enumerate(comp.row_modes):
        for b, col in enumerate(comp.col_modes):
            assert row.nonnegative and not col.nonnegative
            expected = interval.position_matrix_element(row.index, col.index)
            assert comp.matrix[a, b] == pytest.approx(expected, abs=1e-15)
    # Every entry has modulus <= 1/(2 pi).
    assert np.max(np.abs(comp.matrix)) <= 1.0 / TWO_PI + 1e-15


def test_compression_size_guard():
    with pytest.raises(interval.CompressionSizeError):
        interval.assemble_interval_compression(100000, 100000)
    with pytest.raises(ValueError):
        interval.assemble_interval_compression(0, 4)


# --- witness norm --------------------------------------------------------------


def test_witness_norm_bounded():
    # ||xi_m||^2 = m psi'(m+1) < 1, against 30-digit mpmath.
    for m in (1, 2, 100, 1000, 3000, 10000, 10**6):
        with mpmath.workdps(30):
            want = m * mpmath.psi(1, m + 1)
        value = interval.interval_witness(m)
        assert abs(value - want) <= 4 * EPS * want, (m, value, want)
        assert value < 1.0


def test_witness_norm_identity():
    # The coefficients sqrt(m)/(n+m), n >= 1, squared and summed: fsum over
    # n <= 10m (the CLI truncation) plus the 30-digit tail m psi'(11m+1), at
    # the grid points of the CLI defaults and of the benchmark.
    for m in (100, 1000, 3000, 10000):
        n = np.arange(1, 10 * m + 1, dtype=float)
        coefficients = math.sqrt(m) / (n + m)
        with mpmath.workdps(30):
            tail = m * mpmath.psi(1, 11 * m + 1)
        total = mpmath.mpf(math.fsum(coefficients**2)) + tail
        value = interval.interval_witness(m)
        assert abs(value - total) <= 4 * EPS * value, (m, value, total)


def test_witness_invalid():
    for m in (0, -3):
        with pytest.raises(ValueError):
            interval.interval_witness(m)


# --- image pairings ------------------------------------------------------------


def test_pairing_diagonal_value():
    # |<zeta_1, e_1>| = trigamma(2)/(2 pi) = (pi^2/6 - 1)/(2 pi).
    value = interval.interval_image_coefficients(1, 2, l_cols=None)[1]
    assert value == pytest.approx((math.pi**2 / 6 - 1) / TWO_PI, abs=1e-12)
    assert value == pytest.approx(0.102644, abs=1e-6)


def test_pairing_vanishing_limit():
    assert interval.interval_image_coefficients(10**6, 1, l_cols=None)[0] < 1e-2


def test_full_image_coefficients_match_mpmath_nsum():
    # Oracle: the untruncated sum sqrt(m)/(2 pi) sum_{n>=1} 1/((n+m)(n+l)),
    # summed by mpmath at 30 digits; l = m is the trigamma branch.
    with mpmath.workdps(30):
        for m in (1, 7, 20):
            rows = max(m, 3) + 1
            coeffs = interval.interval_image_coefficients(m, rows, l_cols=None)
            for ell in (0, 3, m):
                exact = mpmath.sqrt(m) / (2 * mpmath.pi) * mpmath.nsum(
                    lambda n: 1 / ((n + m) * (n + ell)), [1, mpmath.inf]
                )
                assert coeffs[ell] == pytest.approx(float(exact), rel=1e-13)


def test_image_coefficients_invalid():
    for args in [(0, 1, None), (1, 0, None), (1, 1, 0)]:
        with pytest.raises(ValueError):
            interval.interval_image_coefficients(*args)


def test_image_coefficients_match_direct_sum():
    # Direct numpy summation oracle against the digamma partial fractions.
    L = 10**5
    n = np.arange(1, L + 1, dtype=float)
    for m in (1, 5, 17, 50):
        direct = np.array(
            [
                math.sqrt(m) / TWO_PI * np.sum(1.0 / ((n + m) * (n + p)))
                for p in range(6)
            ]
        )
        coeffs = interval.interval_image_coefficients(m, 6, L)
        np.testing.assert_allclose(coeffs, direct, atol=1e-10)


def test_image_coefficients_approach_closed_form_pairing():
    L = 10**5
    for m, p in [(1, 0), (5, 5), (17, 2), (50, 12)]:
        truncated = interval.interval_image_coefficients(m, p + 1, L)[p]
        full = interval.interval_image_coefficients(m, p + 1, l_cols=None)[p]
        tail = math.sqrt(m) / TWO_PI * 2.0 / L
        assert truncated <= full + 1e-12
        assert full - truncated <= tail


def _image_norm(m, k_rows, l_cols):
    return np.linalg.norm(interval.interval_image_coefficients(m, k_rows, l_cols))


def test_image_norm_lowerbound_single_term():
    # m=1, K=L=1: single coefficient 1/(2 pi (1+1)(1+1))... the (l=0,n=1)
    # term is sqrt(1)/(2 pi (1+1)(1+0)) = 1/(4 pi), squared 1/(16 pi^2).
    value = _image_norm(1, 1, 1)
    assert value**2 == pytest.approx(1.0 / (16.0 * math.pi**2), abs=1e-12)


def test_image_norm_lowerbound_monotone():
    prev = _image_norm(7, 10, 10)
    for scale in (2, 4, 8):
        cur = _image_norm(7, 10 * scale, 10 * scale)
        assert cur >= prev - 1e-15
        prev = cur


def test_image_norm_clears_bound():
    bound = 1.0 / (4.0 * math.pi**2)
    value = _image_norm(100, 1000, 1000)
    assert value**2 >= bound
