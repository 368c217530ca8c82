import math

import mpmath
import numpy as np
import pytest
from scipy import special as sp

from noncompact import specfun


# --- independent oracles -----------------------------------------------------


def euler_gamma_oracle(terms: int = 10**6) -> float:
    # Harmonic sum with Euler-Maclaurin correction; error ~ 1/(120 N^4).
    n = np.arange(1, terms + 1, dtype=float)
    h = float(np.sum(1.0 / n))
    return h - math.log(terms) - 1.0 / (2 * terms) + 1.0 / (12 * terms**2)


def basel_oracle(terms: int = 2000) -> float:
    # Partial sum of 1/n^2 plus integral tail correction; error ~ 1/(30 N^5).
    n = np.arange(1, terms + 1, dtype=float)
    s = float(np.sum(1.0 / n**2))
    return s + 1.0 / terms - 1.0 / (2 * terms**2) + 1.0 / (6 * terms**3)


def j_series(n: int, x: float, terms: int = 80) -> float:
    total = 0.0
    for m in range(terms):
        total += (
            (-1) ** m
            * (x / 2.0) ** (2 * m + n)
            / (math.factorial(m) * math.factorial(m + n))
        )
    return total


def i_series(n: int, x: float, terms: int = 60) -> float:
    total = 0.0
    for m in range(terms):
        total += (x / 2.0) ** (2 * m + n) / (math.factorial(m) * math.factorial(m + n))
    return total


def bisect_series_zero(n: int, lo: float, hi: float) -> float:
    assert j_series(n, lo) * j_series(n, hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if j_series(n, lo) * j_series(n, mid) <= 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi)


# --- digamma / trigamma ------------------------------------------------------


def test_digamma_recurrence_step():
    assert specfun.digamma(2) - specfun.digamma(1) == pytest.approx(1.0, abs=1e-12)


def test_digamma_at_one_is_minus_euler_gamma():
    assert specfun.digamma(1) == pytest.approx(-euler_gamma_oracle(), abs=1e-12)


def test_digamma_log_asymptotics():
    m = 10**6
    assert specfun.digamma(m + 1) / math.log(m + 1) == pytest.approx(1.0, rel=5e-7)


def test_trigamma_at_one_is_basel_sum():
    assert specfun.trigamma(1) == pytest.approx(basel_oracle(), abs=1e-12)
    assert specfun.trigamma(1) == pytest.approx(1.6449340668482264, abs=1e-12)


def test_trigamma_recurrence_from_one():
    assert specfun.trigamma(2) == pytest.approx(math.pi**2 / 6 - 1, abs=1e-12)


def test_trigamma_asymptotics():
    m = 10**5
    assert (m + 1) * specfun.trigamma(m + 1) == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("x", [0.5, 1.0, 2.5, 10.0, 1000.0])
def test_polygamma_recurrences(x):
    assert specfun.digamma(x + 1) - specfun.digamma(x) == pytest.approx(
        1.0 / x, abs=1e-12
    )
    assert specfun.trigamma(x + 1) - specfun.trigamma(x) == pytest.approx(
        -1.0 / x**2, abs=1e-12
    )


@pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
def test_polygamma_domain_errors(x):
    with pytest.raises(ValueError):
        specfun.digamma(x)
    with pytest.raises(ValueError):
        specfun.trigamma(x)


# --- Bessel J and I ----------------------------------------------------------


def test_bessel_j_trivial_values():
    assert specfun.bessel_j(0, 0.0) == 1.0
    assert specfun.bessel_j(1, 0.0) == 0.0
    assert specfun.bessel_j(5, 0.0) == 0.0


def test_bessel_j_matches_power_series():
    for n in (0, 1, 3, 8):
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            assert specfun.bessel_j(n, x) == pytest.approx(j_series(n, x), abs=1e-12)


def test_bessel_j_vanishes_at_first_zero():
    assert abs(specfun.bessel_j(0, 2.404825557695773)) < 1e-10


def test_bessel_i_values():
    assert specfun.bessel_i(0, 0.0) == 1.0
    assert specfun.bessel_i(2, 0.0) == 0.0
    assert specfun.bessel_i(0, 1.0) == pytest.approx(i_series(0, 1.0), abs=1e-12)
    assert specfun.bessel_i(0, 1.0) == pytest.approx(1.2660658777520084, abs=1e-12)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_bessel_j_recurrence(n, x):
    lhs = specfun.bessel_j(n - 1, x) + specfun.bessel_j(n + 1, x)
    rhs = (2.0 * n / x) * specfun.bessel_j(n, x)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_bessel_jprime_matches_mpmath():
    # Oracle: mpmath's arbitrary-precision derivative.  n = 0 takes the
    # J_{-1} = -J_1 branch; the absolute floor covers the zeros of J_n'.
    x = np.concatenate([[1e-300, 1e-10, 1e-3], np.linspace(50.0 / 600, 50.0, 600)])
    for n in range(6):
        want = [float(mpmath.besselj(n, xi, derivative=1)) for xi in x]
        got = specfun.bessel_jprime(n, x)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        assert specfun.bessel_jprime(n, float(x[-1])) == got[-1]
    with pytest.raises(ValueError):
        specfun.bessel_jprime(-1, 1.0)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_bessel_i_recurrence_unit_range(n, x):
    lhs = specfun.bessel_i(n - 1, x) - specfun.bessel_i(n + 1, x)
    rhs = (2.0 * n / x) * specfun.bessel_i(n, x)
    assert lhs == pytest.approx(rhs, abs=1e-10)


@pytest.mark.parametrize("x", [2.0, 5.0, 10.0, 50.0])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_bessel_i_recurrence_relative(n, x):
    # Above the unit-disc range I_n grows fast; check the recurrence relative
    # to the magnitude of the terms involved.
    lhs = specfun.bessel_i(n - 1, x) - specfun.bessel_i(n + 1, x)
    rhs = (2.0 * n / x) * specfun.bessel_i(n, x)
    scale = max(1.0, abs(specfun.bessel_i(n - 1, x)))
    assert abs(lhs - rhs) / scale < 1e-10


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        specfun.bessel_j(-1, 1.0)
    with pytest.raises(ValueError):
        specfun.bessel_j(0, -1.0)
    with pytest.raises(ValueError):
        specfun.bessel_i(0, -0.5)


# --- Bessel zeros ------------------------------------------------------------


def test_first_zeros_match_series_bisection():
    assert specfun.bessel_zero(0, 1) == pytest.approx(
        bisect_series_zero(0, 2.0, 3.0), abs=1e-10
    )
    assert specfun.bessel_zero(1, 1) == pytest.approx(
        bisect_series_zero(1, 3.5, 4.2), abs=1e-10
    )


def test_zero_values():
    assert specfun.bessel_zero(0, 1) == pytest.approx(2.404825557695773, abs=1e-10)
    assert specfun.bessel_zero(1, 1) == pytest.approx(3.831705970207512, abs=1e-10)


def test_j0_zero_band():
    for k in (1, 2, 5, 20, 50):
        z = specfun.bessel_zero(0, k)
        assert math.pi * (k - 0.25) < z < math.pi * (k - 0.125)


def test_zero_brackets_certified():
    table = specfun.BesselZeroTable()
    for n in range(4):
        for k in range(1, 5):
            specfun.bessel_zero(n, k, table)
    for (n, k), (alpha, lo, hi) in table.entries.items():
        assert lo < alpha < hi
        assert hi - lo <= specfun.ZERO_BRACKET_WIDTH
        assert sp.jv(n, lo) * sp.jv(n, hi) < 0


def test_zero_interlacing():
    table = specfun.BesselZeroTable()
    zeros = {
        (n, k): specfun.bessel_zero(n, k, table)
        for n in range(9)
        for k in range(1, 10)
    }
    for n in range(8):
        for k in range(1, 9):
            assert zeros[(n, k)] < zeros[(n + 1, k)] < zeros[(n, k + 1)]


def test_zeros_increasing_in_rank():
    zs = specfun.bessel_zeros(3, 12)
    assert np.all(np.diff(zs) > 0)


def test_bessel_zeros_vectorized_matches_scalar():
    table_a = specfun.BesselZeroTable()
    table_b = specfun.BesselZeroTable()
    vec = specfun.bessel_zeros(0, 30, table_a)
    scalars = [specfun.bessel_zero(0, k, table_b) for k in range(1, 31)]
    np.testing.assert_allclose(vec, scalars, atol=1e-12)


def test_zero_argument_errors():
    with pytest.raises(ValueError):
        specfun.bessel_zero(0, 0)
    with pytest.raises(ValueError):
        specfun.bessel_zero(-2, 1)


def test_zero_table_csv_round_trip(tmp_path):
    table = specfun.BesselZeroTable()
    for k in range(1, 6):
        specfun.bessel_zero(0, k, table)
        specfun.bessel_zero(2, k, table)
    path = tmp_path / "zeros.csv"
    table.to_csv(str(path))
    loaded = specfun.BesselZeroTable.from_csv(str(path))
    assert loaded.entries.keys() == table.entries.keys()
    for key, (alpha, lo, hi) in table.entries.items():
        got = loaded.entries[key]
        assert got[0] == pytest.approx(alpha, abs=1e-15)
        assert got[1] == pytest.approx(lo, abs=1e-15)
        assert got[2] == pytest.approx(hi, abs=1e-15)
