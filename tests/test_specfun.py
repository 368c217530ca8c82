import inspect
import math
import os
import pathlib
import random
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as sp

import oracles
from conftest import fresh_zero_table
from noncompact import disc, interval, specfun


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


# --- psi and psi' against independent oracles ---------------------------------
# specfun.pair_sum calls only specfun.psi and specfun.psi1; the zero search
# and its sign check take J_n from the recurrence on specfun.bessel_j01, and
# the test oracles call J_n and I_n from scipy.special directly.


def test_digamma_recurrence_step():
    assert specfun.psi(2.0) - specfun.psi(1.0) == pytest.approx(1.0, abs=1e-12)


def test_digamma_at_one_is_minus_euler_gamma():
    assert specfun.psi(1.0) == pytest.approx(-euler_gamma_oracle(), abs=1e-12)


def test_digamma_log_asymptotics():
    m = 10**6
    assert specfun.psi(m + 1.0) / math.log(m + 1) == pytest.approx(1.0, rel=5e-7)


def test_trigamma_at_one_is_basel_sum():
    assert specfun.psi1(1.0) == pytest.approx(basel_oracle(), abs=1e-12)
    assert specfun.psi1(1.0) == pytest.approx(1.6449340668482264, abs=1e-12)


def test_trigamma_recurrence_from_one():
    assert specfun.psi1(2.0) == pytest.approx(math.pi**2 / 6 - 1, abs=1e-12)


def test_trigamma_asymptotics():
    m = 10**5
    assert (m + 1) * specfun.psi1(m + 1.0) == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("x", [0.5, 1.0, 2.5, 10.0, 1000.0])
def test_polygamma_recurrences(x):
    assert specfun.psi(x + 1) - specfun.psi(x) == pytest.approx(1.0 / x, abs=1e-12)
    assert specfun.psi1(x + 1) - specfun.psi1(x) == pytest.approx(
        -1.0 / x**2, abs=1e-12
    )


def test_psi_and_psi1_match_mpmath():
    # 2000 log-uniform points in [1, 1e7], 201 around the zero of psi at
    # x0 = 1.4616..., and the ends of the series range, against mpmath at 30
    # digits.  The bounds are the ones the docstrings state: 6 eps (1 + |psi|)
    # for psi, 3 eps relative for psi'.  Measured on 40 000 points, 30 000 of
    # them in [1, 17]: at most 4.5 and 1.97.
    x0 = 1.4616321449683622
    rng = np.random.default_rng(14)
    x = np.concatenate(
        [
            np.exp(rng.uniform(0.0, math.log(1e7), 2000)),
            x0 + np.linspace(-1e-3, 1e-3, 201),
            [1.0, np.nextafter(16.0, 0.0), 16.0, 1e7],
        ]
    )
    with mpmath.workdps(30):
        want = np.array([float(mpmath.digamma(v)) for v in x])
        want1 = np.array([float(mpmath.psi(1, v)) for v in x])
    eps = np.finfo(float).eps
    assert np.all(np.abs(specfun.psi(x) - want) <= 6 * eps * (1 + np.abs(want)))
    assert np.all(np.abs(specfun.psi1(x) - want1) <= 3 * eps * want1)


# --- pair_sum against the sums themselves --------------------------------------


def pair_sum_oracle(a, b, lo, hi):
    # math.fsum of the float terms for finite hi (each term within 1.5 eps,
    # all positive), mpmath's Euler-Maclaurin nsum at 20 digits for hi = inf.
    if hi is None:
        with mpmath.workdps(20):
            term = lambda l: 1 / ((l + a) * (l + b))  # noqa: E731
            return float(mpmath.nsum(term, [lo + 1, mpmath.inf], method="e"))
    ell = np.arange(lo + 1, hi + 1, dtype=float)
    return math.fsum(1.0 / ((ell + a) * (ell + b)))


def psi_scale(a, b, lo, hi):
    # The psi values the closed form combines, over |a - b| (psi' at b = a):
    # for b near a they cancel, leaving rounding of order eps times this.
    def size(order, x):
        top = 0.0 if hi is None else abs(sp.polygamma(order, hi + 1 + x))
        return top + abs(sp.polygamma(order, lo + 1 + x))

    return size(1, a) if b == a else (size(0, a) + size(0, b)) / abs(a - b)


def _near(a, spread=2):
    return [b for b in range(a - spread, a + spread + 1) if b >= 0 and b != a]


def _far_field_c(n, rows):
    # c = -1/4 - r/pi at both roots r of beta^2 + alpha_{0,k} beta + 1/8, as
    # in disc.disc_image_coefficients.  Evaluated at collection, so it must
    # leave specfun's table cold.
    with fresh_zero_table():
        alpha = specfun.bessel_zeros(0, max(rows))[np.array(rows) - 1]
    r_minus = -0.5 * (alpha + np.sqrt(alpha * alpha - 0.5))
    return np.concatenate([-0.25 - r / math.pi for r in (0.125 / r_minus, r_minus)])


PAIR_SUM_CASES = (
    # Interval rows: b = l = 0..k, lo = 0, hi = L >= 1000 or infinity.
    [(m, [0, 1, 2, 5, 19, *_near(m)], 0, hi) for m in (1, 7, 100, 10**4)
     for hi in (1000, 10**5, None)]
    # The diagonal b = a, with the witness tail lo = L.
    + [(a, [a], lo, hi) for a in (1, 7, 1000, 10**4)
       for lo, hi in ((0, 1000), (0, None), (1000, None), (10**5, None))]
    # The disc far field: lo = 64, hi = K = max(10 n, 1000), real rows.
    + [(n, _far_field_c(n, sorted({1, 2, 10, *_near(n, 1), n, K})), 64, K)
       for n in (1, 7, 100, 1000) for K in [max(10 * n, 1000)]]
    # The disc bracket: c = k - 1/4 and k - 1/2, hi = infinity.
    + [(n, [k - d for k in {1, 3, n, n + 1, 4000} for d in (0.25, 0.5)], 0, None)
       for n in (1, 7, 1000, 10**4)]
)


@pytest.mark.parametrize("a, bs, lo, hi", PAIR_SUM_CASES)
def test_pair_sum_matches_the_summed_terms(a, bs, lo, hi):
    # The worst error measured on these cases is 0.78 eps (psi_scale + |sum|)
    # (a = b = 1, hi = 1000); the tolerance is 4 eps times that scale.  Near
    # the diagonal the cancellation makes it up to 8.2e-11 relative (a = 10^4,
    # b = 9998, hi = 1000); on the diagonal itself it stays below 1e-15.
    got = specfun.pair_sum(a, np.array(bs, dtype=float), lo, hi)
    assert got.shape == (len(bs),)
    eps = np.finfo(float).eps
    for value, b in zip(got, bs):
        want = pair_sum_oracle(a, b, lo, hi)
        tol = 4 * eps * (psi_scale(a, b, lo, hi) + abs(want))
        assert abs(value - want) <= tol, (a, b, lo, hi, value, want)


def test_every_closed_form_goes_through_pair_sum(monkeypatch):
    # The five psi evaluations of the models: the rows l != m and l = m of the
    # interval image coefficients, the witness's closed norm, the disc far
    # field (L > 64) and the disc bracket.
    def refuse(*args, **kwargs):
        raise AssertionError("pair_sum was called")

    monkeypatch.setattr(specfun, "pair_sum", refuse)
    calls = (
        lambda: interval.interval_image_coefficients(5, 3),
        lambda: interval.interval_image_coefficients(2, 3, 10),
        lambda: interval.interval_witness(3),
        lambda: disc.disc_image_coefficients(3, 2, 100),
        lambda: disc.disc_image_bracket(3, 2),
    )
    for call in calls:
        with pytest.raises(AssertionError, match="pair_sum was called"):
            call()


def test_bessel_j_trivial_values():
    assert sp.jv(0, 0.0) == 1.0
    assert sp.jv(1, 0.0) == 0.0
    assert sp.jv(5, 0.0) == 0.0


def test_bessel_j_matches_power_series():
    for n in (0, 1, 3, 8):
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            assert sp.jv(n, x) == pytest.approx(j_series(n, x), abs=1e-12)


def test_bessel_j_vanishes_at_first_zero():
    assert abs(sp.jv(0, 2.404825557695773)) < 1e-10


def test_bessel_i_values():
    assert sp.iv(0, 0.0) == 1.0
    assert sp.iv(2, 0.0) == 0.0
    assert sp.iv(0, 1.0) == pytest.approx(i_series(0, 1.0), abs=1e-12)
    assert sp.iv(0, 1.0) == pytest.approx(1.2660658777520084, abs=1e-12)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_bessel_j_recurrence(n, x):
    lhs = sp.jv(n - 1, x) + sp.jv(n + 1, x)
    rhs = (2.0 * n / x) * sp.jv(n, x)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_bessel_jprime_matches_mpmath():
    # Oracle: mpmath's arbitrary-precision derivative.  n = 0 takes the
    # J_{-1} = -J_1 branch; the absolute floor covers the zeros of J_n'.
    x = np.concatenate([[1e-300, 1e-10, 1e-3], np.linspace(50.0 / 600, 50.0, 600)])
    for n in range(6):
        want = [float(mpmath.besselj(n, xi, derivative=1)) for xi in x]
        got = oracles.bessel_jprime(n, x)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        assert oracles.bessel_jprime(n, float(x[-1])) == got[-1]
    with pytest.raises(ValueError):
        oracles.bessel_jprime(-1, 1.0)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_bessel_i_recurrence_unit_range(n, x):
    lhs = sp.iv(n - 1, x) - sp.iv(n + 1, x)
    rhs = (2.0 * n / x) * sp.iv(n, x)
    assert lhs == pytest.approx(rhs, abs=1e-10)


@pytest.mark.parametrize("x", [2.0, 5.0, 10.0, 50.0])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_bessel_i_recurrence_relative(n, x):
    # Above the unit-disc range I_n grows fast; check the recurrence relative
    # to the magnitude of the terms involved.
    lhs = sp.iv(n - 1, x) - sp.iv(n + 1, x)
    rhs = (2.0 * n / x) * sp.iv(n, x)
    scale = max(1.0, abs(sp.iv(n - 1, x)))
    assert abs(lhs - rhs) / scale < 1e-10


# --- J_0 and J_1 in numpy ------------------------------------------------------


def test_bessel_j01_matches_mpmath(zero_table):
    # Oracle: mpmath's J_0 and J_1 at 40 digits, on 2000 log-uniform points
    # in [0.5, 2.7e5] (the largest order-0 zero specfun can store is about
    # 2.62e5), 200 points on each side of HANKEL_MIN, the two floats next to
    # it, and both ends of the first 100 order-0 brackets.  The bounds are the
    # docstring's: 20 eps sqrt(2/(pi x)) below HANKEL_MIN and 3 eps above.
    cut = specfun.HANKEL_MIN
    rng = np.random.default_rng(16)
    specfun.bessel_zeros(0, 100)
    _, lo, hi = zero_table.rows[0]
    x = np.concatenate(
        [
            np.exp(rng.uniform(math.log(0.5), math.log(2.7e5), 2000)),
            rng.uniform(cut - 10.0, cut, 200),
            rng.uniform(cut, cut + 10.0, 200),
            [np.nextafter(cut, 0.0), cut],
            lo,
            hi,
        ]
    )
    assert np.sum(x < cut) > 400 and np.sum(x >= cut) > 400
    with mpmath.workdps(40):
        want0 = np.array([float(mpmath.besselj(0, v)) for v in x])
        want1 = np.array([float(mpmath.besselj(1, v)) for v in x])
    j0, j1 = specfun.bessel_j01(x)
    eps = np.finfo(float).eps
    bound = np.where(x < cut, 20.0, 3.0) * eps * np.sqrt(2.0 / (math.pi * x))
    assert np.all(np.abs(j0 - want0) <= bound)
    assert np.all(np.abs(j1 - want1) <= bound)


def test_bessel_j01_keeps_the_shape():
    # Arguments on both sides of HANKEL_MIN, alone and mixed, in any array
    # shape and for scalars; each value is the same bits whatever else is in
    # the call.
    x = np.array([[0.0, 3.0, 40.0], [24.0, 25.0, 1e5]])
    j0, j1 = specfun.bessel_j01(x)
    assert j0.shape == j1.shape == x.shape
    assert j0[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert j1[0, 0] == pytest.approx(0.0, abs=1e-15)
    for row in range(2):
        for col in range(3):
            single = specfun.bessel_j01(x[row, col])
            assert single[0].shape == ()
            assert single == (j0[row, col], j1[row, col])
    assert specfun.bessel_j01(np.empty(0))[0].shape == (0,)


def test_order_zero_brackets_pass_scipys_sign_check(zero_table):
    # The order-0 sign check uses bessel_j01, which the Newton search also
    # uses, so the independent check is here: every order-0 bracket up to
    # the last storable rank, 83 443, is also a sign change of scipy's J_0,
    # and clears the margin of bessel_zeros by far (measured: |J_0| at least
    # 2.2e-14 at the ends, 1024 times the margin).
    specfun.bessel_zeros(0, 83443)
    _, lo, hi = zero_table.rows[0]
    assert lo.size == 83443
    assert np.all(sp.jv(0, lo) * sp.jv(0, hi) < 0)
    ends = np.stack((lo, hi))
    floor = specfun.J_SIGN_MARGIN * np.finfo(float).eps * np.sqrt(2 / (np.pi * ends))
    assert np.all(np.abs(specfun.bessel_j01(ends)[0]) >= 1000 * floor)
    with pytest.raises(ValueError, match="zero 83444 of J_0"):
        specfun.bessel_zeros(0, 83444)


def test_unstorable_zero_ranks_are_refused_before_the_newton_fill(
    monkeypatch, zero_table
):
    # From the first rank whose isolating interval starts where a float
    # spacing is at least half of ZERO_BRACKET_WIDTH on, no bracket of that
    # width holds a float zero strictly inside.  For J_0 that is rank 83 444
    # (spacing 5.8e-11 there, 2.9e-11 at rank 83 443), and a request past it
    # is refused as bad input, a ValueError, before any rank is refined.
    ks = np.arange(1, 84001)
    starts = math.pi * (ks - 0.25)
    first = int(ks[np.argmax(np.spacing(starts) >= specfun.ZERO_BRACKET_WIDTH / 2)])
    assert first == 83444

    def no_fill(*args):
        raise AssertionError("the Newton fill ran")

    monkeypatch.setattr(specfun, "_newton_in_intervals", no_fill)
    with pytest.raises(ValueError, match=f"zero {first} of J_0$"):
        specfun.bessel_zeros(0, 84000)


def test_order_zero_fill_loads_no_scipy():
    # A fresh interpreter fills every order up to 63 on a cold table, sign
    # checks included, and groups the disc eigenvalues over the same range,
    # as the benchmark's zeros job does, without importing scipy.
    probe = (
        "import sys; from noncompact import disc, specfun; "
        "loaded = lambda: any(m.split('.')[0] == 'scipy' for m in sys.modules); "
        "specfun.bessel_zeros(63, 512); filled = loaded(); "
        "disc.eigenvalue_multiplicities(64, 512); print(filled, loaded())"
    )
    src = str(pathlib.Path(specfun.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "False"]


def test_zero_brackets_pass_scipys_sign_check(zero_table):
    # The sign check uses _jv_pair, which the Newton search also uses, so the
    # independent check is here: all 34 784 brackets that bessel_zeros(63,
    # 512) stores on a cold table are also sign changes of scipy's J_n, and
    # clear the floor of the sign check by far (measured: 297 times at
    # n = 63, the least).
    specfun.bessel_zeros(63, 512)
    eps = np.finfo(float).eps
    count = 0
    for n, (_, lo, hi) in zero_table.rows.items():
        assert lo.size == 512 + 63 - n
        count += lo.size
        assert np.all(sp.jv(n, lo) * sp.jv(n, hi) < 0)
        ends = np.stack((lo, hi))
        unit = math.sqrt(n + 1) * eps * np.sqrt(2 / (np.pi * ends))
        floor = specfun.J_SIGN_MARGIN * unit
        assert np.all(np.abs(specfun._jv_pair(n, ends)[1]) >= 200 * floor)
    assert count == 34784


def test_jv_pair_error_bound(zero_table):
    # Oracle: mpmath's J_n at 40 digits.  The bound is _jv_pair's docstring's,
    # 20 sqrt(n + 1) eps sqrt(2/(pi x)) for x > n, which J_SIGN_MARGIN must
    # exceed 3 times.  Points: the first three brackets of every order
    # 1..63 and four more ends drawn at random, the first eight brackets of
    # orders 100 and 150, and grids in (n, n + 60], where the recurrence
    # crosses the turning point x = n, up to order 1000, past 361, the
    # highest order of a sweep (measured: at most 8.2 sqrt(n + 1) at n = 1,
    # 3.1 for n >= 20; 1.81 at n = 600 and 3.02 at n = 1000).
    bound = 20.0
    assert specfun.J_SIGN_MARGIN >= 3 * bound
    rng = np.random.default_rng(17)
    specfun.bessel_zeros(63, 512)
    specfun.bessel_zeros(150, 8)
    points = []
    for n in range(1, 64):
        ends = zero_table.rows[n][1:].ravel()
        first = zero_table.rows[n][1:, :3].ravel()
        points.append((n, np.concatenate([first, rng.choice(ends, 4)])))
    for n in (100, 150):
        points.append((n, zero_table.rows[n][1:, :8].ravel()))
    for n in (1, 2, 5, 10, 63, 100, 150, 361, 600, 1000):
        points.append((n, n + np.linspace(0.0, 60.0, 121)[1:]))
    eps = np.finfo(float).eps
    for n, x in points:
        with mpmath.workdps(40):
            want = np.array([float(mpmath.besselj(n, v)) for v in x])
        err = np.abs(specfun._jv_pair(n, x)[1] - want)
        unit = math.sqrt(n + 1) * eps * np.sqrt(2 / (np.pi * x))
        assert np.all(err <= bound * unit), n


def test_sign_check_margin_is_live(monkeypatch, zero_table):
    # A margin no bracket end can clear makes the fill fail, so the floor is
    # applied, not only computed.
    monkeypatch.setattr(specfun, "J_SIGN_MARGIN", 1e12)
    with pytest.raises(specfun.BracketError):
        specfun.bessel_zeros(5, 10)


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


def test_zero_sign_change_brackets(zero_table):
    # Ranks of J_0 up to 30000 reach alpha ~ 9.4e4, where the rounding of
    # the bracket ends is a sizeable part of ZERO_BRACKET_WIDTH.
    specfun.bessel_zeros(0, 30000)
    for n in range(1, 4):
        for k in range(1, 5):
            specfun.bessel_zero(n, k)
    for (n, k), (alpha, lo, hi) in zero_table.entries.items():
        assert lo < alpha < hi
        assert hi - lo <= specfun.ZERO_BRACKET_WIDTH
        assert sp.jv(n, lo) * sp.jv(n, hi) < 0


def test_zero_interlacing(zero_table):
    zeros = {
        (n, k): specfun.bessel_zero(n, k)
        for n in range(9)
        for k in range(1, 10)
    }
    for n in range(8):
        for k in range(1, 9):
            assert zeros[(n, k)] < zeros[(n + 1, k)] < zeros[(n, k + 1)]


def test_zeros_increasing_in_rank():
    zs = specfun.bessel_zeros(3, 12)
    assert np.all(np.diff(zs) > 0)


@pytest.fixture(scope="module")
def zeros_job_table():
    """Orders 0..63 to rank 512, requested in shuffled order as the
    benchmark's zeros job does."""
    orders = list(range(64))
    random.Random(0).shuffle(orders)
    with fresh_zero_table() as table:
        zeros = {n: specfun.bessel_zeros(n, 512) for n in orders}
    return table, zeros


def test_bessel_zeros_match_jn_zeros(zeros_job_table):
    table, zeros = zeros_job_table
    for n in range(64):
        np.testing.assert_allclose(zeros[n], sp.jn_zeros(n, 512), rtol=0, atol=1e-9)
    # Every stored bracket, including the extra ranks interlacing needed.
    n, k = np.array(list(table.entries)).T
    alpha, lo, hi = np.array(list(table.entries.values())).T
    a, b = np.array(
        [
            (table.get(m - 1, j), table.get(m - 1, j + 1))
            if m
            else (math.pi * (j - 0.25), math.pi * (j - 0.125))
            for m, j in zip(n, k)
        ]
    ).T
    assert np.all((a < lo) & (lo < alpha) & (alpha < hi) & (hi < b))
    assert np.all(hi - lo <= specfun.ZERO_BRACKET_WIDTH)
    assert np.all(sp.jv(n, lo) * sp.jv(n, hi) < 0)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 63), k=st.integers(1, 512))
@example(n=0, k=1)
@example(n=63, k=512)
def test_zero_brackets_isolate_the_zero_mpmath(zeros_job_table, n, k):
    # Oracle: mpmath's J_n, which keeps full relative precision near its
    # zeros, and its zeros of J_{n-1}.
    table, _ = zeros_job_table
    _, lo, hi = table.rows[n][:, k - 1]
    assert mpmath.besselj(n, lo) * mpmath.besselj(n, hi) < 0
    if n == 0:
        a, b = mpmath.pi * (k - 0.25), mpmath.pi * (k - 0.125)
    else:
        a, b = mpmath.besseljzero(n - 1, k), mpmath.besseljzero(n - 1, k + 1)
    assert a < lo < hi < b


@pytest.mark.parametrize("n", [0, 1, 2, 10, 40, 63, 64])
def test_jv_pair_matches_mpmath(n):
    # Oracle: mpmath's J_n.  The points cover (n, 2000] and straddle every
    # 16th of the first 512 zeros of J_n, where the Newton search evaluates.
    # The largest error measured was 5.0e-16 (2.0e-15 from scipy's j0 and j1;
    # scipy's jv: 3.2e-14 at n = 64).
    zeros = sp.jn_zeros(n, 512)[::16]
    x = np.concatenate(
        [
            n + np.array([1e-9, 1e-3, 0.1]),
            np.linspace(n, 2000.0, 80)[1:],
            zeros - 0.37,
            zeros + 0.37,
        ]
    )
    below, at = specfun._jv_pair(n, x)
    want_below = [float(mpmath.besselj(n - 1, xi)) for xi in x]
    want_at = [float(mpmath.besselj(n, xi)) for xi in x]
    np.testing.assert_allclose(below, want_below, rtol=0, atol=1e-14)
    np.testing.assert_allclose(at, want_at, rtol=0, atol=1e-14)


def test_zeros_independent_of_request_order():
    orders = list(range(16))
    with fresh_zero_table() as ascending:
        for n in orders:
            specfun.bessel_zeros(n, 64)
    random.Random(1).shuffle(orders)
    with fresh_zero_table() as shuffled:
        for n in orders:
            specfun.bessel_zeros(n, 64)
    assert shuffled.entries == ascending.entries


def test_bessel_zero_is_entry_of_bessel_zeros():
    for n, k in ((0, 1), (0, 37), (1, 5), (7, 20), (40, 3)):
        with fresh_zero_table():
            scalar = specfun.bessel_zero(n, k)
        with fresh_zero_table():
            assert scalar == specfun.bessel_zeros(n, k)[k - 1]


def test_zero_argument_errors(zero_table):
    with pytest.raises(ValueError):
        specfun.bessel_zero(0, 0)
    with pytest.raises(ValueError):
        specfun.bessel_zero(-2, 1)
    # A non-integer rank or order is refused on a cold table and after its
    # zeros are cached alike, where a rank used to index the cached array and
    # an order equal to a cached one (2.0) found its row.  A bool is not an
    # integer here: True would run as 1.
    for _ in range(2):
        for k in (2.5, 2.0, "3", True):
            with pytest.raises(ValueError, match="rank k"):
                specfun.bessel_zero(0, k)
        for n in (2.5, 2.0, "3", True):
            with pytest.raises(ValueError, match="order"):
                specfun.bessel_zero(n, 1)
        specfun.bessel_zeros(3, 5)
    assert specfun.bessel_zero(0, np.int64(3)) == zero_table.get(0, 3)


def test_bessel_zeros_count_errors(zero_table):
    # With ranks stored as an array prefix, a negative count would slice from
    # the end of the cached zeros instead of failing.
    specfun.bessel_zeros(0, 5)
    for k_max in (-1, -5, 2.0, 2.5, "3", True):
        with pytest.raises(ValueError):
            specfun.bessel_zeros(0, k_max)
    # The order follows the same rule: an integer type other than bool, >= 0.
    for n in (-1, 2.0, 2.5, "3", True):
        with pytest.raises(ValueError, match="order"):
            specfun.bessel_zeros(n, 3)
    assert specfun.bessel_zeros(0, 0).shape == (0,)
    assert specfun.bessel_zeros(0, np.int64(3)).shape == (3,)
    # Numpy integers are accepted and stored under int orders.
    assert specfun.bessel_zeros(np.int64(2), np.int64(3)).shape == (3,)
    assert [type(n) for n in zero_table.rows] == [int] * len(zero_table.rows)


def test_bessel_zeros_returns_a_copy(zero_table):
    for n in (3, 0):
        zeros = specfun.bessel_zeros(n, 10)
        expected, entries = zeros.copy(), zero_table.entries
        zeros[:] = -1.0
        assert zero_table.entries == entries
        np.testing.assert_array_equal(specfun.bessel_zeros(n, 10), expected)


def test_deep_orders_fill_without_recursion(zero_table):
    # Order 200 needs every order below it.  The fill walks down and back up
    # in one frame, so a stack with 50 frames to spare is enough; a fill
    # that recursed once per order would raise RecursionError here.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        zeros = specfun.bessel_zeros(200, 2)
    finally:
        sys.setrecursionlimit(limit)
    np.testing.assert_allclose(zeros, sp.jn_zeros(200, 2), rtol=0, atol=1e-9)
