import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as sp

import oracles
from noncompact import analysis, disc, specfun

RADII = np.linspace(0.05, 0.95, 37)


# --- modes and matrix elements -------------------------------------------------


def test_mode_validation():
    # The residual oracle takes a mode as (branch, n, k, sign).
    for mode in [(3, 1, 1, +1), (1, 0, 1, +1), (1, 1, 0, +1), (1, 1, 1, 0)]:
        with pytest.raises(ValueError, match="is no mode"):
            oracles.eigenmode_residual(*mode, RADII)


def _entries(n_max: int, k_max: int) -> dict:
    """Assembled compression entries keyed by (i, n, k, j, m, ell)."""
    matrix = disc.assemble_disc_compression(n_max, k_max).matrix
    labels = oracles.disc_labels(n_max, k_max)
    return {
        row + col: matrix[a, b]
        for a, row in enumerate(labels)
        for b, col in enumerate(labels)
    }


def test_element_branch_21_vanishes():
    assert _entries(3, 2)[(2, 3, 1, 1, 2, 2)] == 0


def test_element_trace_case():
    a1 = specfun.bessel_zero(0, 1)
    a2 = specfun.bessel_zero(0, 2)
    entries = _entries(2, 2)
    assert entries[(1, 1, 1, 2, 1, 1)] == pytest.approx(1.0 / a1)
    assert entries[(1, 1, 1, 2, 1, 2)] == pytest.approx(1.0 / (a1 + a2))
    assert entries[(1, 2, 1, 2, 1, 1)] == 0


def test_element_interior_cases_against_quadrature():
    rule = oracles.gauss_legendre_unit()
    entries = _entries(3, 3)
    for i, j in [(1, 1), (1, 2), (2, 2)]:
        for n in range(1, 4):
            for m in range(1, 4):
                for k in range(1, 4):
                    for ell in range(1, 4):
                        closed = entries[(i, n, k, j, m, ell)]
                        oracle = oracles.oracle_disc_element(
                            i, n, k, j, m, ell, rule
                        )
                        assert closed == pytest.approx(oracle, abs=1e-10)


# --- assembled compression -----------------------------------------------------


def test_assemble_matches_elements():
    # An entry depends on its two modes only, not on the truncation that
    # places it: a non-square truncation puts the same element at each mode
    # pair it shares with the 3 x 3 one.
    square, wide = _entries(3, 3), _entries(2, 4)
    shared = square.keys() & wide.keys()
    assert len(shared) == (2 * 2 * 3) ** 2
    for key in shared:
        assert wide[key] == pytest.approx(square[key], abs=1e-14)


def test_assemble_correction_removed_diagonal():
    # The (1,1)<-(2,1) block (rows (1,1,k), columns (2,1,ell)) is the Cauchy
    # matrix 1/(alpha_{0,k} + alpha_{0,ell}) plus the compact correction
    # 1/(2 alpha_{0,k}) on its diagonal, which is therefore 1/alpha_{0,k}.
    a0 = specfun.bessel_zeros(0, 4)
    block = disc.assemble_disc_compression(2, 4).matrix[:4, 2 * 4 : 3 * 4]
    np.testing.assert_allclose(np.diag(block), 1.0 / a0, rtol=1e-15)
    sv = 0.5 / a0
    np.testing.assert_allclose(
        block - np.diag(sv), 1.0 / (a0[:, None] + a0), rtol=1e-15
    )
    assert sv[0] == pytest.approx(0.207915, abs=1e-6)
    assert np.all(np.diff(sv) < 0)


def test_assemble_sparsity():
    comp = disc.assemble_disc_compression(4, 3)
    nnz = np.count_nonzero(comp.matrix)
    # Blocks: (1,1) for m=1..3, (2,2) for n=1..3 (9 entries each), plus the
    # full (1,1)<-(2,1) trace block.
    assert nnz == 3 * 9 + 3 * 9 + 9


# --- witness sequence ----------------------------------------------------------


def test_image_coefficient_single_term():
    value = disc.disc_image_coefficient(1, 1, 1)
    assert value == pytest.approx(1.0 / (4.0 * specfun.bessel_zero(0, 1)), abs=1e-12)
    assert value == pytest.approx(0.103957, abs=1e-6)


def test_image_coefficient_monotone_in_truncation():
    values = [disc.disc_image_coefficient(5, 2, L) for L in (10, 100, 1000)]
    assert values[0] < values[1] < values[2]


def test_image_coefficients_vector_matches_scalar():
    vec = disc.disc_image_coefficients(7, 5, 200)
    scalars = [disc.disc_image_coefficient(7, k, 200) for k in range(1, 6)]
    np.testing.assert_allclose(vec, scalars, atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 50),
    k_rows=st.integers(1, 300),
    truncation=st.integers(1, 300),
)
@example(n=1, k_rows=1, truncation=1)
# Every row past the 64 near columns, and far columns l = 65..1000.
@example(n=50, k_rows=1000, truncation=1000)
@example(n=50, k_rows=1000, truncation=300)
@example(n=50, k_rows=300, truncation=1000)
@example(n=3, k_rows=1, truncation=5000)
# 5000 rows of 64 exact columns and a far field.
@example(n=50, k_rows=5000, truncation=300)
def test_image_coefficients_match_fsum(n, k_rows, truncation):
    # Oracle: each row's terms summed exactly by math.fsum.  For L <= 64 every
    # term is summed.  Past it the far columns come in closed form from
    # McMahon's upper end, within 2.4e-12 relative of the sum on these draws
    # (n <= 50, k_rows and L <= 300, and the examples).
    a = specfun.bessel_zeros(0, max(k_rows, truncation))
    ell = np.arange(1, truncation + 1, dtype=float)
    expected = np.array([
        math.sqrt(n) * math.fsum(1.0 / ((n + ell) * (a[k] + a[:truncation])))
        for k in range(k_rows)
    ])
    got = disc.disc_image_coefficients(n, k_rows, truncation)
    if truncation <= 64:
        np.testing.assert_allclose(got, expected, rtol=1e-13)
    else:
        assert np.all(np.abs(got - expected) <= 1e-10 * expected)


def test_image_coefficients_buffer_is_bounded():
    # 50 000 x 20 terms would be an 8 MB temporary; one column at a time,
    # the sum holds a few vectors of 50 000 entries (400 kB each).  The zeros
    # are computed before tracing starts.
    specfun.bessel_zeros(0, 50_000)
    tracemalloc.start()
    try:
        disc.disc_image_coefficients(5, 50_000, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


@pytest.mark.parametrize("ell", [*range(1, 41), 64, 65, 10**3, 10**4, 30_000, 10**5])
def test_mcmahon_enclosure_of_j0_zeros(ell):
    # The far columns of disc_image_coefficients rest on the upper end.  At 40
    # digits; in float64 the margin 31/(384 beta^3) drops below the rounding
    # of alpha above ell ~ 1650.
    with mpmath.workdps(40):
        beta = mpmath.pi * (ell - mpmath.mpf(1) / 4)
        alpha = mpmath.besseljzero(0, ell)
        lower = beta + (mpmath.mpf(1) / 8 - mpmath.mpf(31) / (384 * beta**2)) / beta
        assert lower < alpha < beta + 1 / (8 * beta)


def test_image_coefficients_far_columns_need_no_zeros():
    # Columns past 64 need no zero of J_0: L = 10^7 runs, though the zeros of
    # rank above 83 443 (past 2^18) have no sign-change bracket, and its
    # memory does not grow with L.
    n, k_rows = 7, 50
    lower, upper = disc.disc_image_bracket(n, k_rows)
    peaks = []
    for L in (10**3, 10**7):
        disc.disc_image_coefficients(n, k_rows, L)
        tracemalloc.start()
        try:
            value = disc.disc_image_coefficients(n, k_rows, L)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        tail = math.sqrt(n) / (math.pi * L)
        assert np.all(value <= upper)
        assert np.all(value + tail >= lower)
    assert peaks[1] <= peaks[0]


def test_image_norm_pinned():
    value = np.linalg.norm(disc.disc_image_coefficients(1000, 10_000, 10_000))
    assert value == pytest.approx(0.6664600508503358, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 300), k_rows=st.integers(1, 50))
@example(n=1, k_rows=50)
def test_pairing_within_digamma_bounds(n, k_rows):
    L = 20000
    exact = disc.disc_image_coefficients(n, k_rows, L)
    lower, upper = disc.disc_image_bracket(n, k_rows)
    # Rigorous tail bound: terms ell > L are below sqrt(n)/(pi ell^2).
    tail = math.sqrt(n) / (math.pi * L)
    assert np.all(exact <= upper)
    assert np.all(exact + tail >= lower)


def test_pairing_bound_domain():
    with pytest.raises(ValueError):
        disc.disc_image_bracket(0, 3)
    with pytest.raises(ValueError):
        disc.disc_image_bracket(3, 0)


@pytest.mark.parametrize("n, k", [(1, 1), (1, 3), (2, 2), (5, 9), (20, 4)])
def test_bracket_matches_mpmath_nsum(n, k):
    # Oracle: each bracket end is sqrt(n)/pi sum_{ell>=1} 1/((n+ell)(ell+c)),
    # c = k - 1/4 (lower) and k - 1/2 (upper), summed by mpmath at 30 digits.
    with mpmath.workdps(30):
        ends = [
            mpmath.sqrt(n) / mpmath.pi
            * mpmath.nsum(lambda ell: 1 / ((n + ell) * (ell + c)), [1, mpmath.inf])
            for c in (k - mpmath.mpf(1) / 4, k - mpmath.mpf(1) / 2)
        ]
    lower, upper = disc.disc_image_bracket(n, k)
    assert lower[-1] == pytest.approx(float(ends[0]), rel=1e-13)
    assert upper[-1] == pytest.approx(float(ends[1]), rel=1e-13)


def test_bracket_upper_end_pinned_to_digamma_formula():
    # (sqrt(n)/pi)(psi(n+1) - psi(k+1/2))/(n-k+1/2), the upper bound for
    # k <= n that the bracket extends to every k.
    for n, k in [(100, 1), (1000, 3)]:
        expected = (
            math.sqrt(n)
            / math.pi
            * (sp.digamma(n + 1) - sp.digamma(k + 0.5))
            / (n - k + 0.5)
        )
        assert disc.disc_image_bracket(n, k)[1][-1] == pytest.approx(
            expected, rel=1e-15
        )


def test_image_norm_clears_model_bound():
    n = 100
    bound = (n - 1) / (4.0 * n * math.pi**2)
    value = np.linalg.norm(disc.disc_image_coefficients(n, 1000, 1000))
    assert value**2 >= bound


@pytest.mark.parametrize("n", [100, 1000, 3000])
def test_disc_premise_holds_in_interval_arithmetic(n):
    # Certified with mpmath.iv (outward rounding), using no psi and no Bessel
    # zero.  By the J_0 band the full image coefficient on row k exceeds the
    # lower end of disc_image_bracket, sqrt(n)/pi sum_{l>=1} f(l) with
    # f(l) = 1/((n+l)(l+c)), c = k - 1/4.  f decreases, so the terms l > L
    # sum to at least int_{L+1}^inf f = ln((L+1+n)/(L+1+c))/(n-c).  The
    # squared norm over rows k <= 50 then bounds the untruncated zeta^2 from
    # below: it encloses 0.235, 0.0845 and 0.0442 at n = 100, 1000 and 3000,
    # against the premise (n-1)/(4 n pi^2) ~ 0.025.
    iv = mpmath.iv
    L, rows = 100, 50
    lower_sq = iv.mpf(0)
    for k in range(1, rows + 1):
        c = k - iv.mpf(1) / 4
        s = sum(1 / ((n + ell) * (ell + c)) for ell in range(1, L + 1))
        s += iv.log((L + 1 + n) / (L + 1 + c)) / (n - c)
        lower_sq += (iv.sqrt(n) / iv.pi * s) ** 2
    # An iv comparison is True only if it holds at every point of both sides.
    assert (lower_sq > (n - 1) / (4 * n * iv.pi**2)) is True
    # The float bracket and the program's truncated zeta^2 agree with it.
    bracket = disc.disc_image_bracket(n, rows)[0]
    assert np.sum(bracket**2) >= float(lower_sq.a) * (1 - 1e-12)
    report = analysis.witness_protocol("disc", (n,))
    assert report.zeta_lower_sq[0] >= report.model_bound[0]


# --- pointwise residuals -------------------------------------------------------


def test_eigenmode_residuals_vanish():
    for branch in (1, 2):
        for sign in (+1, -1):
            for n, k in [(1, 1), (2, 3), (5, 2)]:
                assert oracles.eigenmode_residual(branch, n, k, sign, RADII) < 1e-10


def test_eigenmode_residual_linearity():
    base = oracles.eigenmode_residual(1, 2, 1, +1, RADII, scale=1.0)
    doubled = oracles.eigenmode_residual(1, 2, 1, +1, RADII, scale=2.0)
    assert doubled == pytest.approx(2.0 * base, rel=1e-10, abs=1e-18)


def test_deficiency_residuals_matched_sign():
    for family in (1, 2):
        for sign in (+1, -1):
            for n in range(0, 9):
                assert oracles.deficiency_residual(n, family, sign, RADII) < 1e-10


def test_deficiency_residual_wrong_sign_is_large():
    matched = oracles.deficiency_residual(0, 1, +1, RADII)
    wrong = oracles.deficiency_residual(0, 1, +1, RADII, operator_sign=-1)
    assert wrong > 1.0
    assert wrong > 1e6 * max(matched, 1e-300)


def test_maximal_kernel_residuals_vanish():
    for n in range(0, 33):
        assert oracles.kernel_mode_residual(n, RADII) < 1e-10
    with pytest.raises(ValueError):
        oracles.kernel_mode_residual(-1, RADII)


def test_residual_domain_checks():
    with pytest.raises(ValueError):
        oracles.eigenmode_residual(1, 1, 1, +1, [0.0, 0.5])
    with pytest.raises(ValueError):
        oracles.deficiency_residual(1, 3, +1, RADII)


def test_eigenvalue_multiplicities_are_four():
    counts = disc.eigenvalue_multiplicities(8, 8)
    assert sum(counts) == 4 * 8 * 8
    assert all(c == 4 for c in counts)


def grouped_multiplicities(n_max, k_max, atol):
    # Reference: one pass over the sorted zeros, a new group at each gap
    # wider than atol.
    sorted_a = np.sort(np.concatenate(disc._zeros_by_order(n_max, k_max)))
    counts, run = [], 1
    for prev, cur in zip(sorted_a[:-1], sorted_a[1:]):
        if cur - prev <= atol:
            run += 1
        else:
            counts.append(4 * run)
            run = 1
    return counts + [4 * run]


@settings(max_examples=30, deadline=None)
@given(n_max=st.integers(1, 20), k_max=st.integers(1, 40))
@example(n_max=64, k_max=512)
def test_eigenvalue_multiplicities_match_loop(n_max, k_max):
    assert disc.eigenvalue_multiplicities(n_max, k_max) == grouped_multiplicities(
        n_max, k_max, disc.MULTIPLICITY_ATOL
    )


def test_zeros_by_order_returns_copies():
    first = disc._zeros_by_order(4, 6)
    expected = [z.copy() for z in first]
    for z in first:
        z[:] = -1.0
    for got, want in zip(disc._zeros_by_order(4, 6), expected):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(specfun.bessel_zeros(0, 6), expected[0])
