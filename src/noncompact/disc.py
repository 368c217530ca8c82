"""The unit-disc model: eigenbasis of the spectral-cut self-adjoint extension
of the Dirac operator, closed-form matrix elements of multiplication by
r e^{-i theta}, the compact diagonal correction, and the witness sequence.

Modes are labeled (branch, n, k, sign) with eigenvalue sign * alpha_{n-1,k},
alpha_{n,k} the k-th positive zero of J_n.  Within each sign, modes are
ordered lexicographically in (branch, n, k), so assembled matrices are
reproducible.  The spectra take their zeros from specfun; the witness sums
take the first 64 zeros of J_0 and McMahon's upper end past them, on rows as
on columns.  Both need numpy alone.
"""

from __future__ import annotations

import math

import numpy as np

from . import specfun
from .interval import Compression, cauchy_eigenvalues, interval_witness

MULTIPLICITY_ATOL = 1e-8


def _interior(alphas: list[np.ndarray], m: int) -> np.ndarray:
    """Branch (1,1) block coupling row n = m+1 to column m: element
    2a/((a-b)(a+b)^2) at a = alpha_{m,k}, b = alpha_{m-1,ell}."""
    a, b = alphas[m][:, None], alphas[m - 1]
    return 2.0 * a / ((a - b) * (a + b) ** 2)


def _zeros_by_order(n_max: int, k_max: int) -> list[np.ndarray]:
    """[alpha_{n,1..k_max} for n < n_max].  The highest order is asked for
    first, so interlacing fills each lower order in one batch; ascending
    requests would add one rank to every lower order per request."""
    if n_max < 1 or k_max < 1:
        raise ValueError("n_max and k_max must be >= 1")
    return [specfun.bessel_zeros(n, k_max) for n in reversed(range(n_max))][::-1]


def assemble_disc_compression(n_max: int, k_max: int) -> Compression:
    """Dense compression over all + rows and - columns with n <= n_max,
    k <= k_max.  Row and column (b - 1) n_max k_max + (n - 1) k_max + k - 1
    stand for the modes (b, n, k, +) and (b, n, k, -), and the entry at row
    (i, n, k) and column (j, m, ell) is <i,n,k,+| r e^{-i theta} |j,m,ell,->.
    Only 2 n_max - 1 blocks of k_max x k_max are nonzero (branch (2,1)
    vanishes), and no two of them share a row or a column block."""
    alphas = _zeros_by_order(n_max, k_max)
    dim = 2 * n_max * k_max
    matrix = np.zeros((dim, dim), dtype=complex)

    def block(branch: int, n: int) -> slice:
        base = (branch - 1) * n_max * k_max + (n - 1) * k_max
        return slice(base, base + k_max)

    for m in range(1, n_max):
        interior = _interior(alphas, m)
        matrix[block(1, m + 1), block(1, m)] = interior
        # Branch (2,2) at (m, m+1) is minus the transpose of (1,1) at (m+1, m).
        matrix[block(2, m), block(2, m + 1)] = -interior.T
    # Branch (1,2): only n = m = 1 survives, the Cauchy matrix on the nodes
    # alpha_{0,k} plus the compact diagonal correction 1/(2 alpha_{0,k}).
    a0 = alphas[0]
    trace = 1.0 / (a0[:, None] + a0)
    np.fill_diagonal(trace, 1.0 / a0)
    matrix[block(1, 1), block(2, 1)] = trace
    return Compression(matrix)


def disc_singular_values(n_max: int, k_max: int) -> np.ndarray:
    """All 2 n_max k_max singular values, descending, of the disc compression
    with the correction removed, without assembling it: the union of the
    blocks' spectra (no two share a row or a column block), padded with zeros
    for the k_max rows that meet no block.  The (1,2) block is the Cauchy
    matrix on the nodes alpha_{0,k}; each (2,2) block is -(1,1)^T."""
    alphas = _zeros_by_order(n_max, k_max)
    # One block at a time, so memory stays O(k_max^2) beyond the zeros.
    spectra = [
        np.linalg.svd(_interior(alphas, m), compute_uv=False) for m in range(1, n_max)
    ]
    cauchy = cauchy_eigenvalues(alphas[0])
    return -np.sort(-np.concatenate([cauchy, *spectra, *spectra, np.zeros(k_max)]))


# The witness with coefficients sqrt(n)/(n+ell) on |2,1,ell,->, ell >= 1,
# has the interval witness's coefficients, so its squared norm n psi'(n+1)
# is that function.
disc_witness = interval_witness


def disc_image_coefficient(n: int, k: int, truncation: int) -> float:
    """Truncated witness-image coefficient on |1,1,k,+> (correction removed),
    a lower bound of sum_{ell<=L} sqrt(n)/((n+ell)(alpha_{0,k}+alpha_{0,ell})).
    All terms are positive, so the value is monotone nondecreasing in the
    truncation (float64 rounding is not controlled)."""
    return float(disc_image_coefficients(n, k, truncation)[k - 1])


def disc_image_coefficients(n: int, k_rows: int, truncation: int) -> np.ndarray:
    """disc_image_coefficient for k = 1..k_rows: sqrt(n) times a lower bound
    of sum_{l<=L} 1/((n+l)(alpha_{0,k}+alpha_{0,l})) (float64 rounding is not
    controlled).  Rows and columns j <= 64 take the zeros of J_0; past them,
    both take McMahon's upper end beta + 1/(8 beta) > alpha_{0,j}, beta =
    pi(j - 1/4) (checked at 40 digits, not proven).  Columns l <= M = min(64, L)
    are summed one at a time over all rows, so memory stays O(k_rows); past M,
    with r+- the roots of beta^2 + A beta + 1/8, A the row's node, the term
    beta/((beta - r+)(beta - r-)) splits in l into two specfun.pair_sums."""
    if n < 1 or k_rows < 1 or truncation < 1:
        raise ValueError("n, k_rows, truncation must be >= 1")
    m = min(64, truncation)
    a = specfun.bessel_zeros(0, 64)
    beta = math.pi * (np.arange(65, k_rows + 1) - 0.25)
    rows = np.concatenate((a, beta + 0.125 / beta))[:k_rows]
    terms = 1.0 / (n + np.arange(1, m + 1, dtype=float))

    def far(r):  # sum_{l=M+1}^{L} 1/((n+l)(l+c)) at c = -1/4 - r/pi
        return specfun.pair_sum(n, -0.25 - r / math.pi, m, truncation)

    out = np.zeros(k_rows)
    for l in range(m):
        out += terms[l] / (rows + a[l])
    if truncation > m:
        r_minus = -0.5 * (rows + np.sqrt(rows * rows - 0.5))
        r_plus = 0.125 / r_minus
        pair = r_plus * far(r_plus) - r_minus * far(r_minus)
        out += pair / (math.pi * (r_plus - r_minus))
    return math.sqrt(n) * out


def disc_image_bracket(n: int, k_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) bounds, in closed form and for every k, of the full
    image coefficients on |1,1,k,+>, k = 1..k_rows; no Bessel zero is used.
    The J_0 band pi(j - 1/4) < alpha_{0,j} < pi(j - 1/8) (Watson ch. 15; DLMF
    10.21) bounds 1/(alpha_{0,k}+alpha_{0,ell}) by 1/(pi(ell+c)) at c = k - 1/4
    (below) and c = k - 1/2 (above), so each bound is sqrt(n)/pi times
    specfun.pair_sum(n, c, 0) (float64 rounding not controlled)."""
    if n < 1 or k_rows < 1:
        raise ValueError("n and k_rows must be >= 1")
    k = np.arange(1, k_rows + 1, dtype=float)
    return tuple(
        math.sqrt(n) / math.pi * specfun.pair_sum(n, c, 0) for c in (k - 0.25, k - 0.5)
    )


def eigenvalue_multiplicities(n_max: int, k_max: int) -> list[int]:
    """Group the squared eigenvalues of all modes with n <= n_max, k <= k_max
    (both branches, both signs), a new group at each gap in the zeros wider
    than MULTIPLICITY_ATOL, and return the group sizes."""
    alphas = np.sort(np.concatenate(_zeros_by_order(n_max, k_max)))
    ends = np.flatnonzero(np.diff(alphas) > MULTIPLICITY_ATOL) + 1
    runs = np.diff(np.concatenate(([0], ends, [alphas.size])))
    return (4 * runs).tolist()  # 2 branches x 2 signs per (n,k)
