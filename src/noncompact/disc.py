"""The unit-disc model: eigenbasis of the spectral-cut self-adjoint extension
of the Dirac operator, closed-form matrix elements of multiplication by
r e^{-i theta}, the compact diagonal correction, the witness sequence, and
pointwise residual checks for eigenvectors and deficiency spinors.

Modes are labeled (branch, n, k, sign) with eigenvalue sign * alpha_{n-1,k},
alpha_{n,k} the k-th positive zero of J_n.  Mode enumeration is lexicographic
in (branch, n, k) within each sign, so assembled matrices are reproducible.
scipy.special is imported only inside the functions that evaluate J_n for
n >= 1 or I_n (the mode normalization and the residual checks); the zeros
come from specfun in numpy, so the spectra and the witness sums load no
scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import specfun
from .interval import MAX_MATRIX_ENTRIES, CompressionSizeError
from .interval import cauchy_eigenvalues, interval_witness

PLUS = +1
MINUS = -1


@dataclass(frozen=True)
class DiscMode:
    branch: int  # 1 | 2
    angular: int  # n >= 1
    radial: int  # k >= 1
    sign: int  # +1 | -1

    def __post_init__(self) -> None:
        if self.branch not in (1, 2):
            raise ValueError(f"branch must be 1 or 2, got {self.branch!r}")
        if self.angular < 1 or self.radial < 1:
            raise ValueError("angular and radial indices must be >= 1")
        if self.sign not in (PLUS, MINUS):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")

    @property
    def eigenvalue(self) -> float:
        return self.sign * specfun.bessel_zero(self.angular - 1, self.radial)

    @property
    def normalization(self) -> float:
        from scipy import special as _sp

        return 1.0 / float(
            _sp.jv(self.angular, specfun.bessel_zero(self.angular - 1, self.radial))
        )


def _interior(alphas: list[np.ndarray], m: int) -> np.ndarray:
    """Branch (1,1) block coupling row n = m+1 to column m: element
    2a/((a-b)(a+b)^2) at a = alpha_{m,k}, b = alpha_{m-1,ell}."""
    a, b = alphas[m][:, None], alphas[m - 1]
    return 2.0 * a / ((a - b) * (a + b) ** 2)


def enumerate_modes(n_max: int, k_max: int, sign: int) -> tuple[DiscMode, ...]:
    return tuple(
        DiscMode(branch=b, angular=n, radial=k, sign=sign)
        for b in (1, 2)
        for n in range(1, n_max + 1)
        for k in range(1, k_max + 1)
    )


@dataclass(frozen=True)
class DiscCompression:
    matrix: np.ndarray
    row_modes: tuple[DiscMode, ...]
    col_modes: tuple[DiscMode, ...]


def _zeros_by_order(n_max: int, k_max: int) -> list[np.ndarray]:
    """[alpha_{n,1..k_max} for n < n_max].  The highest order is asked for
    first, so interlacing fills each lower order in one batch; ascending
    requests would add one rank to every lower order per request."""
    if n_max < 1 or k_max < 1:
        raise ValueError("n_max and k_max must be >= 1")
    return [specfun.bessel_zeros(n, k_max) for n in reversed(range(n_max))][::-1]


def _compression_blocks(n_max: int, k_max: int, remove_correction: bool):
    """The 2 n_max - 1 nonzero k_max x k_max blocks of the compression, as
    ((row branch, row n), (column branch, column n), block); block[k-1, ell-1]
    is <i,n,k,+| r e^{-i theta} |j,m,ell,->, every other block (branch (2,1)
    among them) vanishing.  No two blocks share a row or a column block, and
    branch (2,2) at (m, m+1) is minus the transpose of (1,1) at (m+1, m)."""
    alphas = _zeros_by_order(n_max, k_max)
    for m in range(1, n_max):
        block = _interior(alphas, m)
        yield (1, m + 1), (1, m), block
        yield (2, m), (2, m + 1), -block.T
    # Branch (1,2): only n = m = 1 survives.
    a0 = alphas[0]
    b12 = 1.0 / (a0[:, None] + a0[None, :])
    diag = 1.0 / a0 - (1.0 / (2.0 * a0) if remove_correction else 0.0)
    np.fill_diagonal(b12, diag)
    yield (1, 1), (2, 1), b12


def assemble_disc_compression(
    n_max: int, k_max: int, remove_correction: bool = False
) -> DiscCompression:
    """Dense compression over all + rows and - columns with n <= n_max,
    k <= k_max; optionally subtracts the compact diagonal correction
    1/(2 alpha_{0,k}) on the matched (1,1,k,+)/(2,1,k,-) pairs."""
    if n_max < 1 or k_max < 1:
        raise ValueError("n_max and k_max must be >= 1")
    dim = 2 * n_max * k_max
    if dim * dim > MAX_MATRIX_ENTRIES:
        raise CompressionSizeError(
            f"{dim} x {dim} compression exceeds the allocation guard"
        )
    matrix = np.zeros((dim, dim), dtype=complex)

    def block(branch: int, n: int) -> slice:
        base = (branch - 1) * n_max * k_max + (n - 1) * k_max
        return slice(base, base + k_max)

    for rows, cols, values in _compression_blocks(n_max, k_max, remove_correction):
        matrix[block(*rows), block(*cols)] = values

    return DiscCompression(
        matrix=matrix,
        row_modes=enumerate_modes(n_max, k_max, PLUS),
        col_modes=enumerate_modes(n_max, k_max, MINUS),
    )


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
    controlled).  Columns l <= M = min(64, L) are summed exactly, one column
    at a time over all rows, so memory stays O(k_rows).  Columns l > M need
    no zeros, by McMahon's alpha_{0,l} < beta + 1/(8 beta), beta = pi(l - 1/4)
    (checked, not proven): with r+- the roots of beta^2 + A beta + 1/8,
    A = alpha_{0,k}, the term is at least beta/((beta - r+)(beta - r-)), whose
    partial fractions in l are each a specfun.pair_sum."""
    if n < 1 or k_rows < 1 or truncation < 1:
        raise ValueError("n, k_rows, truncation must be >= 1")
    m = min(64, truncation)
    a = specfun.bessel_zeros(0, max(k_rows, m))
    rows = a[:k_rows]
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


def _ip(n: int, x: np.ndarray) -> np.ndarray:
    # I_n' via recurrence; I_{-1} = I_1.
    from scipy import special as _sp

    return 0.5 * (_sp.iv(abs(n - 1), x) + _sp.iv(n + 1, x))


def eigenmode_residual(
    mode: DiscMode, radii: Sequence[float], scale: float = 1.0
) -> float:
    """Max pointwise norm of (D - eigenvalue) applied to scale * mode, with
    the radial derivatives evaluated through Bessel recurrences.  The operator
    is linear, so the residual is homogeneous of degree one in scale."""
    from scipy import special as _sp

    r = np.asarray(radii, dtype=float)
    if np.any(r <= 0) or np.any(r >= 1):
        raise ValueError("radii must lie in (0,1)")
    n = mode.angular
    alpha = specfun.bessel_zero(n - 1, mode.radial)
    lam = mode.eigenvalue
    c = scale * mode.normalization
    jn = c * _sp.jv(n, r * alpha)
    jn1 = c * _sp.jv(n - 1, r * alpha)
    djn = c * alpha * specfun.bessel_jprime(n, r * alpha)
    djn1 = c * alpha * specfun.bessel_jprime(n - 1, r * alpha)
    s = float(mode.sign)
    if mode.branch == 1:
        # psi = (jn e^{-in t}, s jn1 e^{-i(n-1) t})
        res1 = (-s * djn1 + (n - 1) / r * s * jn1) - lam * jn
        res2 = (djn + n / r * jn) - lam * s * jn1
    else:
        # psi = (jn1 e^{i(n-1) t}, -s jn e^{in t})
        res1 = (s * djn + n / r * s * jn) - lam * jn1
        res2 = (djn1 - (n - 1) / r * jn1) - lam * (-s * jn)
    return float(np.max(np.sqrt(res1**2 + res2**2)))


def deficiency_residual(
    n: int,
    family: int,
    sign: int,
    radii: Sequence[float],
    operator_sign: int | None = None,
) -> float:
    """Max pointwise norm of (D* - operator_sign * i) applied to the displayed
    deficiency spinor of the given family and sign.  operator_sign defaults to
    the spinor's sign (the matched case, analytically zero); passing the
    opposite sign gives the nondegenerate wrong-sign residual 2|spinor|."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if family not in (1, 2):
        raise ValueError(f"family must be 1 or 2, got {family!r}")
    if sign not in (PLUS, MINUS):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if operator_sign is None:
        operator_sign = sign
    r = np.asarray(radii, dtype=float)
    if np.any(r <= 0) or np.any(r >= 1):
        raise ValueError("radii must lie in (0,1)")
    from scipy import special as _sp

    s = float(sign)
    t = float(operator_sign)
    i_n = _sp.iv(n, r)
    i_n1 = _sp.iv(n + 1, r)
    di_n = _ip(n, r)
    di_n1 = _ip(n + 1, r)
    if family == 1:
        # psi = (s i I_n e^{in t}, I_{n+1} e^{i(n+1) t}); components of
        # (D - t i) psi carry e^{int} and e^{i(n+1)t}, complex amplitudes:
        res1 = np.abs((-di_n1 - (n + 1) / r * i_n1) + t * s * i_n)
        res2 = np.abs(1j * s * (di_n - n / r * i_n) - 1j * t * i_n1)
    else:
        # psi = (s i I_{n+1} e^{-i(n+1) t}, I_n e^{-in t})
        res1 = np.abs((-di_n + n / r * i_n) + t * s * i_n1)
        res2 = np.abs(1j * s * (di_n1 + (n + 1) / r * i_n1) - 1j * t * i_n)
    return float(np.max(np.sqrt(res1**2 + res2**2)))


def eigenvalue_multiplicities(
    n_max: int, k_max: int, atol: float = 1e-8
) -> list[int]:
    """Group the squared eigenvalues of all modes with n <= n_max, k <= k_max
    (both branches, both signs) and return the group sizes."""
    alphas = np.sort(np.concatenate(_zeros_by_order(n_max, k_max)))
    ends = np.flatnonzero(np.diff(alphas) > atol) + 1
    runs = np.diff(np.concatenate(([0], ends, [alphas.size])))
    return (4 * runs).tolist()  # 2 branches x 2 signs per (n,k)
