"""The unit-disc model: eigenbasis of the spectral-cut self-adjoint extension
of the Dirac operator, closed-form matrix elements of multiplication by
r e^{-i theta}, the compact diagonal correction, the witness sequence, and
pointwise residual checks for eigenvectors and deficiency spinors.

Modes are labeled (branch, n, k, sign) with eigenvalue sign * alpha_{n-1,k},
alpha_{n,k} the k-th positive zero of J_n.  Mode enumeration is lexicographic
in (branch, n, k) within each sign, so assembled matrices are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special as _sp

from . import specfun
from .interval import MAX_MATRIX_ENTRIES, CompressionSizeError, interval_witness

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
        return 1.0 / specfun.bessel_j(
            self.angular, specfun.bessel_zero(self.angular - 1, self.radial)
        )


def disc_matrix_element(i: int, n: int, k: int, j: int, m: int, ell: int) -> complex:
    """Closed form for <i,n,k,+| r e^{-i theta} |j,m,ell,->."""
    for name, v in (("i", i), ("j", j)):
        if v not in (1, 2):
            raise ValueError(f"branch {name} must be 1 or 2, got {v!r}")
    if min(n, k, m, ell) < 1:
        raise ValueError("mode indices must be >= 1")
    if i == 2 and j == 1:
        return 0.0 + 0.0j
    if i == 1 and j == 2:
        if n != 1 or m != 1:
            return 0.0 + 0.0j
        if k == ell:
            return complex(1.0 / specfun.bessel_zero(0, k))
        return complex(
            1.0 / (specfun.bessel_zero(0, k) + specfun.bessel_zero(0, ell))
        )
    if i == 1 and j == 1:
        if n != m + 1:
            return 0.0 + 0.0j
        a = specfun.bessel_zero(m, k)
        b = specfun.bessel_zero(m - 1, ell)
        return complex(2.0 * a / ((a - b) * (a + b) ** 2))
    # i == 2 and j == 2
    if m != n + 1:
        return 0.0 + 0.0j
    a = specfun.bessel_zero(n - 1, k)
    b = specfun.bessel_zero(n, ell)
    return complex(2.0 * b / ((a - b) * (b + a) ** 2))


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
    k_correction_removed: bool


def _zeros_by_order(n_max: int, k_max: int) -> list[np.ndarray]:
    """[alpha_{n,1..k_max} for n < n_max].  The highest order is asked for
    first, so interlacing fills each lower order in one batch; ascending
    requests would add one rank to every lower order per request."""
    return [specfun.bessel_zeros(n, k_max) for n in reversed(range(n_max))][::-1]


def _compression_blocks(n_max: int, k_max: int, remove_correction: bool):
    """The 2 n_max - 1 nonzero k_max x k_max blocks of the compression, as
    ((row branch, row n), (column branch, column n), block).  No two blocks
    share a row block or a column block."""
    if n_max < 1 or k_max < 1:
        raise ValueError("n_max and k_max must be >= 1")
    # alphas[n][k-1] = alpha_{n,k}
    alphas = _zeros_by_order(n_max, k_max)
    # Branch (1,1): row n = m+1 couples to column m.
    for m in range(1, n_max):
        a = alphas[m][:, None]  # alpha_{m,k}
        b = alphas[m - 1][None, :]  # alpha_{m-1,ell}
        yield (1, m + 1), (1, m), 2.0 * a / ((a - b) * (a + b) ** 2)
    # Branch (2,2): row n couples to column m = n+1.
    for n in range(1, n_max):
        a = alphas[n - 1][:, None]  # alpha_{n-1,k}
        b = alphas[n][None, :]  # alpha_{n,ell}
        yield (2, n), (2, n + 1), 2.0 * b / ((a - b) * (b + a) ** 2)
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
        k_correction_removed=remove_correction,
    )


def disc_singular_values(
    n_max: int, k_max: int, remove_correction: bool = False
) -> np.ndarray:
    """All 2 n_max k_max singular values, descending, of the disc compression,
    without assembling it.  No two nonzero blocks share a row or a column
    block, so the spectrum is the union of the blocks' spectra, padded with
    zeros for the k_max rows that meet no block."""
    blocks = [b for _, _, b in _compression_blocks(n_max, k_max, remove_correction)]
    sv = np.zeros(2 * n_max * k_max)
    sv[: len(blocks) * k_max] = np.linalg.svd(np.stack(blocks), compute_uv=False).ravel()
    return -np.sort(-sv)


def correction_singular_values(k_max: int) -> np.ndarray:
    """Singular values 1/(2 alpha_{0,k}) of the subtracted diagonal
    correction, k = 1..k_max (descending)."""
    return 1.0 / (2.0 * specfun.bessel_zeros(0, k_max))


# The witness with coefficients sqrt(n)/(n+ell) on |2,1,ell,->, ell = 1..L,
# has the interval witness's coefficients, so it is that function.
disc_witness = interval_witness


def disc_image_coefficient(n: int, k: int, truncation: int) -> float:
    """Truncated witness-image coefficient on |1,1,k,+> (correction removed):
    sum_{ell<=L} sqrt(n)/((n+ell)(alpha_{0,k}+alpha_{0,ell})).  All terms are
    positive, so the value is monotone nondecreasing in the truncation and is
    a lower bound in exact arithmetic (float64 rounding is not controlled)."""
    if n < 1 or k < 1 or truncation < 1:
        raise ValueError("n, k, truncation must be >= 1")
    return float(disc_image_coefficients(n, k, truncation)[k - 1])


def disc_image_coefficients(n: int, k_rows: int, truncation: int) -> np.ndarray:
    """disc_image_coefficient for k = 1..k_rows: sqrt(n) C t with the Cauchy
    matrix C_kl = 1/(alpha_{0,k}+alpha_{0,l}) and t_l = 1/(n+l), l <= L.
    Each value is a lower bound in exact arithmetic (float64 rounding is not
    controlled).

    Every term is evaluated; only the summation order is chosen.  C is built
    one block of rows at a time in a reused buffer of about 2^17 entries
    (1 MB, so it stays in cache), and each block is reduced by one BLAS
    matrix-vector product."""
    if n < 1 or k_rows < 1 or truncation < 1:
        raise ValueError("n, k_rows, truncation must be >= 1")
    a = specfun.bessel_zeros(0, max(k_rows, truncation))
    cols = a[:truncation]
    terms = 1.0 / (n + np.arange(1, truncation + 1, dtype=float))
    rows = max(1, min(k_rows, (1 << 17) // truncation))
    buffer = np.empty((rows, truncation))
    out = np.empty(k_rows)
    for start in range(0, k_rows, rows):
        stop = min(start + rows, k_rows)
        block = buffer[: stop - start]
        np.add(a[start:stop, None], cols, out=block)
        np.reciprocal(block, out=block)
        np.matmul(block, terms, out=out[start:stop])
    return math.sqrt(n) * out


def disc_image_norm_lowerbound(n: int, k_rows: int, truncation: int) -> float:
    """Euclidean norm of the truncated image coefficients; a lower bound for
    the image norm (correction removed) in exact arithmetic (float64 rounding
    is not controlled)."""
    return float(np.linalg.norm(disc_image_coefficients(n, k_rows, truncation)))


def pairing_upper_bound(n: int, k: int) -> float:
    """Digamma upper bound (sqrt(n)/pi)(psi(n+1)-psi(k+1/2))/(n-k+1/2) for
    the image coefficient on |1,1,k,+>, valid for k <= n."""
    if not 1 <= k <= n:
        raise ValueError("requires 1 <= k <= n")
    return (
        math.sqrt(n)
        / math.pi
        * (specfun.digamma(n + 1) - specfun.digamma(k + 0.5))
        / (n - k + 0.5)
    )


def pairing_lower_bound(n: int, k: int) -> float:
    """Digamma lower bound for the full (untruncated) image coefficient,
    with argument alpha_{0,k}/pi + 7/8, valid for k <= n."""
    if not 1 <= k <= n:
        raise ValueError("requires 1 <= k <= n")
    t = specfun.bessel_zero(0, k) / math.pi
    return (
        math.sqrt(n)
        / math.pi
        * (specfun.digamma(n + 1) - specfun.digamma(t + 7.0 / 8.0))
        / (n - t + 1.0 / 8.0)
    )


def _ip(n: int, x: np.ndarray) -> np.ndarray:
    # I_n' via recurrence; I_{-1} = I_1.
    return 0.5 * (_sp.iv(abs(n - 1), x) + _sp.iv(n + 1, x))


def eigenmode_residual(
    mode: DiscMode, radii: Sequence[float], scale: float = 1.0
) -> float:
    """Max pointwise norm of (D - eigenvalue) applied to scale * mode, with
    the radial derivatives evaluated through Bessel recurrences.  The operator
    is linear, so the residual is homogeneous of degree one in scale."""
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
    alphas = np.concatenate(_zeros_by_order(n_max, k_max))
    order = np.argsort(alphas)
    sorted_a = alphas[order]
    counts: list[int] = []
    run = 1
    for prev, cur in zip(sorted_a[:-1], sorted_a[1:]):
        if cur - prev <= atol:
            run += 1
        else:
            counts.append(4 * run)  # 2 branches x 2 signs per (n,k)
            run = 1
    counts.append(4 * run)
    return counts
