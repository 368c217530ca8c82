"""The unit-interval model: Fourier eigenbasis of the periodic extension of
the momentum operator, the compression of multiplication by x between the
nonnegative and negative spectral subspaces, and the witness sequence's
norm and image coefficients.

Column modes are stored as positive integers n representing e^{-2 pi i n x};
the matrix entry against row mode e^{2 pi i l x} is -1/(2 pi i (n + l)), with
the global phase kept in the entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Compression:
    """A dense compression matrix, assembled for the tests and the benchmark;
    the sweeps compute its spectrum from its structure instead."""

    matrix: np.ndarray


def assemble_interval_compression(n_pos: int, n_neg: int) -> Compression:
    """Dense compression with rows l = 0..n_pos-1 and columns n = 1..n_neg
    (column n standing for the mode e^{-2 pi i n x})."""
    if n_pos < 1 or n_neg < 1:
        raise ValueError("n_pos and n_neg must be >= 1")
    ell = np.arange(n_pos, dtype=float)[:, None]
    n = np.arange(1, n_neg + 1, dtype=float)[None, :]
    return Compression(1j / (TWO_PI * (n + ell)))


def cauchy_eigenvalues(x: np.ndarray) -> np.ndarray:
    """All n eigenvalues, descending, of the Cauchy matrix C_ij = 1/(x_i + x_j)
    on n positive nodes, without assembling it.  C is positive semidefinite
    with numerical rank O(log(max x / min x) log 1/eps) (Beckermann and
    Townsend, SIAM J. Matrix Anal. Appl. 38, 2017).

    A diagonally pivoted Cholesky factorization C ~ L L^T runs on the
    displacement generator of C: a Cauchy matrix has displacement rank one,
    so every Schur complement is again g_i g_j / (x_i + x_j), and eliminating
    the pivot p updates g <- g (x - x_p) / (x + x_p) in O(n) (Gohberg, Kailath
    and Olshevsky, Math. Comp. 64, 1995).  Each entry of g, and so of the
    residual diagonal d = g^2 / (2x), carries only a small relative rounding
    error (Demmel, SIAM J. Matrix Anal. Appl. 21, 1999); d is exactly zero at
    every eliminated node and never negative.  The factorization stops once
    the residual trace sum(d) is at most eps * tr(C): by Weyl's inequality
    each eigenvalue of L^T L is then within eps * tr(C) of the matching one
    of C, in exact arithmetic; the remaining n - rank values are returned as
    zeros."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if x.ndim != 1 or n < 1 or not np.all((x > 0) & np.isfinite(x)):
        raise ValueError("x must be a nonempty vector of finite positive nodes")
    with np.errstate(over="ignore", divide="ignore"):
        two_x = x + x
        d = 1.0 / two_x  # diagonal of the residual C - L L^T
        trace = d.sum()
    if not (np.all(np.isfinite(two_x)) and math.isfinite(trace)):
        raise ValueError("x + x and tr(C) = sum 1/(2x) must be finite")
    stop = np.finfo(float).eps * trace
    g = np.ones(n)
    s = np.empty(n)
    t = np.empty(n)
    factor = np.empty((min(n, 64), n))  # rows are the columns of L
    rank = 0
    while d.sum() > stop:
        if rank == factor.shape[0]:
            factor = np.concatenate([factor, np.empty_like(factor)])[:n]
        p = int(np.argmax(d))
        np.add(x, x[p], out=s)
        np.divide(g, s, out=factor[rank])
        factor[rank] *= g[p] / math.sqrt(d[p])
        g *= np.subtract(x, x[p], out=t)
        g /= s
        np.multiply(g, g, out=d)
        d /= two_x
        rank += 1
    low = factor[:rank]
    eig = np.zeros(n)
    eig[:rank] = np.maximum(np.linalg.eigvalsh(low @ low.T)[::-1], 0.0)
    return eig


def interval_singular_values(n: int) -> np.ndarray:
    """Singular values, descending, of the n x n compression: i/(2 pi) x Hilbert."""
    return cauchy_eigenvalues(np.arange(n) + 0.5) / TWO_PI


def interval_witness(m: int) -> float:
    """Squared norm of the witness with coefficients sqrt(m)/(n+m) on
    e^{-2 pi i n x}, n >= 1: m * sum_{n>=1} 1/(n+m)^2 = m psi'(m+1) < 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return m * float(specfun.pair_sum(m, m, 0))


def interval_image_coefficients(
    m: int, k_rows: int, l_cols: int | None = None
) -> np.ndarray:
    """Moduli of the image coefficients on e^{2 pi i l x}, l = 0..k_rows-1,
    of the witness truncated to l_cols terms (the full witness if None).

    Each modulus is sqrt(m)/(2 pi) times specfun.pair_sum(m, l, 0, L).
    Every summed term is positive, so a truncated value is a lower bound for
    the full one in exact arithmetic (float64 rounding is not controlled)."""
    if m < 1 or k_rows < 1 or (l_cols is not None and l_cols < 1):
        raise ValueError("m, k_rows, l_cols must be >= 1")
    s = specfun.pair_sum(m, np.arange(k_rows, dtype=float), 0, l_cols)
    return math.sqrt(m) / TWO_PI * s
