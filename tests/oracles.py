"""Reference oracles for the tests, independent of the fast paths they check:
Gauss-Legendre quadrature of the disc matrix elements, pointwise residuals of
the disc eigenmodes, deficiency spinors and index-ladder kernel functions,
the Bessel derivative J_n' and the interval's Fourier matrix element.

J_n and I_n come from scipy.special.  Angular integrals are never done
numerically: the e^{ip theta} orthogonality is applied symbolically, and only
the surviving radial integrand is handed to the rule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special as sp

from noncompact import aps, specfun

DEFAULT_ORDER = 200


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights for integration against dr on [0,1]."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


def gauss_legendre_unit(order: int = DEFAULT_ORDER) -> QuadratureRule:
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order!r}")
    x, w = np.polynomial.legendre.leggauss(order)
    return QuadratureRule(nodes=(x + 1.0) / 2.0, weights=w / 2.0, order=order)


def radial_integral(f: Callable[[np.ndarray], np.ndarray], rule: QuadratureRule) -> float:
    """The weighted integral of f(r) r dr over [0,1]; f evaluates elementwise
    on an array of radii."""
    return float(np.sum(rule.weights * rule.nodes * np.asarray(f(rule.nodes))))


def disc_labels(n_max: int, k_max: int) -> list[tuple[int, int, int]]:
    """(branch, n, k) of each row (sign +) and each column (sign -) of
    disc.assemble_disc_compression(n_max, k_max), in index order."""
    return list(itertools.product((1, 2), range(1, n_max + 1), range(1, k_max + 1)))


def oracle_disc_element(
    i: int, n: int, k: int, j: int, m: int, ell: int, rule: QuadratureRule
) -> complex:
    """Matrix element <i,n,k,+| r e^{-i theta} |j,m,ell,-> by quadrature.

    The angular integral contributes an exact Kronecker selection rule per
    branch pair; the radial factor is integrated numerically and divided by
    the eigenvector normalizations J_n(alpha_{n-1,k}) J_m(alpha_{m-1,ell})."""
    if i not in (1, 2) or j not in (1, 2):
        raise ValueError(f"branches must be 1 or 2, got {(i, j)!r}")
    if min(n, k, m, ell) < 1:
        raise ValueError("mode indices must be >= 1")
    selected = {(1, 1): n == m + 1, (1, 2): n == m == 1, (2, 2): m == n + 1}
    if not selected.get((i, j)):
        # The angular factor averages to zero: always for branch (2,1), whose
        # factor is e^{-i(n+m) theta}, and off these index pairs otherwise.
        return 0j
    a = specfun.bessel_zero(n - 1, k)
    b = specfun.bessel_zero(m - 1, ell)
    jv = sp.jv
    # Branch (2,2) has the integrand of branch (1,1) with the sign flipped.
    sign = -1.0 if i == 2 else 1.0

    def f(r):
        ra, rb = r * a, r * b
        if (i, j) == (1, 2):
            return r * (jv(n, ra) * jv(m - 1, rb) + jv(n - 1, ra) * jv(m, rb))
        return sign * r * (jv(n, ra) * jv(m, rb) - jv(n - 1, ra) * jv(m - 1, rb))

    return complex(radial_integral(f, rule) / (jv(n, a) * jv(m, b)))


def bessel_jprime(n: int, x):
    """Derivative J_n'(x) = (J_{n-1}(x) - J_{n+1}(x))/2, n >= 0, elementwise
    over arrays (J_{-1} = -J_1 covers n = 0)."""
    if n < 0 or n != int(n):
        raise ValueError(f"order must be a nonnegative integer, got {n!r}")
    return 0.5 * (sp.jv(n - 1, x) - sp.jv(n + 1, x))


def _radii(radii: Sequence[float]) -> np.ndarray:
    r = np.asarray(radii, dtype=float)
    if np.any(r <= 0) or np.any(r >= 1):
        raise ValueError("radii must lie in (0,1)")
    return r


def eigenmode_residual(
    branch: int, n: int, k: int, sign: int, radii: Sequence[float], scale: float = 1.0
) -> float:
    """Max pointwise norm of (D - sign alpha_{n-1,k}) applied to scale times
    the mode (branch, n, k, sign), normalized by 1/J_n(alpha_{n-1,k}), with
    the radial derivatives from bessel_jprime.  The operator is linear, so
    the residual is homogeneous of degree one in scale."""
    if branch not in (1, 2) or sign not in (1, -1) or n < 1 or k < 1:
        raise ValueError(f"(branch, n, k, sign) = {(branch, n, k, sign)!r} is no mode")
    r = _radii(radii)
    alpha = specfun.bessel_zero(n - 1, k)
    lam = sign * alpha
    c = scale / float(sp.jv(n, alpha))
    jn = c * sp.jv(n, r * alpha)
    jn1 = c * sp.jv(n - 1, r * alpha)
    djn = c * alpha * bessel_jprime(n, r * alpha)
    djn1 = c * alpha * bessel_jprime(n - 1, r * alpha)
    s = float(sign)
    if branch == 1:
        # psi = (jn e^{-in t}, s jn1 e^{-i(n-1) t})
        res1 = (-s * djn1 + (n - 1) / r * s * jn1) - lam * jn
        res2 = (djn + n / r * jn) - lam * s * jn1
    else:
        # psi = (jn1 e^{i(n-1) t}, -s jn e^{in t})
        res1 = (s * djn + n / r * s * jn) - lam * jn1
        res2 = (djn1 - (n - 1) / r * jn1) - lam * (-s * jn)
    return float(np.max(np.sqrt(res1**2 + res2**2)))


def _ip(n: int, x: np.ndarray) -> np.ndarray:
    # I_n' via recurrence; I_{-1} = I_1.
    return 0.5 * (sp.iv(abs(n - 1), x) + sp.iv(n + 1, x))


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
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if operator_sign is None:
        operator_sign = sign
    r = _radii(radii)
    s = float(sign)
    t = float(operator_sign)
    i_n = sp.iv(n, r)
    i_n1 = sp.iv(n + 1, r)
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


def kernel_mode_residual(n: int, radii: Sequence[float]) -> float:
    """Max pointwise Dirac residual of the kernel mode r^n e^{+in t} (chirality
    "+", operator e^{i t}(d_r + i r^{-1} d_t)) or r^n e^{-in t} ("-", operator
    e^{-i t}(-d_r + i r^{-1} d_t)).  Both equal |n r^{n-1} - (n/r) r^n|, which
    is analytically zero for every n >= 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    r = _radii(radii)
    if n == 0:
        return 0.0
    return float(np.max(np.abs(n * r ** (n - 1) - (n / r) * r**n)))


def kernel_function_residual(
    cut: int, n: int, chirality: str, samples: Sequence[float]
) -> tuple[float, bool]:
    """(pointwise Dirac residual, symbolic boundary-condition flag) of the
    kernel function r^n e^{+in t} (chirality "+") or r^n e^{-in t} ("-") of
    the extension cut at N = cut; ValueError if it is no kernel element."""
    if chirality not in ("+", "-"):
        raise ValueError(f"chirality must be '+' or '-', got {chirality!r}")
    dim_plus, dim_minus = aps.aps_kernel_dims(cut)
    if not n < (dim_plus if chirality == "+" else dim_minus):
        raise ValueError(f"(N={cut}, n={n}, {chirality}) is not a kernel element")
    # The trace of r^n e^{+-in t} is the single boundary mode +-n; the domain
    # condition kills modes k >= N on the "+" component and k <= N on "-".
    boundary_ok = n < cut if chirality == "+" else -n >= cut + 1
    return kernel_mode_residual(n, samples), boundary_ok


def position_matrix_element(ell: int, n: int) -> complex:
    """<e^{2 pi i ell x} | x | e^{2 pi i n x}> in the Fourier basis."""
    if ell == n:
        return 0.5 + 0.0j
    return 1.0 / (2j * math.pi * (n - ell))
