"""Gauss-Legendre quadrature on [0,1] against the r dr measure, plus the
independent integral oracle for the disc matrix elements.

Angular integrals are never done numerically: the e^{ip theta} orthogonality
is applied symbolically, and only the surviving radial integrand is handed to
the rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as _sp

from . import specfun

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
    """Approximate the weighted integral of f(r) r dr over [0,1].

    f must accept an ndarray of radii and evaluate elementwise.
    """
    return float(np.sum(rule.weights * rule.nodes * np.asarray(f(rule.nodes))))


def oracle_disc_element(
    i: int,
    n: int,
    k: int,
    j: int,
    m: int,
    ell: int,
    rule: QuadratureRule,
) -> complex:
    """Matrix element <i,n,k,+| r e^{-i theta} |j,m,ell,-> by quadrature.

    The angular integral contributes an exact Kronecker selection rule per
    branch pair; the radial factor is integrated numerically and divided by
    the eigenvector normalization J_n(alpha_{n-1,k}) J_m(alpha_{m-1,ell}).
    """
    for name, v in (("i", i), ("j", j)):
        if v not in (1, 2):
            raise ValueError(f"branch {name} must be 1 or 2, got {v!r}")
    if min(n, k, m, ell) < 1:
        raise ValueError("mode indices must be >= 1")

    jv = _sp.jv
    if i == 2 and j == 1:
        # Angular factor e^{-i(n+m) theta} never averages to one.
        return 0.0 + 0.0j

    if i == 1 and j == 2:
        if n != 1 or m != 1:
            return 0.0 + 0.0j
        a = specfun.bessel_zero(0, k)
        b = specfun.bessel_zero(0, ell)

        def f(r: np.ndarray) -> np.ndarray:
            return r * (jv(1, r * a) * jv(0, r * b) + jv(0, r * a) * jv(1, r * b))

        norm = jv(1, a) * jv(1, b)
        return complex(radial_integral(f, rule) / norm)

    if i == 1 and j == 1:
        if n != m + 1:
            return 0.0 + 0.0j
        a = specfun.bessel_zero(n - 1, k)
        b = specfun.bessel_zero(m - 1, ell)

        def f(r: np.ndarray) -> np.ndarray:
            return r * (
                jv(n, r * a) * jv(m, r * b) - jv(n - 1, r * a) * jv(m - 1, r * b)
            )

        norm = jv(n, a) * jv(m, b)
        return complex(radial_integral(f, rule) / norm)

    # i == 2 and j == 2
    if m != n + 1:
        return 0.0 + 0.0j
    a = specfun.bessel_zero(n - 1, k)
    b = specfun.bessel_zero(m - 1, ell)

    def f(r: np.ndarray) -> np.ndarray:
        return r * (jv(n - 1, r * a) * jv(m - 1, r * b) - jv(n, r * a) * jv(m, r * b))

    norm = jv(n, a) * jv(m, b)
    return complex(radial_integral(f, rule) / norm)
