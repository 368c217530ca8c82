"""Special-function kernels: digamma/trigamma, Bessel J and I, and positive
Bessel zeros with certified sign-change brackets.

Evaluation of the classical functions is delegated to scipy.special (well
inside the accuracy budget everywhere we use them).  Zero finding is done
here, by one path for every order: the k-th zero of J_n is isolated by the
band (pi(k - 1/4), pi(k - 1/8)) for n = 0 and by the zeros of J_{n-1}
(interlacing, DLMF 10.21(i)) for n >= 1; a bracketed Newton iteration,
vectorized over the ranks, refines it, and it is stored with a bracket across
which J_n changes sign inside that interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

# Module tolerances (absolute unless noted).
DIGAMMA_ABS_TOL = 1e-12
BESSEL_ABS_TOL = 1e-12
RECURRENCE_TOL = 1e-10
ZERO_ABS_TOL = 1e-10
ZERO_BRACKET_WIDTH = 1e-10


class BracketError(RuntimeError):
    """A sign-change bracket for a Bessel zero could not be certified."""


def _check_positive(x: float, name: str) -> None:
    if not x > 0:
        raise ValueError(f"{name} must be positive, got {x!r}")


def digamma(x: float) -> float:
    """First logarithmic derivative of the Gamma function, for x > 0."""
    _check_positive(x, "x")
    return float(_sp.digamma(x))


def trigamma(x: float) -> float:
    """Second logarithmic derivative of the Gamma function, for x > 0."""
    _check_positive(x, "x")
    return float(_sp.polygamma(1, x))


def _check_order(n: int) -> None:
    if n < 0 or n != int(n):
        raise ValueError(f"order must be a nonnegative integer, got {n!r}")


def bessel_j(n: int, x: float) -> float:
    """Bessel function of the first kind J_n(x), n >= 0, x >= 0."""
    _check_order(n)
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x!r}")
    return float(_sp.jv(n, x))


def bessel_jprime(n: int, x):
    """Derivative J_n'(x) = (J_{n-1}(x) - J_{n+1}(x))/2, n >= 0, elementwise
    over arrays (J_{-1} = -J_1 covers n = 0)."""
    _check_order(n)
    return 0.5 * (_sp.jv(n - 1, x) - _sp.jv(n + 1, x))


def bessel_i(n: int, x: float) -> float:
    """Modified Bessel function of the first kind I_n(x), n >= 0, x >= 0.

    Only the unit-disc radius range x <= 1 is exercised by the models, but
    larger arguments are accepted (used by recurrence checks).
    """
    _check_order(n)
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x!r}")
    return float(_sp.iv(n, x))


@dataclass
class BesselZeroTable:
    """Cache of positive zeros of J_n keyed by (order n, rank k).

    Every entry stores the zero together with a bracket [lo, hi] of width at
    most ZERO_BRACKET_WIDTH across which J_n changes sign, inside the interval
    that isolates the k-th zero (see bessel_zeros).
    """

    entries: dict[tuple[int, int], tuple[float, float, float]] = field(
        default_factory=dict
    )

    def get(self, n: int, k: int) -> float | None:
        entry = self.entries.get((n, k))
        return entry[0] if entry is not None else None

    def add(self, n: int, k: int, zero: float, lo: float, hi: float) -> None:
        self.entries[(n, k)] = (zero, lo, hi)


_DEFAULT_TABLE = BesselZeroTable()


def default_zero_table() -> BesselZeroTable:
    return _DEFAULT_TABLE


def bessel_zero(n: int, k: int, table: BesselZeroTable | None = None) -> float:
    """k-th positive zero of J_n, cached with a certified bracket."""
    _check_order(n)
    if k < 1:
        raise ValueError(f"rank k must be >= 1, got {k!r}")
    if table is None:
        table = _DEFAULT_TABLE
    cached = table.get(n, k)
    return cached if cached is not None else float(bessel_zeros(n, k, table)[k - 1])


def bessel_zeros(n: int, k_max: int, table: BesselZeroTable | None = None) -> np.ndarray:
    """First k_max positive zeros of J_n as an array (cached).

    The k-th zero is the only zero of J_n in its isolating interval (a, b):
    the band (pi(k - 1/4), pi(k - 1/8)) for n = 0, and (alpha_{n-1,k},
    alpha_{n-1,k+1}) for n >= 1 by interlacing, so order n first fills order
    n - 1 up to rank k_max + 1.  All missing ranks are refined together, and
    each zero is stored only if J_n changes sign across [lo, hi], with
    hi - lo <= ZERO_BRACKET_WIDTH, inside (a, b); otherwise BracketError.
    """
    _check_order(n)
    if table is None:
        table = _DEFAULT_TABLE
    missing = [k for k in range(1, k_max + 1) if table.get(n, k) is None]
    if missing:
        ks = np.asarray(missing)
        if n == 0:
            a, b = math.pi * (ks - 0.25), math.pi * (ks - 0.125)
        else:
            below = bessel_zeros(n - 1, k_max + 1, table)
            a, b = below[ks - 1], below[ks]
        x = _newton_in_intervals(n, ks, a, b)
        # Rounding x -/+ h moves each end by at most half a spacing of x.
        h = 0.5 * ZERO_BRACKET_WIDTH - np.spacing(x)
        lo, hi = x - h, x + h
        # The zeros of order n - 1 are within ZERO_BRACKET_WIDTH of the true
        # ones, so this margin keeps [lo, hi] inside the true interval.  Above
        # 2^18 no float bracket of that width has x strictly inside.
        ok = (
            (a + ZERO_BRACKET_WIDTH < lo)
            & (lo < x)
            & (x < hi)
            & (hi < b - ZERO_BRACKET_WIDTH)
            & (hi - lo <= ZERO_BRACKET_WIDTH)
            & (_sp.jv(n, lo) * _sp.jv(n, hi) < 0.0)
        )
        if not ok.all():
            k = int(ks[np.argmin(ok)])
            raise BracketError(f"no certified bracket for zero {k} of J_{n}")
        for k, zero, low, high in zip(missing, x.tolist(), lo.tolist(), hi.tolist()):
            table.add(n, k, zero, low, high)
    return np.array([table.get(n, k) for k in range(1, k_max + 1)])


def _newton_in_intervals(n: int, ks: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Zero of J_n in each (a, b) by Newton steps from McMahon's guess (DLMF
    10.21.19), vectorized over the ranks ks.  J_n has the sign (-1)^(k-1)
    left of its k-th zero, so every evaluation shrinks the bracket; a step
    that leaves it is replaced by bisection.  Converged ranks are dropped."""
    left_sign = np.where(ks % 2 == 1, 1.0, -1.0)
    beta = (ks + 0.5 * n - 0.25) * math.pi
    x = beta - (4.0 * n * n - 1.0) / (8.0 * beta)
    lo, hi = np.array(a, dtype=float), np.array(b, dtype=float)
    x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
    todo = np.arange(ks.size)
    for _ in range(60):
        xs, s = x[todo], left_sign[todo]
        f = _sp.jv(n, xs)
        lo[todo] = np.where(f * s > 0.0, xs, lo[todo])
        hi[todo] = np.where(f * s < 0.0, xs, hi[todo])
        # J_n' = J_{n-1} - (n/x) J_n reuses f; J_{-1} = -J_1 covers n = 0.
        step = f / (_sp.jv(n - 1, xs) - n / xs * f)
        new = xs - step
        done = np.abs(step) <= 1e-13 * xs
        take = done | ((lo[todo] < new) & (new < hi[todo]))
        x[todo] = np.where(take, new, 0.5 * (lo[todo] + hi[todo]))
        todo = todo[~done]
        if todo.size == 0:
            break
    return x
