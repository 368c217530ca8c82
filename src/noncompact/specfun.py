"""Special-function kernels: the partial-fraction sum pair_sum behind every
witness closed form (the one caller of scipy's digamma and polygamma), the
Bessel derivative J_n' and the positive Bessel zeros with sign-change brackets.

J_n and I_n are called from scipy.special directly.  Zero finding is done
here, by one path for every order: the k-th zero of J_n is isolated by the
band (pi(k - 1/4), pi(k - 1/8)) for n = 0 and by the zeros of J_{n-1}
(interlacing, DLMF 10.21(i)) for n >= 1; a bracketed Newton iteration on the
forward J_0/J_1 recurrence, vectorized over the ranks not yet cached, refines
it, and it is stored with a bracket across which scipy's J_n changes sign
inside that interval.  The sign check trusts scipy's J_n, which carries no
error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

ZERO_BRACKET_WIDTH = 1e-10


class BracketError(RuntimeError):
    """No sign-change bracket of J_n inside its isolating interval was found
    for a Bessel zero."""


def _check_order(n: int) -> None:
    if n < 0 or n != int(n):
        raise ValueError(f"order must be a nonnegative integer, got {n!r}")


def pair_sum(a: float, b, lo: int, hi: int | None = None) -> np.ndarray:
    """sum_{l=lo+1}^{hi} 1/((l+a)(l+b)), elementwise over the array b, with
    hi=None meaning infinity.  Partial fractions and sum_{l=lo+1}^{hi} 1/(l+x)
    = psi(hi+1+x) - psi(lo+1+x) (DLMF 5.5.2) make it that difference at b
    minus the one at a, over a - b, and psi'(lo+1+a) - psi'(hi+1+a) where
    b = a (DLMF 5.15.1); psi(hi+1+.) drops out at hi = infinity (DLMF 5.7.6).
    Float64 rounding is not controlled: for b near a the differences cancel."""
    b = np.asarray(b, dtype=float)

    def diff(order, x):  # psi^(order)(hi+1+x) - psi^(order)(lo+1+x)
        # digamma directly: polygamma(0, .) would also evaluate a zeta branch.
        psi = _sp.digamma if order == 0 else lambda y: _sp.polygamma(order, y)
        return (0.0 if hi is None else psi(hi + 1 + x)) - psi(lo + 1 + x)

    out = np.empty(b.shape)
    off = b != a
    out[off] = (diff(0, b[off]) - diff(0, a)) / (a - b[off])
    out[~off] = -diff(1, a)
    return out


def bessel_jprime(n: int, x):
    """Derivative J_n'(x) = (J_{n-1}(x) - J_{n+1}(x))/2, n >= 0, elementwise
    over arrays (J_{-1} = -J_1 covers n = 0)."""
    _check_order(n)
    return 0.5 * (_sp.jv(n - 1, x) - _sp.jv(n + 1, x))


@dataclass
class BesselZeroTable:
    """Cache of positive zeros of J_n: per order n, one (3, k) array of rows
    (zero, lo, hi) over ranks 1..k.  [lo, hi] has width at most
    ZERO_BRACKET_WIDTH, J_n changes sign across it, and it lies inside the
    interval that isolates the zero (see bessel_zeros).
    """

    rows: dict[int, np.ndarray] = field(default_factory=dict)

    def get(self, n: int, k: int) -> float | None:
        rows = self.rows.get(n, np.empty((3, 0)))
        return float(rows[0, k - 1]) if 0 < k <= rows.shape[1] else None

    @property
    def entries(self) -> dict[tuple[int, int], tuple[float, float, float]]:
        """Read-only view {(n, k): (zero, lo, hi)}, built on each access."""
        items = ((n, zip(*rows.tolist())) for n, rows in self.rows.items())
        return {(n, k): e for n, col in items for k, e in enumerate(col, start=1)}


_DEFAULT_TABLE = BesselZeroTable()


def default_zero_table() -> BesselZeroTable:
    return _DEFAULT_TABLE


def bessel_zero(n: int, k: int, table: BesselZeroTable | None = None) -> float:
    """k-th positive zero of J_n, cached with a sign-change bracket."""
    _check_order(n)
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"rank k must be a positive integer, got {k!r}")
    if table is None:
        table = _DEFAULT_TABLE
    cached = table.get(n, k)
    return cached if cached is not None else float(bessel_zeros(n, k, table)[k - 1])


def bessel_zeros(n: int, k_max: int, table: BesselZeroTable | None = None) -> np.ndarray:
    """First k_max positive zeros of J_n as a new array (cached).

    The k-th zero is the only zero of J_n in its isolating interval (a, b):
    the band (pi(k - 1/4), pi(k - 1/8)) for n = 0, and (alpha_{n-1,k},
    alpha_{n-1,k+1}) for n >= 1 by interlacing, so order n first fills order
    n - 1 up to rank k_max + 1.  The ranks beyond the cached ones are refined
    together, and each is stored only if J_n changes sign across [lo, hi],
    with hi - lo <= ZERO_BRACKET_WIDTH, inside (a, b); otherwise BracketError.
    """
    _check_order(n)
    if not isinstance(k_max, (int, np.integer)) or k_max < 0:
        raise ValueError(f"k_max must be a nonnegative integer, got {k_max!r}")
    if table is None:
        table = _DEFAULT_TABLE
    rows = table.rows.get(n, np.empty((3, 0)))
    if rows.shape[1] < k_max:
        ks = np.arange(rows.shape[1] + 1, k_max + 1)
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
            raise BracketError(f"no sign-change bracket for zero {k} of J_{n}")
        rows = table.rows[n] = np.concatenate((rows, (x, lo, hi)), axis=1)
    return rows[0, :k_max].copy()


def _jv_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(J_{n-1}(x), J_n(x)) elementwise, by the forward recurrence
    J_{m+1} = (2m/x) J_m - J_{m-1} (DLMF 10.6.1) from scipy's J_0 and J_1;
    (-J_1, J_0) for n = 0.  Accurate for x > n: there every step m < n lies
    in the oscillatory region m < x, where J_m and Y_m are of comparable size
    and rounding errors are not amplified (Gautschi, SIAM Rev. 9, 1967).  For
    x < m, J_m decays while Y_m grows, and so would the error."""
    prev, cur = -_sp.j1(x), _sp.j0(x)
    for m in range(n):
        prev, cur = cur, (2.0 * m / x) * cur - prev
    return prev, cur


def _newton_in_intervals(n: int, ks: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Zero of J_n in each (a, b) by Newton steps from McMahon's guess (DLMF
    10.21.19), vectorized over the ranks ks.  J_n has the sign (-1)^(k-1)
    left of its k-th zero, so every evaluation shrinks the bracket; a step
    that leaves it is replaced by bisection.  Converged ranks are dropped.

    J_{n-1} and J_n come from the forward recurrence of _jv_pair, at about
    1/57 of the cost of two scipy jv calls at n = 63; jv is left to the
    sign-change check in bessel_zeros.  Its precondition x > n holds: every
    iterate lies in its isolating interval, whose left end alpha_{n-1,1}
    exceeds n for n >= 1."""
    left_sign = np.where(ks % 2 == 1, 1.0, -1.0)
    beta = (ks + 0.5 * n - 0.25) * math.pi
    x = beta - (4.0 * n * n - 1.0) / (8.0 * beta)
    lo, hi = np.array(a, dtype=float), np.array(b, dtype=float)
    x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
    todo = np.arange(ks.size)
    for _ in range(60):
        xs, s = x[todo], left_sign[todo]
        f_below, f = _jv_pair(n, xs)
        lo[todo] = np.where(f * s > 0.0, xs, lo[todo])
        hi[todo] = np.where(f * s < 0.0, xs, hi[todo])
        # J_n' = J_{n-1} - (n/x) J_n.
        step = f / (f_below - n / xs * f)
        new = xs - step
        done = np.abs(step) <= 1e-13 * xs
        take = done | ((lo[todo] < new) & (new < hi[todo]))
        x[todo] = np.where(take, new, 0.5 * (lo[todo] + hi[todo]))
        todo = todo[~done]
        if todo.size == 0:
            break
    return x
