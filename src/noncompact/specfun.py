"""Special-function kernels: the partial-fraction sum pair_sum behind every
witness closed form, J_0 and J_1 in numpy, and the positive Bessel zeros
with sign-change brackets.

pair_sum is one kernel, sum_{l>=0} 1/((x+l)(x+l+h)), at two arguments.  It
sums the terms at arguments below PAIR_SERIES_MIN directly and the rest by
Euler-Maclaurin summation through B_14 (DLMF 2.10.1), whose remainder is
below 2.5e-20 (DLMF 5.11(ii)).  The Bernoulli terms are taken as one divided
difference, so nothing cancels near h = 0.  Float64 rounding is not
controlled: against 40-digit mpmath the kernel errs by at most 1.7 eps
relative on x in [0.01, 1e7], h in {0} and [1e-9, 1e7].

bessel_j01 gives J_0 and J_1 from Hankel's expansion for x >= HANKEL_MIN
and from Bessel's integral, summed by the trapezoidal rule, below it; J_n
for n >= 2 follows by forward recurrence.  Zero finding is done here, by
one path for every order: the k-th zero of J_n is isolated by the band
(pi(k - 1/4), pi(k - 1/8)) for n = 0 and by the zeros of J_{n-1}
(interlacing, DLMF 10.21(i)) for n >= 1, so one bottom-up pass over one
table fills the orders a request needs, lowest first.  A bracketed Newton
iteration on the forward recurrence from bessel_j01, vectorized over the
ranks not yet cached, refines each zero, and it is stored with a bracket
across which J_n changes sign inside that interval.  The sign check takes
J_n from the same recurrence and asks |J_n| >= J_SIGN_MARGIN sqrt(n + 1)
eps sqrt(2/(pi x)) at both ends, over 3 times its error bound.  An
unstorable rank is bad input (ValueError); a storable one that fails these
checks is a fault (BracketError).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ZERO_BRACKET_WIDTH = 1e-10
# bessel_j01 sums Hankel's expansion at arguments at least this large.
HANKEL_MIN = 25.0
# A bracket end of J_n counts only where |J_n| from _jv_pair is at least this
# many sqrt(n + 1) eps sqrt(2/(pi x)): over 3 times _jv_pair's error bound,
# 20 in the same unit, measured against mpmath (see its docstring).
J_SIGN_MARGIN = 64.0
# _pair_tail sums its Euler-Maclaurin series at arguments at least this large.
PAIR_SERIES_MIN = 16.0
# B_2, B_4, ..., B_14 (DLMF Table 24.2.1).
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


class BracketError(RuntimeError):
    """A storable Bessel zero failed its checks: no sign-change bracket of
    J_n inside its isolating interval was found for it."""


def _pair_tail(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """sum_{l>=0} 1/((x+l)(x+l+h)) elementwise, for x > 0 and h >= 0.  The
    terms l < j, with j >= 0 the least integer such that y = x + j >=
    PAIR_SERIES_MIN, are summed directly, smallest first.  From y on,
    Euler-Maclaurin summation (DLMF 2.10.1) of f(t) = 1/((y+t)(y+t+h)) gives
    log1p(h/y)/h (1/y at h = 0) + ab/2 + sum_{k=1}^{7} B_2k (a^2k - b^2k)/(2k h)
    with a = 1/y and b = 1/(y+h).  As a - b = hab, the last sum is ab(a+b)
    times the divided difference (P(a^2) - P(b^2))/(a^2 - b^2) of P(u) =
    sum_k B_2k u^k/(2k), which one Horner pass evaluates at both points
    together: no difference of two large values is formed, and h = 0 needs
    no branch.  f is (1/h)(1/(y+t) - 1/(y+t+h)), so the remainder is the
    difference quotient of that of the series of psi (DLMF 5.11.2), which
    by the mean value theorem is at most the first omitted term of the
    series of psi', |B_16|/y^17 < 2.5e-20 (DLMF 5.11(ii), 5.15.8)."""
    low = np.flatnonzero(x < PAIR_SERIES_MIN)
    xl, hl = x[low], h[low]
    j = np.ceil(PAIR_SERIES_MIN - xl)
    head = np.zeros(low.size)
    for i in reversed(range(int(j.max(initial=0.0)))):
        t = xl + i
        head += np.where(i < j, 1.0 / (t * (t + hl)), 0.0)
    y = x.copy()
    y[low] += j
    out = np.divide(h, y)
    np.log1p(out, out=out)
    np.divide(out, h, out=out, where=h > 0)
    b = np.add(y, h)
    np.divide(1.0, b, out=b)
    a = np.divide(1.0, y, out=y)
    np.copyto(out, a, where=h == 0)
    # p runs Horner's rule for P(v)/v, d for (P(u) - P(v))/(u - v).
    u, v = a * a, b * b
    p = np.full(a.shape, _BERNOULLI[-1] / (2 * len(_BERNOULLI)))
    d = np.zeros(a.shape)
    for k in reversed(range(len(_BERNOULLI) - 1)):
        d *= u
        d += p
        p *= v
        p += _BERNOULLI[k] / (2 * k + 2)
    d *= u
    d += p
    # out += ab (1/2 + (a+b) d), in the buffers of d, p and u.
    d *= np.add(a, b, out=p)
    d += 0.5
    d *= np.multiply(a, b, out=u)
    out += d
    out[low] += head
    return out


def pair_sum(a: float, b, lo: int, hi: int | None = None) -> np.ndarray:
    """sum_{l=lo+1}^{hi} 1/((l+a)(l+b)), elementwise over the array b, with
    hi=None meaning infinity; every l + a and l + b must be positive.  It is
    _pair_tail at x = lo+1+min(a, b) and h = |a - b|, minus the same at x =
    hi+1+min(a, b) for finite hi: one path for every b, the diagonal b = a
    being h = 0.  Entries are taken in blocks of 2^12, so the temporaries
    do not grow with b.  Float64 rounding is not controlled: on the
    interval and disc cases of the tests it errs by at most 8.4 eps
    relative, where the tails at lo and hi cancel by up to a factor 11."""
    b = np.asarray(b, dtype=float)
    out = np.empty(b.shape)
    flat, flat_out, size = b.reshape(-1), out.reshape(-1), 1 << 12
    for start in range(0, b.size, size):
        part = flat[start : start + size]
        least, h = np.minimum(a, part), np.abs(a - part)
        block = _pair_tail(lo + 1 + least, h)
        if hi is not None:
            block -= _pair_tail(hi + 1 + least, h)
        flat_out[start : start + size] = block
    return out


def _hankel_coefficients(nu: int) -> tuple[list[float], list[float]]:
    """(-1)^i a_{2i}(nu) and (-1)^i a_{2i+1}(nu) for i < 10: the terms of
    Hankel's P and Q (DLMF 10.17.3) in 1/x^2, with a_k(nu) =
    (4nu^2 - 1^2)(4nu^2 - 3^2)...(4nu^2 - (2k-1)^2)/(k! 8^k) (DLMF 10.17.1)
    divided as integers, so each is correctly rounded."""
    a, num, den = [], 1, 1
    for k in range(20):
        if k:
            num *= 4 * nu * nu - (2 * k - 1) ** 2
            den *= 8 * k
        a.append((-1) ** (k // 2) * num / den)
    return a[0::2], a[1::2]


# Rows P_0, Q_0, P_1, Q_1 (Q without its factor 1/x), highest power first.
_HANKEL = np.array([c for nu in (0, 1) for c in _hankel_coefficients(nu)])
_HANKEL = _HANKEL.T[::-1, :, None]
# The nodes and weights of the trapezoidal rule on 48 intervals of [0, pi].
_THETA = np.linspace(0.0, math.pi, 49)
_SIN_THETA = np.sin(_THETA)
_TRAPEZOID = np.full(49, 1.0 / 48)
_TRAPEZOID[[0, -1]] = 1.0 / 96


def _hankel_j01(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # J_nu = sqrt(2/(pi x)) (P cos w - Q sin w), w = x - nu pi/2 - pi/4, with
    # cos w and sin w written through cos x +- sin x: forming x - pi/4 would
    # lose up to x eps of the phase.
    w = 1.0 / (x * x)
    acc = np.empty((4, x.size))
    acc[:] = _HANKEL[0]
    for c in _HANKEL[1:]:
        acc *= w
        acc += c
    acc[1::2] /= x
    p0, q0, p1, q1 = acc
    cos, sin = np.cos(x), np.sin(x)
    plus, minus = cos + sin, cos - sin
    amp = 1.0 / np.sqrt(math.pi * x)
    return (p0 * plus + q0 * minus) * amp, (q1 * plus - p1 * minus) * amp


def _integral_j01(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # J_nu(x) = (1/pi) int_0^pi cos(nu t - x sin t) dt (DLMF 10.9.1).  Each
    # row of u is summed on its own, so a value does not depend on the other
    # arguments of the call.
    u = np.multiply.outer(x, _SIN_THETA)
    j0 = (np.cos(u) * _TRAPEZOID).sum(axis=1)
    j1 = (np.cos(_THETA - u) * _TRAPEZOID).sum(axis=1)
    return j0, j1


def bessel_j01(x) -> tuple[np.ndarray, np.ndarray]:
    """(J_0(x), J_1(x)) elementwise for x >= 0, in numpy.

    For x >= HANKEL_MIN: Hankel's expansion (DLMF 10.17.3) with P and Q
    through a_19; the remainder of each is at most its first omitted term
    (DLMF 10.17(iii)), a_20/x^20 < 4.3e-18 and a_21/x^21 < 1.7e-18, so J errs
    by less than 1e-17 sqrt(2/(pi x)) from them.  Below: Bessel's integral
    (DLMF 10.9.1) by the trapezoidal rule on 48 intervals, exact up to
    aliasing 2 sum_{m>=1} |J_{96m+-nu}(x)| < 1e-30 on a periodic integrand
    (Trefethen and Weideman, SIAM Rev. 56, 2014).  Float64 rounding is not
    controlled: against mpmath on [0.5, 2.7e5] the error stays below
    20 eps sqrt(2/(pi x)) for x < HANKEL_MIN (17.2 measured, near 25) and
    3 eps sqrt(2/(pi x)) above (2.4 measured)."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    # Hankel's sum at every argument (those below HANKEL_MIN are summed at
    # HANKEL_MIN), then Bessel's integral in place where x < HANKEL_MIN.
    j0, j1 = _hankel_j01(np.maximum(flat, HANKEL_MIN))
    near = np.flatnonzero(flat < HANKEL_MIN)
    if near.size:
        j0[near], j1[near] = _integral_j01(flat[near])
    return j0.reshape(x.shape), j1.reshape(x.shape)


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


def as_integer(name: str, value) -> int:
    """value as an int; ValueError unless it is of an integer type other than
    bool.  The rule for grid points, sizes, orders and ranks."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} {value!r} is not an integer")
    return int(value)


def bessel_zero(n: int, k: int) -> float:
    """k-th positive zero of J_n, cached with a sign-change bracket."""
    n, k = as_integer("order", n), as_integer("rank k", k)
    if n < 0 or k < 1:
        raise ValueError(f"order must be >= 0 and rank k >= 1, got {n} and {k}")
    cached = _DEFAULT_TABLE.get(n, k)
    return cached if cached is not None else float(bessel_zeros(n, k)[k - 1])


def bessel_zeros(n: int, k_max: int) -> np.ndarray:
    """First k_max positive zeros of J_n as a new array (cached).

    The k-th zero is the only zero of J_n in its isolating interval (a, b):
    the band (pi(k - 1/4), pi(k - 1/8)) for n = 0, and (alpha_{n-1,k},
    alpha_{n-1,k+1}) for n >= 1 by interlacing, so order j needs k_max + n - j
    ranks.  One bottom-up pass: down from order n while an order holds fewer,
    then each short order once, lowest first, its missing ranks together.
    Each is stored only if J_j changes sign across [lo, hi], with hi - lo <=
    ZERO_BRACKET_WIDTH, inside (a, b); otherwise BracketError.  Ranks no
    float bracket of that width can hold (J_0 from rank 83 444) are out of
    range: ValueError, before any rank of that order is refined.
    """
    n, k_max = as_integer("order", n), as_integer("k_max", k_max)
    if n < 0 or k_max < 0:
        raise ValueError(f"order and k_max must be >= 0, got {n} and {k_max}")
    table, need = _DEFAULT_TABLE.rows, k_max + n  # order j needs need - j ranks
    low = n
    while low >= 0 and table.setdefault(low, np.empty((3, 0))).shape[1] < need - low:
        low -= 1
    for j in range(low + 1, n + 1):
        ks = np.arange(table[j].shape[1] + 1, need - j + 1)
        if j == 0:
            a, b = math.pi * (ks - 0.25), math.pi * (ks - 0.125)
        else:
            a, b = table[j - 1][0, ks - 1], table[j - 1][0, ks]
        # Where a float spacing reaches half the bracket width (from 2^18 on),
        # no float bracket of that width holds the zero strictly inside.
        unstorable = np.spacing(a) >= 0.5 * ZERO_BRACKET_WIDTH
        if unstorable.any():
            k = int(ks[np.argmax(unstorable)])
            raise ValueError(f"no float bracket holds zero {k} of J_{j}")
        x = _newton_in_intervals(j, ks, a, b)
        # Rounding x -/+ h moves each end by at most half a spacing of x.
        h = 0.5 * ZERO_BRACKET_WIDTH - np.spacing(x)
        lo, hi = x - h, x + h
        # The zeros of order j - 1 are within ZERO_BRACKET_WIDTH of the true
        # ones, so this margin keeps [lo, hi] inside the true interval.
        ok = (
            (a + ZERO_BRACKET_WIDTH < lo)
            & (lo < x)
            & (x < hi)
            & (hi < b - ZERO_BRACKET_WIDTH)
            & (hi - lo <= ZERO_BRACKET_WIDTH)
            & _sign_change(j, lo, hi)
        )
        if not ok.all():
            k = int(ks[np.argmin(ok)])
            raise BracketError(f"no sign-change bracket for zero {k} of J_{j}")
        table[j] = np.concatenate((table[j], (x, lo, hi)), axis=1)
    return table[n][0, :k_max].copy()


def _sign_change(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """J_n(lo) J_n(hi) < 0, elementwise, with J_n from _jv_pair, and only
    where |J_n| at both ends is at least J_SIGN_MARGIN sqrt(n + 1) eps
    sqrt(2/(pi x)), over 3 times its error bound, so the signs are those of
    J_n."""
    ends = np.stack((lo, hi))
    j = _jv_pair(n, ends)[1]
    eps = np.finfo(float).eps
    floor = J_SIGN_MARGIN * math.sqrt(n + 1) * eps * np.sqrt(2.0 / (math.pi * ends))
    return (j[0] * j[1] < 0.0) & np.all(np.abs(j) >= floor, axis=0)


def _jv_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(J_{n-1}(x), J_n(x)) elementwise, by the forward recurrence
    J_{m+1} = (2m/x) J_m - J_{m-1} (DLMF 10.6.1) from bessel_j01's J_0 and
    J_1; (-J_1, J_0) for n = 0.  Accurate for x > n: there every step m < n
    lies in the oscillatory region m < x, where J_m and Y_m are of comparable
    size and rounding errors are not amplified (Gautschi, SIAM Rev. 9, 1967).
    For x < m, J_m decays while Y_m grows, and so would the error.  Float64
    rounding is not controlled: against mpmath for x > n, n <= 1000 (past
    361, the highest order a sweep asks for), J_n errs by less than 20
    sqrt(n + 1) eps sqrt(2/(pi x)), bessel_j01's bound at n = 0 (measured:
    8.2 sqrt(n + 1) at n = 1, at most 3.1 sqrt(n + 1) for n >= 20)."""
    j0, j1 = bessel_j01(x)
    prev, cur = -j1, j0
    for m in range(n):
        prev, cur = cur, (2.0 * m / x) * cur - prev
    return prev, cur


def _newton_in_intervals(n: int, ks: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Zero of J_n in each (a, b) by Newton steps from McMahon's guess (DLMF
    10.21.19), vectorized over the ranks ks.  J_n has the sign (-1)^(k-1)
    left of its k-th zero, so every evaluation shrinks the bracket; a step
    that leaves it is replaced by bisection.  Converged ranks are dropped.

    J_{n-1} and J_n come from the forward recurrence of _jv_pair on
    bessel_j01, as in the sign check of bessel_zeros, so no order needs
    scipy.  Its precondition x > n holds: every iterate lies in its isolating
    interval, whose left end alpha_{n-1,1} exceeds n for n >= 1."""
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
