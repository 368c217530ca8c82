"""Special-function kernels: digamma/trigamma, Bessel J and I, and positive
Bessel zeros with certified sign-change brackets.

Evaluation of the classical functions is delegated to scipy.special (well
inside the accuracy budget everywhere we use them).  Zero finding is done
here: Newton refinement from a McMahon guess for orders 0 and 1, interlacing
brackets plus Brent for higher orders, and every zero is finished with a
bisection bracket across which J_n provably changes sign.
"""

from __future__ import annotations

import csv
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
    most ZERO_BRACKET_WIDTH across which J_n changes sign.
    """

    entries: dict[tuple[int, int], tuple[float, float, float]] = field(
        default_factory=dict
    )

    def get(self, n: int, k: int) -> float | None:
        entry = self.entries.get((n, k))
        return entry[0] if entry is not None else None

    def bracket(self, n: int, k: int) -> tuple[float, float] | None:
        entry = self.entries.get((n, k))
        return (entry[1], entry[2]) if entry is not None else None

    def add(self, n: int, k: int, zero: float, lo: float, hi: float) -> None:
        self.entries[(n, k)] = (zero, lo, hi)

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "k", "alpha", "bracket_low", "bracket_high"])
            for (n, k), (alpha, lo, hi) in sorted(self.entries.items()):
                writer.writerow([n, k, f"{alpha:.17g}", f"{lo:.17g}", f"{hi:.17g}"])

    @classmethod
    def from_csv(cls, path: str) -> "BesselZeroTable":
        table = cls()
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                table.add(
                    int(row["n"]),
                    int(row["k"]),
                    float(row["alpha"]),
                    float(row["bracket_low"]),
                    float(row["bracket_high"]),
                )
        return table


_DEFAULT_TABLE = BesselZeroTable()


def default_zero_table() -> BesselZeroTable:
    return _DEFAULT_TABLE


def _mcmahon_guess(n: int, k: int) -> float:
    beta = (k + 0.5 * n - 0.25) * math.pi
    mu = 4.0 * n * n
    return beta - (mu - 1.0) / (8.0 * beta)


def _newton(n: int, x0: float) -> float:
    x = x0
    for _ in range(100):
        f = float(_sp.jv(n, x))
        fp = float(bessel_jprime(n, x))
        if fp == 0.0:
            break
        dx = f / fp
        x -= dx
        if abs(dx) < 1e-13 * max(1.0, abs(x)):
            return x
    return x


def _certify_bracket(n: int, x: float) -> tuple[float, float]:
    """Return a bracket of width <= ZERO_BRACKET_WIDTH with a sign change."""
    h = 0.5 * ZERO_BRACKET_WIDTH
    lo, hi = x - h, x + h
    for _ in range(60):
        flo = float(_sp.jv(n, lo))
        fhi = float(_sp.jv(n, hi))
        if flo * fhi < 0.0:
            break
        h *= 2.0
        lo, hi = x - h, x + h
    else:
        raise BracketError(f"no sign change of J_{n} around {x!r}")
    # Target slightly below the advertised width so the endpoint nudge below
    # cannot push the bracket over it.
    while hi - lo > 0.98 * ZERO_BRACKET_WIDTH:
        mid = 0.5 * (lo + hi)
        fm = float(_sp.jv(n, mid))
        if fm == 0.0:
            # Exact machine zero: nudge the midpoint by a quarter width.
            mid += 0.25 * (hi - lo)
            fm = float(_sp.jv(n, mid))
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    # Bisection can land an endpoint exactly on the refined root; widen that
    # side slightly so the root stays strictly interior.
    if x <= lo:
        lo = x - 0.01 * ZERO_BRACKET_WIDTH
    elif x >= hi:
        hi = x + 0.01 * ZERO_BRACKET_WIDTH
    if float(_sp.jv(n, lo)) * float(_sp.jv(n, hi)) >= 0.0:
        raise BracketError(f"bracket certification failed for J_{n} near {x!r}")
    return lo, hi


def bessel_zero(n: int, k: int, table: BesselZeroTable | None = None) -> float:
    """k-th positive zero of J_n, cached with a certified bracket."""
    _check_order(n)
    if k < 1:
        raise ValueError(f"rank k must be >= 1, got {k!r}")
    if table is None:
        table = _DEFAULT_TABLE
    cached = table.get(n, k)
    if cached is not None:
        return cached

    if n <= 1:
        x = _newton(n, _mcmahon_guess(n, k))
    else:
        # Imported here so that orders 0 and 1, all the witness sums use,
        # never load scipy.optimize.
        from scipy import optimize

        # Interlacing: the k-th zero of J_n lies strictly between the k-th
        # and (k+1)-th zeros of J_{n-1}, and J_n changes sign between them.
        lo = bessel_zero(n - 1, k, table)
        hi = bessel_zero(n - 1, k + 1, table)
        x = float(optimize.brentq(lambda t: _sp.jv(n, t), lo, hi, xtol=1e-13))

    lo, hi = _certify_bracket(n, x)
    zero = x if lo <= x <= hi else 0.5 * (lo + hi)
    if n == 0 and not (math.pi * (k - 0.25) < zero < math.pi * (k - 0.125)):
        raise BracketError(f"zero {zero!r} of J_0 violates the (k-1/4, k-1/8) band")
    table.add(n, k, zero, lo, hi)
    return zero


def bessel_zeros(n: int, k_max: int, table: BesselZeroTable | None = None) -> np.ndarray:
    """First k_max positive zeros of J_n as an array (cached).

    For n = 0 the Newton iteration is vectorized over all missing ranks,
    which keeps large tables (tens of thousands of zeros) cheap.
    """
    _check_order(n)
    if table is None:
        table = _DEFAULT_TABLE
    missing = [k for k in range(1, k_max + 1) if table.get(n, k) is None]
    if missing and n == 0:
        ks = np.asarray(missing, dtype=float)
        x = (ks - 0.25) * math.pi
        x = x + 1.0 / (8.0 * x)
        for _ in range(6):
            # J_0' = -J_1.
            x = x + _sp.jv(0, x) / _sp.jv(1, x)
        # Slightly under half the advertised width so the rounded endpoint
        # difference stays within it.
        h = 0.49 * ZERO_BRACKET_WIDTH
        ok = _sp.jv(0, x - h) * _sp.jv(0, x + h) < 0.0
        for k, xi, good in zip(missing, x, ok):
            if good:
                lo, hi = float(xi) - h, float(xi) + h
            else:
                lo, hi = _certify_bracket(0, float(xi))
            zero = float(xi) if lo <= xi <= hi else 0.5 * (lo + hi)
            if not (math.pi * (k - 0.25) < zero < math.pi * (k - 0.125)):
                raise BracketError(
                    f"zero {zero!r} of J_0 violates the (k-1/4, k-1/8) band"
                )
            table.add(0, k, zero, lo, hi)
    elif missing:
        for k in missing:
            bessel_zero(n, k, table)
    return np.array([table.get(n, k) for k in range(1, k_max + 1)])
