"""Index ladder of the spectral-cut boundary extensions on the disc.

The extension cut at N keeps boundary Fourier modes k >= N on the positive
chirality component (and kills modes k <= N on the negative one).  Kernel
functions are single monomial modes r^n e^{+-i n theta}, so the boundary
conditions are checked symbolically on the trace mode index; the Dirac
residual is evaluated pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

CHIRALITIES = ("+", "-")


class KernelRangeError(ValueError):
    """The requested (N, n, chirality) is not a kernel element."""


@dataclass(frozen=True)
class KernelCheck:
    residual: float
    boundary_ok: bool


def aps_kernel_dims(cut: int) -> tuple[int, int]:
    """(dim ker of the positive part, dim ker of the negative part)."""
    dim_plus = cut if cut > 0 else 0
    dim_minus = -cut if cut <= -1 else 0
    return dim_plus, dim_minus


def aps_index(cut: int) -> int:
    dim_plus, dim_minus = aps_kernel_dims(cut)
    return dim_plus - dim_minus


def _index_ladder(cuts: Sequence[int]) -> tuple[list[dict], bool]:
    """One row (N, dim_plus, dim_minus, index) per cut, and whether index ==
    dim_plus - dim_minus == N at every cut.  Private: perfbench's tracer times
    the public functions here, and this one only builds rows around them."""
    rows, ok = [], True
    for cut in cuts:
        dim_plus, dim_minus = aps_kernel_dims(cut)
        index = aps_index(cut)
        ok = ok and index == dim_plus - dim_minus == cut
        rows.append(
            {"N": cut, "dim_plus": dim_plus, "dim_minus": dim_minus, "index": index}
        )
    return rows, ok


def kernel_mode_residual(n: int, radii: Sequence[float]) -> float:
    """Max pointwise Dirac residual of the kernel mode r^n e^{+in t} (chirality
    "+", operator e^{i t}(d_r + i r^{-1} d_t)) or r^n e^{-in t} ("-", operator
    e^{-i t}(-d_r + i r^{-1} d_t)).  Both equal |n r^{n-1} - (n/r) r^n|, which
    is analytically zero for every n >= 0."""
    # Imported here: the index ladder itself is integer logic only.
    import numpy as np

    if n < 0:
        raise ValueError("n must be >= 0")
    r = np.asarray(radii, dtype=float)
    if np.any(r <= 0) or np.any(r >= 1):
        raise ValueError("radii must lie in (0,1)")
    if n == 0:
        return 0.0
    val = n * r ** (n - 1) - (n / r) * r**n
    return float(np.max(np.abs(val)))


def kernel_function_residual(
    cut: int, n: int, chirality: str, samples: Sequence[float]
) -> KernelCheck:
    """Pointwise Dirac residual plus symbolic boundary-condition flag for the
    kernel function r^n e^{+in t} (chirality "+") or r^n e^{-in t} ("-")."""
    if chirality not in CHIRALITIES:
        raise ValueError(f"chirality must be '+' or '-', got {chirality!r}")
    dim_plus, dim_minus = aps_kernel_dims(cut)
    if chirality == "+":
        if not n < dim_plus:
            raise KernelRangeError(
                f"(N={cut}, n={n}, +) is not a kernel element"
            )
        # Trace of r^n e^{in t} is the single boundary mode n; the domain
        # condition kills boundary modes k >= N on this component.
        boundary_ok = n < cut
    else:
        if not n < dim_minus:
            raise KernelRangeError(
                f"(N={cut}, n={n}, -) is not a kernel element"
            )
        # Trace mode is -n; the domain condition kills boundary modes k <= N.
        boundary_ok = -n >= cut + 1
    return KernelCheck(kernel_mode_residual(n, samples), boundary_ok)


def noncompact_extension_kernel_report(
    n_max: int, samples: Sequence[float]
) -> list[float]:
    """Residuals of the kernel family r^n e^{-in t}, n = 0..n_max, of the
    maximal negative-chirality extension; the family continues for every n,
    so that kernel is infinite dimensional."""
    return [kernel_mode_residual(n, samples) for n in range(n_max + 1)]
