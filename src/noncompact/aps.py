"""Index ladder of the spectral-cut boundary extensions on the disc.

The extension cut at N keeps boundary Fourier modes k >= N on the positive
chirality component (and kills modes k <= N on the negative one).  Its
kernel is spanned by the monomial modes r^n e^{+in theta}, n < N, for N > 0
and r^n e^{-in theta}, n < -N, for N <= -1.  Integer logic only: no numpy.
"""

from __future__ import annotations

from typing import Sequence


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
