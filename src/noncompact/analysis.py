"""Model-agnostic non-compactness evidence: singular-value sweeps over nested
compressions, the three-premise witness protocol, and report serialization.
What each of these takes from a model is one entry of MODELS.

The witness verdict is 'pass' iff on the requested grid the witness norms
stay bounded, the image-norm lower bounds clear the model's bound,
and (for grids with at least two points) the pairings decrease strictly with
the final value below the decay threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import interval as _interval

SWEEP_THRESHOLDS = (0.01, 0.05, 0.1, 0.25)
DEFAULT_TRUNC_FACTOR = 10
MIN_TRUNCATION = 1000
NESTING_TOL = 1e-10
INTERVAL_BOUND = 1.0 / (4.0 * math.pi**2)
XI_NORM_CAP = 1.01
# Peak RSS of `noncompact interval --grid 1 --trunc-factor N` grows by under
# 100 bytes per term (85 MiB at N = 1e6, 251 MiB at 4e6 and 914 MiB at 1.6e7:
# 58 bytes per term, set by the truncated image sum; 1.84 GiB at this limit
# by linear extrapolation), so this many terms need under 3 GiB.
MAX_WITNESS_TERMS = 1 << 25
# Peak RSS of `noncompact --threads 1 sweep --sizes N` is 153, 281 and 568
# MiB at N = 2^18, 2^19 and 2^20 (3.8 s, 12.8 s and 50 s), about 512 bytes
# per node: set by the interval model, whose cauchy_eigenvalues keeps a 64 x N
# factor.  The disc spectrum takes one SVD per (1,1) block, so its memory
# stays flat (37 and 44 MiB at 2^18 and 2^19) while its time, most of the
# total, grows about like N^2.
MAX_SWEEP_SIZE = 1 << 20


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """All singular values, descending, via LAPACK (the dense oracle for the
    structured spectra)."""
    # Imported here: the witness protocol and the sweeps never need it.
    from scipy import linalg

    a = np.asarray(matrix)
    if a.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix must be finite")
    if np.iscomplexobj(a):
        # A global unit phase does not change singular values; use the
        # cheaper real decomposition for purely real/imaginary matrices.
        if not np.any(a.imag):
            a = a.real
        elif not np.any(a.real):
            a = a.imag
    return linalg.svdvals(a)


@dataclass
class SweepProfile:
    model: str
    sizes: list[int]
    thresholds: list[float]
    singular_values: list[np.ndarray]
    counts_above: list[list[int]]


def disc_sweep_dims(size: int) -> tuple[int, int]:
    """(n_max, k_max) for a disc compression of a requested size:
    n_max = floor(sqrt(size / 8)) (at least 1) and k_max = 2 n_max, giving
    2 n_max k_max = 4 n_max^2 modes, at most size / 2 for size >= 8 (the
    sizes 64, 256, 1024 and 4096 give 16, 100, 484 and 1936)."""
    n_max = max(1, int(math.floor(math.sqrt(size / 8.0))))
    return n_max, 2 * n_max


@dataclass(frozen=True)
class Model:
    """What the witness protocol, its report rows and the sweep take from one
    model.  The functions look the model modules up at call time, so wrappers
    rebound onto those modules see the calls."""

    # Grid point -> squared norm of the full witness, in closed form.
    witness: Callable[[int], float]
    # (grid point, truncation, pairing indices) -> (image-norm lower bound,
    # pairing moduli, closed-form upper bounds of the full pairings, which
    # the computed ones must not exceed, or None if the model has none).
    image: Callable[
        [int, int, tuple[int, ...]], tuple[float, list[float], list[float] | None]
    ]
    bound: Callable[[int], float]
    pairing_indices: tuple[int, ...]
    decay_threshold: float
    # CSV names: the grid point, image rows and bound columns, and the prefix
    # of the pairing columns pairing_{prefix}{index}.
    csv_names: tuple[str, str, str, str]
    # Size -> all singular values, descending, of the compression, computed
    # from its structure without assembling it.
    sweep_spectrum: Callable[[int], np.ndarray]
    # Size -> the dimensions the compression is built from.
    sweep_dims: Callable[[int], object]


def _disc():
    # Imported on first use, so the interval model never loads the disc
    # model; disc imports scipy.special only for the mode normalization and
    # the residual checks, so the sweep loads no scipy.
    from . import disc

    return disc


def _interval_image(m: int, trunc: int, indices: tuple[int, ...]):
    # The norm of the truncated image (rows l < trunc), the full pairings.
    zeta = float(np.linalg.norm(_interval.interval_image_coefficients(m, trunc, trunc)))
    pairings = _interval.interval_image_coefficients(m, max(indices) + 1)
    return zeta, [float(pairings[p]) for p in indices], None


def _disc_image(n: int, trunc: int, indices: tuple[int, ...]):
    # One coefficient vector gives both the image norm (rows k <= trunc) and
    # the pairings, and one bracket the upper ends at every pairing index.
    disc = _disc()
    coeffs = disc.disc_image_coefficients(n, max(trunc, *indices), trunc)
    zeta = float(np.linalg.norm(coeffs[:trunc]))
    upper = disc.disc_image_bracket(n, max(indices))[1]
    return (
        zeta,
        [float(coeffs[k - 1]) for k in indices],
        [float(upper[k - 1]) for k in indices],
    )


MODELS = {
    "interval": Model(
        witness=lambda m: _interval.interval_witness(m),
        image=_interval_image,
        bound=lambda m: INTERVAL_BOUND,
        # Fourier indices p.
        pairing_indices=(0, 1, 5),
        decay_threshold=0.05,
        csv_names=("m", "K", "bound_1_over_4pi2", "p"),
        sweep_spectrum=lambda size: _interval.interval_singular_values(size),
        sweep_dims=lambda size: size,
    ),
    "disc": Model(
        witness=lambda n: _disc().disc_witness(n),
        image=_disc_image,
        bound=lambda n: (n - 1) / (4.0 * n * math.pi**2),
        # Radial indices k.
        pairing_indices=(1, 2, 3),
        decay_threshold=0.1,
        csv_names=("n", "K_rows", "bound_paper", "k"),
        sweep_spectrum=lambda size: _disc().disc_singular_values(*disc_sweep_dims(size)),
        sweep_dims=disc_sweep_dims,
    ),
}


def _model(name: str) -> Model:
    if name not in MODELS:
        raise ValueError(f"model must be one of {tuple(MODELS)}, got {name!r}")
    return MODELS[name]


def compression_sweep(model: str, sizes: tuple[int, ...]) -> SweepProfile:
    spec = _model(model)
    if list(sizes) != sorted(set(sizes)):
        raise ValueError("sizes must be strictly increasing")
    if sizes and not 1 <= sizes[0] <= sizes[-1] <= MAX_SWEEP_SIZE:
        # Refused before any spectrum runs, for every model.
        raise ValueError(f"sizes must lie in [1, {MAX_SWEEP_SIZE}]")
    if len(set(map(spec.sweep_dims, sizes))) < len(sizes):
        raise ValueError(f"sizes must map to distinct {model} dimensions")
    # Largest size first, so the disc sweep fills each order's Bessel zeros
    # in one batch (see disc._zeros_by_order).
    spectra = [spec.sweep_spectrum(size) for size in reversed(sizes)][::-1]
    return SweepProfile(
        model=model,
        sizes=[len(sv) for sv in spectra],
        thresholds=list(SWEEP_THRESHOLDS),
        singular_values=spectra,
        counts_above=[
            [int(np.sum(sv >= t)) for t in SWEEP_THRESHOLDS] for sv in spectra
        ],
    )


def nesting_monotone(profile: SweepProfile) -> bool:
    """Check sigma_j(size N) <= sigma_j(size N') + NESTING_TOL for nested
    N < N'."""
    for small, large in zip(profile.singular_values, profile.singular_values[1:]):
        j = min(len(small), len(large))
        if np.any(small[:j] > large[:j] + NESTING_TOL):
            return False
    return True


@dataclass
class WitnessReport:
    model: str
    grid: list[int]
    truncations: list[int]
    xi_norm_sq_closed: list[float]
    zeta_lower_sq: list[float]
    model_bound: list[float]
    pairing_indices: list[int]
    pairings: list[list[float]]  # pairings[i][j]: grid point i, index j
    pairing_upper_bounds: list[list[float]] | None
    verdict: str
    non_informative: bool = False
    warnings: list[str] = field(default_factory=list)


def witness_protocol(
    model: str,
    grid: tuple[int, ...],
    trunc_factor: int = DEFAULT_TRUNC_FACTOR,
) -> WitnessReport:
    """Run the three-premise non-compactness test on the given grid."""
    spec = _model(model)
    if not grid:
        raise ValueError("grid must be nonempty")
    if list(grid) != sorted(set(grid)):
        raise ValueError("grid must be strictly increasing")
    if trunc_factor < 1:
        raise ValueError(f"trunc_factor must be >= 1, got {trunc_factor}")
    truncs = [max(trunc_factor * point, MIN_TRUNCATION) for point in grid]
    if max(truncs) > MAX_WITNESS_TERMS:
        # Refused before any sum of that length runs.
        raise ValueError(
            f"truncation {max(truncs)} (trunc_factor x grid point) exceeds "
            f"{MAX_WITNESS_TERMS} terms"
        )
    indices = spec.pairing_indices

    xi_closed: list[float] = []
    zeta_sq: list[float] = []
    bounds: list[float] = []
    pairings: list[list[float]] = []
    upper: list[list[float]] = []

    for point, trunc in zip(grid, truncs):
        xi_closed.append(spec.witness(point))
        zeta, pairing, upper_row = spec.image(point, trunc, indices)
        bounds.append(spec.bound(point))
        pairings.append(pairing)
        if upper_row is not None:
            upper.append(upper_row)
        zeta_sq.append(zeta**2)

    bounded = all(closed <= XI_NORM_CAP for closed in xi_closed)
    above_bound = all(z >= b for z, b in zip(zeta_sq, bounds))
    # Truncation only lowers zeta (positive terms); xi is the full norm.
    warnings = [
        f"zeta^2 {z:.3g} is below the model bound {b:.3g} at grid point {point} "
        f"with truncation {trunc}; a larger --trunc-factor can only raise zeta"
        for point, trunc, z, b in zip(grid, truncs, zeta_sq, bounds) if z < b
    ]
    non_informative = len(grid) < 2 or any(b == 0.0 for b in bounds)
    if non_informative:
        warnings.append(
            "verdict is non-informative: the grid has fewer than two points "
            "or a model bound is 0"
        )
    decay_ok = True
    if len(grid) >= 2:
        for j in range(len(indices)):
            col = [row[j] for row in pairings]
            if any(b >= a for a, b in zip(col, col[1:])):
                decay_ok = False
            if col[-1] >= spec.decay_threshold:
                decay_ok = False
    upper_ok = all(
        p <= u for row, urow in zip(pairings, upper) for p, u in zip(row, urow)
    )

    verdict = "pass" if (bounded and above_bound and decay_ok and upper_ok) else "fail"
    return WitnessReport(
        model=model,
        grid=list(grid),
        truncations=truncs,
        xi_norm_sq_closed=xi_closed,
        zeta_lower_sq=zeta_sq,
        model_bound=bounds,
        pairing_indices=list(indices),
        pairings=pairings,
        pairing_upper_bounds=upper or None,
        verdict=verdict,
        non_informative=non_informative,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# Serialization


def witness_report_rows(report: WitnessReport) -> list[dict]:
    point_name, rows_name, bound_name, prefix = MODELS[report.model].csv_names
    rows = []
    for i, point in enumerate(report.grid):
        row = {
            point_name: point,
            "L": report.truncations[i],
            rows_name: report.truncations[i],
            "xi_norm_sq_closed": report.xi_norm_sq_closed[i],
            "zeta_norm_lower_sq": report.zeta_lower_sq[i],
            bound_name: report.model_bound[i],
        }
        # One column per pairing index: every pairing the verdict reads.
        for index, pairing in zip(report.pairing_indices, report.pairings[i]):
            row[f"pairing_{prefix}{index}"] = pairing
        row["verdict"] = report.verdict
        rows.append(row)
    return rows


def witness_report_dict(report: WitnessReport) -> dict:
    return {
        "grid": report.grid,
        "xi": report.xi_norm_sq_closed,
        "zeta_lower": [math.sqrt(z) for z in report.zeta_lower_sq],
        "bound": report.model_bound,
        "pairings": report.pairings,
        "verdict": report.verdict,
    }


def sweep_report_dict(profile: SweepProfile) -> dict:
    return {
        "model": profile.model,
        "sizes": profile.sizes,
        "thresholds": profile.thresholds,
        "sv": [sv[:64].tolist() for sv in profile.singular_values],
        "counts": profile.counts_above,
    }


def sweep_report_rows(profiles: list[SweepProfile]) -> list[dict]:
    """One CSV row per model and size, read from sweep_report_dict: the counts
    at each threshold and the top 8 singular values."""
    rows = []
    for report in map(sweep_report_dict, profiles):
        for size, counts, sv in zip(report["sizes"], report["counts"], report["sv"]):
            row = {"model": report["model"], "size": size}
            row.update(zip([f"count_ge_{t}" for t in report["thresholds"]], counts))
            # sv1..sv8, blank past the last singular value of a size below 8.
            row.update(zip([f"sv{j}" for j in range(1, 9)], sv + [""] * 8))
            rows.append(row)
    return rows
