"""Model-agnostic non-compactness evidence: singular-value sweeps over nested
compressions, the four-premise witness protocol, and report serialization.
What each of these takes from a model is one entry of MODELS.

The witness verdict is 'pass' iff on the requested grid the witness norms
stay bounded, the image-norm lower bounds clear the model's bound, the
pairings decrease strictly to below the decay threshold (on two or more
points) and stay within the model's upper bounds, if any.  A NaN fails each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import disc as _disc
from . import interval as _interval
from .specfun import as_integer

SWEEP_THRESHOLDS = (0.01, 0.05, 0.1, 0.25)
# Truncation only lowers zeta; at this factor zeta^2 stays at least 3.27 times
# its bound on the interval (m = 1) and 16.9 times on the disc (n = 100).
TRUNC_FACTOR = 10
MIN_TRUNCATION = 1000
NESTING_TOL = 1e-10
INTERVAL_BOUND = 1.0 / (4.0 * math.pi**2)
XI_NORM_CAP = 1.01
# Peak RSS of `noncompact interval --grid N/10` (N terms) grows by under
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
    a = np.asarray(matrix)
    if a.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix must be finite")
    return np.linalg.svd(a, compute_uv=False)


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
    # CSV names: the grid point and bound columns, and the prefix of the
    # pairing columns pairing_{prefix}{index}.
    csv_names: tuple[str, str, str]
    # Size -> all singular values, descending, of the compression, computed
    # from its structure without assembling it.
    sweep_spectrum: Callable[[int], np.ndarray]
    # Size -> the dimensions the compression is built from.
    sweep_dims: Callable[[int], object]


def _interval_image(m: int, trunc: int, indices: tuple[int, ...]):
    # The norm of the truncated image (rows l < trunc), the full pairings.
    zeta = float(np.linalg.norm(_interval.interval_image_coefficients(m, trunc, trunc)))
    pairings = _interval.interval_image_coefficients(m, max(indices) + 1)
    return zeta, [float(pairings[p]) for p in indices], None


def _disc_image(n: int, trunc: int, indices: tuple[int, ...]):
    # Every truncation (>= MIN_TRUNCATION) exceeds every pairing index, so one
    # vector gives zeta and the pairings; one bracket, the upper ends.
    coeffs = _disc.disc_image_coefficients(n, trunc, trunc)
    zeta = float(np.linalg.norm(coeffs))
    upper = _disc.disc_image_bracket(n, max(indices))[1]
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
        csv_names=("m", "bound_1_over_4pi2", "p"),
        sweep_spectrum=lambda size: _interval.interval_singular_values(size),
        sweep_dims=lambda size: size,
    ),
    "disc": Model(
        witness=lambda n: _disc.disc_witness(n),
        image=_disc_image,
        bound=lambda n: (n - 1) / (4.0 * n * math.pi**2),
        # Radial indices k.
        pairing_indices=(1, 2, 3),
        decay_threshold=0.1,
        csv_names=("n", "bound_paper", "k"),
        sweep_spectrum=lambda size: _disc.disc_singular_values(*disc_sweep_dims(size)),
        sweep_dims=disc_sweep_dims,
    ),
}


def _model(name: str) -> Model:
    if name not in MODELS:
        raise ValueError(f"model must be one of {tuple(MODELS)}, got {name!r}")
    return MODELS[name]


def _sweep_model(model: str, sizes: tuple[int, ...]) -> Model:
    spec = _model(model)
    sizes = [as_integer("size", size) for size in sizes]
    if sizes != sorted(set(sizes)):
        raise ValueError("sizes must be strictly increasing")
    if sizes and not 1 <= sizes[0] <= sizes[-1] <= MAX_SWEEP_SIZE:
        raise ValueError(f"sizes must lie in [1, {MAX_SWEEP_SIZE}]")
    if len(set(map(spec.sweep_dims, sizes))) < len(sizes):
        raise ValueError(f"sizes must map to distinct {model} dimensions")
    return spec


def compression_sweeps(sizes: tuple[int, ...]) -> list[SweepProfile]:
    """compression_sweep of every model, in MODELS order; sizes that any model
    refuses are refused before any spectrum runs."""
    for model in MODELS:
        _sweep_model(model, sizes)
    return [compression_sweep(model, sizes) for model in MODELS]


def compression_sweep(model: str, sizes: tuple[int, ...]) -> SweepProfile:
    spec = _sweep_model(model, sizes)
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


def witness_protocol(model: str, grid: tuple[int, ...]) -> WitnessReport:
    """Run the four-premise non-compactness test on the given grid, summing
    L = max(TRUNC_FACTOR * point, MIN_TRUNCATION) image rows per point."""
    spec = _model(model)
    if not grid:
        raise ValueError("grid must be nonempty")
    grid = [as_integer("grid point", point) for point in grid]
    if min(grid) < 1:
        raise ValueError(f"grid points must be >= 1, got {min(grid)}")
    if grid != sorted(set(grid)):
        raise ValueError("grid must be strictly increasing")
    truncs = [max(TRUNC_FACTOR * point, MIN_TRUNCATION) for point in grid]
    if truncs[-1] > MAX_WITNESS_TERMS:
        # Refused before any sum of that length runs.
        raise ValueError(
            f"grid point {grid[-1]} (truncation {truncs[-1]}): exceeds "
            f"{MAX_WITNESS_TERMS} witness terms"
        )
    points = []
    for point, trunc in zip(grid, truncs):
        xi = spec.witness(point)
        try:
            zeta, pairing, upper_row = spec.image(point, trunc, spec.pairing_indices)
        except ValueError as exc:  # e.g. specfun refusing a Bessel-zero rank
            raise ValueError(f"grid point {point} (truncation {trunc}): {exc}") from exc
        points.append((xi, zeta**2, spec.bound(point), pairing, upper_row))
    xi_closed, zeta_sq, bounds, pairings, upper = map(list, zip(*points))
    bounded = all(xi <= XI_NORM_CAP for xi in xi_closed)
    below = [i for i, (z, b) in enumerate(zip(zeta_sq, bounds)) if not z >= b]
    decays = len(grid) < 2 or all(
        all(b < a for a, b in zip(col, col[1:])) and col[-1] < spec.decay_threshold
        for col in zip(*pairings)
    )
    within_upper = upper[0] is None or all(
        p <= u for row, urow in zip(pairings, upper) for p, u in zip(row, urow)
    )
    verdict = "pass" if bounded and not below and decays and within_upper else "fail"
    # Truncation only lowers zeta (positive terms); xi is the full norm.
    warnings = [
        f"zeta^2 {zeta_sq[i]:.3g} is below the model bound {bounds[i]:.3g} at grid "
        f"point {grid[i]} with truncation {truncs[i]}"
        for i in below
    ]
    non_informative = len(grid) < 2 or any(b == 0.0 for b in bounds)
    if non_informative:
        warnings.append(
            "verdict is non-informative: the grid has fewer than two points "
            "or a model bound is 0"
        )
    return WitnessReport(
        model=model,
        grid=grid,
        truncations=truncs,
        xi_norm_sq_closed=xi_closed,
        zeta_lower_sq=zeta_sq,
        model_bound=bounds,
        pairing_indices=list(spec.pairing_indices),
        pairings=pairings,
        pairing_upper_bounds=None if upper[0] is None else upper,
        verdict=verdict,
        non_informative=non_informative,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# Serialization


def witness_report_rows(report: WitnessReport) -> list[dict]:
    point_name, bound_name, prefix = MODELS[report.model].csv_names
    rows = []
    for i, point in enumerate(report.grid):
        row = {
            point_name: point,
            "L": report.truncations[i],
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
