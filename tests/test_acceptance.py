"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Numeric growth figures for the sweep criterion are pinned in
tests/fixtures/sweep_expected.json, generated by this package's own sweep.
"""

import json
import math
import pathlib
import time

import numpy as np
from scipy import special as sp

from noncompact import analysis, aps, disc, interval, quadrature, specfun

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE {num}] {name}: {status}{suffix}")


def test_criterion_1_disc_elements_match_oracle():
    start = time.perf_counter()
    rule = quadrature.gauss_legendre_unit()
    # Every entry of the assembled compression with n, m, k, l <= 8: both
    # branches on each side, 16 384 entries.
    comp = disc.assemble_disc_compression(8, 8)
    worst = 0.0
    for a, row in enumerate(comp.row_modes):
        for b, col in enumerate(comp.col_modes):
            i, n, k = row.branch, row.angular, row.radial
            j, m, ell = col.branch, col.angular, col.radial
            oracle = quadrature.oracle_disc_element(i, n, k, j, m, ell, rule)
            worst = max(worst, abs(comp.matrix[a, b] - oracle))
    assert comp.matrix.size == 16_384
    # Normalization identity behind the closed forms.
    jv = sp.jv
    norm_worst = 0.0
    for n in range(1, 9):
        for k in range(1, 9):
            alpha = specfun.bessel_zero(n - 1, k)
            value = quadrature.radial_integral(
                lambda r, n=n, a=alpha: jv(n, r * a) ** 2 + jv(n - 1, r * a) ** 2,
                rule,
            )
            norm_worst = max(norm_worst, abs(value - jv(n, alpha) ** 2))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and norm_worst <= 1e-8 and elapsed <= 60.0
    _report(
        1,
        "disc closed forms vs quadrature oracle (n,m,k,l <= 8)",
        ok,
        f"max |closed-oracle| {worst:.2e}, norm identity {norm_worst:.2e}, {elapsed:.1f}s",
    )
    assert worst <= 1e-8
    assert norm_worst <= 1e-8
    assert elapsed <= 60.0


def test_criterion_2_interval_witness_bound():
    start = time.perf_counter()
    grid = (100, 1000, 10000)
    report = analysis.witness_protocol("interval", grid, trunc_factor=10)
    bound = 1.0 / (4.0 * math.pi**2)
    lower_ok = all(z >= bound for z in report.zeta_lower_sq)
    norm_ok = all(
        closed <= 1.01 and abs(closed - m * sp.polygamma(1, m + 1)) <= 1e-12
        for m, closed in zip(grid, report.xi_norm_sq_closed)
    )
    decreasing = all(
        report.pairings[i + 1][j] < report.pairings[i][j]
        for i in range(len(grid) - 1)
        for j in range(len(report.pairing_indices))
    )
    elapsed = time.perf_counter() - start
    ok = lower_ok and norm_ok and decreasing and elapsed <= 120.0
    _report(
        2,
        "interval witness: ||zeta||^2 >= 1/(4 pi^2), bounded norms, decaying pairings",
        ok,
        f"min zeta^2 {min(report.zeta_lower_sq):.4f} vs {bound:.4f}, {elapsed:.1f}s",
    )
    assert lower_ok
    assert norm_ok
    assert decreasing
    assert elapsed <= 120.0


def test_criterion_3_disc_witness_bound():
    start = time.perf_counter()
    grid = (100, 1000)
    report = analysis.witness_protocol("disc", grid, trunc_factor=10)
    bounds = [(n - 1) / (4.0 * n * math.pi**2) for n in grid]
    lower_ok = all(z >= b for z, b in zip(report.zeta_lower_sq, bounds))
    upper_ok = all(
        p <= u
        for row, urow in zip(report.pairings, report.pairing_upper_bounds)
        for p, u in zip(row, urow)
    )
    elapsed = time.perf_counter() - start
    ok = lower_ok and upper_ok and elapsed <= 300.0
    _report(
        3,
        "disc witness: ||zeta||^2 >= (n-1)/(4 n pi^2) with K removed, digamma bounds",
        ok,
        f"zeta^2 {['%.4f' % z for z in report.zeta_lower_sq]}, {elapsed:.1f}s",
    )
    assert lower_ok
    assert upper_ok
    assert elapsed <= 300.0


def test_criterion_4_bessel_zero_bounds():
    table = specfun.BesselZeroTable()
    zeros = specfun.bessel_zeros(0, 500, table)
    band_ok = all(
        math.pi * (k - 0.25) < z < math.pi * (k - 0.125)
        for k, z in enumerate(zeros, start=1)
    )
    increasing = bool(np.all(np.diff(zeros) > 0))
    bracket_ok = True
    for k in range(1, 501):
        alpha, lo, hi = table.entries[(0, k)]
        if not (
            lo < alpha < hi
            and hi - lo <= specfun.ZERO_BRACKET_WIDTH
            and sp.jv(0, lo) * sp.jv(0, hi) < 0
        ):
            bracket_ok = False
    ok = band_ok and increasing and bracket_ok
    _report(
        4,
        "J_0 zeros k<=500 in (pi(k-1/4), pi(k-1/8)) with sign-change brackets",
        ok,
        f"max bracket width {max(hi - lo for _, lo, hi in table.entries.values()):.1e}",
    )
    assert band_ok
    assert increasing
    assert bracket_ok


def test_criterion_5_index_ladder():
    samples = np.linspace(0.05, 0.95, 19)
    ladder_ok = True
    residual_ok = True
    for cut in range(-10, 11):
        dim_plus, dim_minus = aps.aps_kernel_dims(cut)
        if aps.aps_index(cut) != cut or dim_plus - dim_minus != cut:
            ladder_ok = False
        if dim_plus != (cut if cut > 0 else 0) or dim_minus != (
            -cut if cut <= -1 else 0
        ):
            ladder_ok = False
        for n in range(dim_plus):
            check = aps.kernel_function_residual(cut, n, "+", samples)
            residual_ok = residual_ok and check.residual <= 1e-10 and check.boundary_ok
        for n in range(dim_minus):
            check = aps.kernel_function_residual(cut, n, "-", samples)
            residual_ok = residual_ok and check.residual <= 1e-10 and check.boundary_ok
    family = aps.noncompact_extension_kernel_report(32, samples)
    family_ok = max(family) <= 1e-10
    ok = ladder_ok and residual_ok and family_ok
    _report(
        5,
        "index ladder N in [-10,10] and infinite kernel family n <= 32",
        ok,
        f"max family residual {max(family):.1e}",
    )
    assert ladder_ok
    assert residual_ok
    assert family_ok


def test_criterion_6_residual_algebra():
    radii = np.linspace(0.04, 0.96, 47)
    rng = np.random.default_rng(20260824)
    eigen_worst = 0.0
    for _ in range(20):
        mode = disc.DiscMode(
            branch=int(rng.integers(1, 3)),
            angular=int(rng.integers(1, 13)),
            radial=int(rng.integers(1, 13)),
            sign=int(rng.choice([-1, 1])),
        )
        eigen_worst = max(eigen_worst, disc.eigenmode_residual(mode, radii))
    deficiency_worst = max(
        disc.deficiency_residual(n, family, sign, radii)
        for n in range(0, 9)
        for family in (1, 2)
        for sign in (-1, 1)
    )
    counts = disc.eigenvalue_multiplicities(8, 8)
    mult_ok = all(c == 4 for c in counts)
    ok = eigen_worst <= 1e-8 and deficiency_worst <= 1e-8 and mult_ok
    _report(
        6,
        "eigenmode/deficiency residuals <= 1e-8, multiplicity 4",
        ok,
        f"eigen {eigen_worst:.1e}, deficiency {deficiency_worst:.1e}, "
        f"{len(counts)} eigenvalue groups",
    )
    assert eigen_worst <= 1e-8
    assert deficiency_worst <= 1e-8
    assert mult_ok


def test_criterion_7_sweep_properties():
    sizes = (64, 256, 1024, 4096)
    with open(FIXTURES / "sweep_expected.json") as fh:
        expected = json.load(fh)
    nesting_ok = True
    interval_max_increasing = True
    counts_increasing = True
    fixture_ok = True
    for model in analysis.MODELS:
        profile = analysis.compression_sweep(model, sizes=sizes)
        nesting_ok = nesting_ok and analysis.nesting_monotone(profile)
        pinned = expected["models"][model]
        maxima = [float(sv[0]) for sv in profile.singular_values]
        fixture_ok = fixture_ok and np.allclose(maxima, pinned["sv_max"], atol=1e-8)
        fixture_ok = fixture_ok and profile.counts_above == pinned["counts"]
        if model == "interval":
            interval_max_increasing = all(
                b > a for a, b in zip(maxima, maxima[1:])
            )
        counts_05 = [
            row[profile.thresholds.index(0.05)] for row in profile.counts_above
        ]
        if not all(b > a for a, b in zip(counts_05, counts_05[1:])):
            counts_increasing = False
    ok = nesting_ok and interval_max_increasing and counts_increasing and fixture_ok
    _report(
        7,
        "SVD sweep: nesting monotone, sigma_max increasing, counts >= 0.05 increasing",
        ok,
        f"nesting {nesting_ok}, sigma_max(interval) increasing "
        f"{interval_max_increasing}, counts strictly increasing {counts_increasing}, "
        f"fixture match {fixture_ok}",
    )
    assert nesting_ok
    assert interval_max_increasing
    assert fixture_ok
    # Known-red clause: the interval operator has spectrum [0, 1/2] (it is
    # not compact), but its finite sections gain singular values above 0.05
    # only like log N: the counts read 2, 3, 3, 3 here and 4 first at
    # N = 16384, so strict growth across these four sizes does not hold.
    assert counts_increasing


def test_criterion_8_log_scale_ladder():
    # The Hilbert matrix is a section of the Carleman operator 1/(x+y); in
    # log variables a convolution over an interval of length ln N with symbol
    # pi/cosh(pi xi), so Szego-type counting predicts
    # #{sigma >= s} ~ (ln N/pi^2) arccosh(1/(2s)).  The 0.05 counts that
    # criterion 7 finds stalled over 64..4096 do grow on this log-scale
    # ladder.  Measured minus predicted lies in [0.08, 1.22].
    ladder = (2**10, 2**14, 2**18)
    thresholds = (0.05, 0.1, 0.25)
    counts = {}
    for n in ladder:
        sv = interval.interval_singular_values(n)
        counts[n] = [int(np.sum(sv >= s)) for s in thresholds]
    counts_05 = [counts[n][0] for n in ladder]
    increasing = all(b > a for a, b in zip(counts_05, counts_05[1:]))
    excess = [
        c - math.log(n) / math.pi**2 * math.acosh(1.0 / (2.0 * s))
        for n in ladder
        for c, s in zip(counts[n], thresholds)
    ]
    predicted = all(-0.5 <= e <= 1.5 for e in excess)
    _report(
        8,
        "interval counts >= 0.05 increase on N = 2^10, 2^14, 2^18 as (ln N/pi^2) "
        "arccosh(1/(2s))",
        increasing and predicted,
        f"counts >= 0.05 {counts_05}, measured - predicted in "
        f"[{min(excess):.2f}, {max(excess):.2f}]",
    )
    assert counts_05 == [3, 4, 5]
    assert increasing
    assert predicted


def test_criterion_9_disc_log_scale_ladder():
    # With the correction removed, the disc (1,2) block is the Cauchy matrix
    # 1/(alpha_{0,k} + alpha_{0,l}); at alpha_{0,k} ~ pi(k - 1/4) it is a
    # section of 1/(pi(x+y)), in log variables a convolution over an
    # interval of length ln K with symbol 1/cosh(pi xi), so Szego-type
    # counting predicts #{sigma >= s} ~ (ln K/pi^2) arccosh(1/s).  The 0.05
    # counts read 3, 4, 4, 5 on this ladder: they grow, but not at every
    # step.  Measured minus predicted lies in [-0.03, 1.06].
    ladder = (2**10, 2**12, 2**14, 2**16)
    thresholds = (0.05, 0.1, 0.25)
    counts = {}
    for k_max in ladder:
        sv = interval.cauchy_eigenvalues(specfun.bessel_zeros(0, k_max))
        counts[k_max] = [int(np.sum(sv >= s)) for s in thresholds]
    ends_05 = [counts[ladder[0]][0], counts[ladder[-1]][0]]
    excess = [
        c - math.log(k_max) / math.pi**2 * math.acosh(1.0 / s)
        for k_max in ladder
        for c, s in zip(counts[k_max], thresholds)
    ]
    predicted = all(-0.5 <= e <= 1.5 for e in excess)
    _report(
        9,
        "disc (1,2) counts >= 0.05 grow from K = 2^10 to 2^16 as (ln K/pi^2) "
        "arccosh(1/s)",
        ends_05 == [3, 5] and predicted,
        f"counts >= 0.05 {[counts[k][0] for k in ladder]}, measured - predicted "
        f"in [{min(excess):.2f}, {max(excess):.2f}]",
    )
    assert ends_05 == [3, 5]
    assert predicted
