import argparse
import ast
import contextlib
import csv
import dataclasses
import importlib.util
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fresh_zero_table
from noncompact import analysis, cli, disc, interval, specfun

SRC = str(pathlib.Path(interval.__file__).resolve().parents[1])
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


# --- singular values -----------------------------------------------------------


def test_singular_values_rank_one():
    sv = analysis.singular_values(np.array([[1j / (2 * math.pi)]]))
    assert sv.shape == (1,)
    assert sv[0] == pytest.approx(1.0 / (2 * math.pi), abs=1e-15)


def test_singular_values_of_correction_diagonal():
    k = 0.5 / specfun.bessel_zeros(0, 4)
    sv = analysis.singular_values(np.diag(k.astype(complex)))
    np.testing.assert_allclose(sv, 0.5 / specfun.bessel_zeros(0, 4), atol=1e-14)
    np.testing.assert_allclose(
        sv, [0.207915, 0.090578, 0.057779, 0.042404], atol=1e-6
    )


def test_singular_values_phase_invariance():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
    sv = analysis.singular_values(a)
    sv_rot = analysis.singular_values(np.exp(0.3j) * a)
    np.testing.assert_allclose(sv, sv_rot, atol=1e-12)
    # A purely imaginary matrix has the singular values of numpy's own SVD.
    b = 1j * rng.normal(size=(15, 15))
    np.testing.assert_allclose(
        analysis.singular_values(b), np.linalg.svd(b, compute_uv=False), atol=1e-12
    )


def test_singular_values_validation():
    with pytest.raises(ValueError):
        analysis.singular_values(np.ones(3))
    with pytest.raises(ValueError):
        analysis.singular_values(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# --- sweeps ----------------------------------------------------------------------


def test_disc_sweep_dims():
    assert analysis.disc_sweep_dims(64) == (2, 4)
    assert analysis.disc_sweep_dims(256) == (5, 10)
    dims = [2 * n * k for n, k in map(analysis.disc_sweep_dims, (64, 256, 1024, 4096))]
    assert dims == [16, 100, 484, 1936]
    n_max, k_max = analysis.disc_sweep_dims(4096)
    assert 2 * n_max * k_max <= 4096


def test_compression_sweep_small():
    # The disc sizes map to dimensions 4, 16 and 36.
    for model, sizes in (("interval", (8, 16, 32)), ("disc", (8, 32, 72))):
        profile = analysis.compression_sweep(model, sizes=sizes)
        assert profile.model == model
        assert profile.sizes == sorted(set(profile.sizes))
        assert len(profile.singular_values) == 3
        assert analysis.nesting_monotone(profile)
        maxima = [sv[0] for sv in profile.singular_values]
        assert maxima == sorted(maxima)
        for sv, counts in zip(profile.singular_values, profile.counts_above):
            assert np.all(np.diff(sv) <= 0)
            assert counts == [int(np.sum(sv >= t)) for t in profile.thresholds]


def test_sweep_validation():
    with pytest.raises(ValueError):
        analysis.compression_sweep("circle", sizes=(8, 16))
    with pytest.raises(ValueError):
        analysis.compression_sweep("interval", sizes=(16, 8))
    with pytest.raises(ValueError):
        analysis.compression_sweep("disc", sizes=(0, 5))
    # A float or bool size is refused by name, not rounded to a dimension.
    for model in analysis.MODELS:
        with pytest.raises(ValueError, match="size 8.5 is not an integer"):
            analysis.compression_sweep(model, sizes=(8.5,))
        with pytest.raises(ValueError, match="size True is not an integer"):
            analysis.compression_sweep(model, sizes=(True, 8))


def test_disc_sweep_rejects_repeated_dims():
    # Sizes 8 and 16 both map to (n_max, k_max) = (1, 2).
    assert analysis.disc_sweep_dims(8) == analysis.disc_sweep_dims(16)
    with pytest.raises(ValueError, match="distinct disc dimensions"):
        analysis.compression_sweep("disc", sizes=(8, 16))
    assert analysis.compression_sweep("interval", sizes=(8, 16)).sizes == [8, 16]


def test_interval_sweep_beyond_dense_size():
    # 16384 x 16384 was refused by the dense allocation guard.
    profile = analysis.compression_sweep("interval", sizes=(4096, 16384))
    assert profile.sizes == [4096, 16384]
    counts_05 = [row[profile.thresholds.index(0.05)] for row in profile.counts_above]
    assert counts_05 == [3, 4]
    maxima = [sv[0] for sv in profile.singular_values]
    assert maxima[0] < maxima[1]
    assert analysis.nesting_monotone(profile)


def test_disc_sweep_fills_the_zeros_once(monkeypatch, zero_table):
    # Largest size first: one descending fill of the Bessel-zero table, 22
    # Newton batches where ascending sizes take 40, with the same spectra.
    sizes = (64, 256, 1024, 4096)
    alone = []
    for size in sizes:
        with fresh_zero_table():
            alone.append(analysis.MODELS["disc"].sweep_spectrum(size))
    newton = specfun._newton_in_intervals
    calls = []

    def counting(*args):
        calls.append(args[0])
        return newton(*args)

    monkeypatch.setattr(specfun, "_newton_in_intervals", counting)
    profile = analysis.compression_sweep("disc", sizes)
    assert len(calls) == 22
    for got, want in zip(profile.singular_values, alone, strict=True):
        assert got.tobytes() == want.tobytes()


def test_sweep_spectra_keep_clear_of_the_thresholds():
    # The sweep counts compare each singular value with SWEEP_THRESHOLDS.  A
    # value within a few ulps of a threshold would make its count depend on
    # the rounding of the solver (cauchy_eigenvalues errs by up to 9.8 ulps
    # at equal-node ties), so the counts pinned at the default sizes (the
    # fixture and the benchmark gate) hold only while every value keeps clear
    # of them; the smallest gap is 2.15e-5, on the disc at 4096 (1936 modes)
    # and threshold 0.01.
    sizes = cli.build_parser().parse_args(["sweep"]).sizes
    gaps = []
    for model in analysis.MODELS.values():
        for size in sizes:
            sv = model.sweep_spectrum(size)
            for t in analysis.SWEEP_THRESHOLDS:
                gaps.append(np.min(np.abs(sv - t)))
    assert min(gaps) >= 1e-6


# --- structured spectra against the dense oracle -----------------------------------


def _assert_matches_dense(sv: np.ndarray, matrix: np.ndarray) -> None:
    dense = analysis.singular_values(matrix)
    assert sv.shape == dense.shape
    assert np.all(np.diff(sv) <= 0)
    np.testing.assert_allclose(sv, dense, rtol=0, atol=1e-12)
    for t in analysis.SWEEP_THRESHOLDS:
        assert np.sum(sv >= t) == np.sum(dense >= t)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 512))
@example(n=1)
@example(n=512)
def test_interval_singular_values_match_dense(n):
    _assert_matches_dense(
        interval.interval_singular_values(n),
        interval.assemble_interval_compression(n, n).matrix,
    )


@st.composite
def _disc_dims(draw):
    # At most 2 * n_max * k_max = 512 modes.
    n_max = draw(st.integers(1, 16))
    return n_max, draw(st.integers(1, 256 // n_max))


@settings(max_examples=30, deadline=None)
@given(dims=_disc_dims())
@example(dims=(1, 1))
@example(dims=(11, 22))
@example(dims=(16, 16))
def test_disc_singular_values_match_dense(dims):
    n_max, k_max = dims
    matrix = disc.assemble_disc_compression(n_max, k_max).matrix
    # Remove the correction 1/(2 alpha_{0,k}) from the diagonal of the
    # (1,1)<-(2,1) block: rows (1,1,k), columns (2,1,ell).
    trace = matrix[:k_max, n_max * k_max : n_max * k_max + k_max]
    trace -= np.diag(0.5 / specfun.bessel_zeros(0, k_max))
    _assert_matches_dense(disc.disc_singular_values(n_max, k_max), matrix)


def _cauchy_eigenvalues_40_digits(x):
    # c copies of a node u act as one node of weight c: the eigenvalues are
    # those of sqrt(c_i c_j) / (u_i + u_j) and len(x) - len(u) zeros, so
    # repeated nodes do not grow the 40-digit matrix.
    u, c = np.unique(x, return_counts=True)
    with mpmath.workdps(40):
        m = mpmath.matrix(
            [[mpmath.sqrt(int(a * b)) / (mpmath.mpf(v) + w) for w, b in zip(u, c)]
             for v, a in zip(u, c)]
        )
        e = [float(v) for v in mpmath.eigsy(m, eigvals_only=True)]
    return np.sort(np.concatenate([e, np.zeros(len(x) - len(u))]))[::-1]


@settings(max_examples=50, deadline=None)
@given(x=st.lists(st.floats(0.1, 1e4), min_size=1, max_size=300))
@example(x=[0.1] * 300)
@example(x=[0.1, 0.1 + 1e-9, 7.0, 1e4])
@example(x=[8.0] * 4)
@example(x=[6.0] * 3)
@example(x=[50.0])
def test_cauchy_eigenvalues_match_dense(x):
    # Drawn nodes, unlike the interval's i + 1/2, form no arithmetic
    # progression and may repeat.  Both solvers err by a multiple of
    # eps * ||C||, and ||C|| reaches 300 / (2 * 0.1) here: nodes clustered
    # at 0.1 with n near 300 gave Cholesky errors up to 5.9e-12 at
    # ||C|| = 1425, so the tolerance is 1e-12 relative to max(1, ||C||).
    x = np.array(x)
    got = interval.cauchy_eigenvalues(x)
    dense = np.linalg.eigvalsh(1.0 / (x[:, None] + x))[::-1]
    assert got.shape == dense.shape
    assert np.all(np.diff(got) <= 0)
    atol = 1e-12 * max(1.0, dense[0])
    np.testing.assert_allclose(got, dense, rtol=0, atol=atol)
    # Counts above a threshold t must equal eigvalsh's, unless an eigenvalue
    # lies within atol of t.  n equal nodes v give the single eigenvalue
    # n / (2v), which sits on t for [8.0] * 4, [6.0] * 3 (0.25) and [50.0]
    # (1/100, against the float 0.01); both solvers then land a few ulps to
    # either side ([50.0]: eigvalsh on 0.01, Cholesky one ulp above).  There
    # the oracle is a 40-digit spectrum: eigenvalues within atol of t must
    # match it to tie = 64 eps max(1, ||C||) (against exact rationals the
    # Cholesky path errs by at most 9.8 ulps, 1.25 eps max(1, ||C||), on the
    # 3300 equal-node ties: n <= 300 nodes at v = n / (2t) <= 1e4 and at its
    # two float neighbours, for each t), and the count may differ from the
    # exact one only by eigenvalues within tie of t.
    tie = 64 * np.finfo(float).eps * max(1.0, dense[0])
    for t in analysis.SWEEP_THRESHOLDS:
        count = np.sum(got >= t)
        if not np.any(np.abs(dense - t) <= atol):
            assert count == np.sum(dense >= t)
            continue
        exact = _cauchy_eigenvalues_40_digits(x)
        near = np.abs(exact - t) <= atol
        np.testing.assert_allclose(got[near], exact[near], rtol=0, atol=tie)
        assert np.sum(exact >= t + tie) <= count <= np.sum(exact > t - tie)


@pytest.mark.parametrize(
    "x, max_rank",
    [
        # An absolute stop constant ran these to rank 175 and 154.
        (np.geomspace(0.1, 1e4, 300), 64),
        (0.1 + np.arange(300) * 1e-9, 4),
    ],
    ids=["log-uniform", "clustered"],
)
def test_cauchy_eigenvalues_stop_relative_to_the_trace(x, max_rank):
    eig = interval.cauchy_eigenvalues(x)
    assert np.count_nonzero(eig) <= max_rank
    # The dropped residual trace is at most eps * tr(C) (Weyl).
    dense = np.linalg.eigvalsh(1.0 / (x[:, None] + x))[::-1]
    np.testing.assert_allclose(eig, dense, rtol=0, atol=1e-12 * dense[0])


def _alpha_0k(k_max):
    # Evaluated at collection, so it must leave specfun's table cold.
    with fresh_zero_table():
        return specfun.bessel_zeros(0, k_max)


@pytest.mark.parametrize(
    "x",
    [
        np.arange(64) + 0.5,
        _alpha_0k(64),
        np.geomspace(0.1, 1e4, 60),
        0.1 + np.arange(40) * 1e-9,
    ],
    ids=["hilbert", "alpha0k", "log-uniform", "clustered"],
)
def test_cauchy_eigenvalues_match_40_digits(x):
    # Measured: at most 1.9 eps ||C|| on these sets.  A column update that
    # subtracts every earlier factor row errs by 14.2 eps ||C|| on the
    # clustered one.
    exact = _cauchy_eigenvalues_40_digits(x)
    err = np.max(np.abs(interval.cauchy_eigenvalues(x) - exact))
    assert err <= 8 * np.finfo(float).eps * exact[0]


def test_cauchy_eigenvalues_validation():
    for x in ([], [1.0, 0.0], [1.0, np.inf], [[1.0]]):
        with pytest.raises(ValueError, match="positive nodes"):
            interval.cauchy_eigenvalues(np.array(x))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "x", [[1e-310, 1.0], [1e308], np.full(10, 1e-308)], ids=["1/2x", "x+x", "trace"]
)
def test_cauchy_eigenvalues_refuse_overflowing_nodes(x):
    # A subnormal node overflows 1/(2x), a huge one x + x, and ten nodes of
    # 1e-308 the trace; each is refused before numpy warns.
    with pytest.raises(ValueError, match="must be finite"):
        interval.cauchy_eigenvalues(np.array(x))


# --- witness protocol -------------------------------------------------------------


def test_witness_protocol_interval_small_grid():
    report = analysis.witness_protocol("interval", (20, 60))
    assert report.model == "interval"
    assert report.truncations == [1000, 1000]
    assert not report.non_informative
    assert all(z >= b for z, b in zip(report.zeta_lower_sq, report.model_bound))
    for j in range(len(report.pairing_indices)):
        assert report.pairings[1][j] < report.pairings[0][j]


def test_witness_protocol_singleton_grid_non_informative():
    report = analysis.witness_protocol("interval", (50,))
    assert report.non_informative
    # The boundedness and lower-bound premises alone still pass.
    assert report.verdict == "pass"


def test_cli_reports_non_informative(capsys):
    # The disc model bound (n-1)/(4 n pi^2) is 0 at n = 1, and one grid point
    # cannot show decay: the verdict passes but says nothing.
    report = analysis.witness_protocol("disc", (1,))
    assert report.non_informative
    assert cli.main(["disc", "--grid", "1"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verdict"] == "pass"
    assert captured.err.splitlines() == [f"warning: {w}" for w in report.warnings]
    assert "non-informative" in captured.err


def _raise_bound(monkeypatch, model: str, bound: float) -> None:
    # The protocol reads the bound from the MODELS entry at call time.
    raised = dataclasses.replace(analysis.MODELS[model], bound=lambda point: bound)
    monkeypatch.setitem(analysis.MODELS, model, raised)


def test_witness_protocol_truncation_warning(monkeypatch):
    # L = 10000 terms at m = 1000 truncate only zeta; the boundedness premise
    # reads the full xi norm: no warning while zeta clears the bound.
    report = analysis.witness_protocol("interval", (1000,))
    assert report.verdict == "pass"
    assert not any("zeta" in w for w in report.warnings)
    # A bound above zeta^2 fails the premise, and the warning names the point
    # and the truncation.
    _raise_bound(monkeypatch, "interval", 10.0)
    report = analysis.witness_protocol("interval", (1000, 2000))
    assert report.verdict == "fail"
    assert report.warnings == [
        f"zeta^2 {z:.3g} is below the model bound 10 at grid point {point} with "
        f"truncation {10 * point}"
        for point, z in zip((1000, 2000), report.zeta_lower_sq)
    ]
    # A bound between the two points' zeta^2 (0.111818 and 0.111950 at
    # L = 10000 and 20000) fails the verdict, and only the point below it is
    # warned.
    low, high = report.zeta_lower_sq
    assert low < 0.1119 < high
    _raise_bound(monkeypatch, "interval", 0.1119)
    report = analysis.witness_protocol("interval", (1000, 2000))
    assert report.verdict == "fail"
    assert report.warnings == [
        f"zeta^2 {low:.3g} is below the model bound 0.112 at grid point 1000 with "
        "truncation 10000"
    ]


@pytest.mark.parametrize(
    "model, points, margin",
    [("interval", (1, 2, 100, 10**4), 3.0), ("disc", (2, 100, 3000), 15.0)],
)
def test_truncation_rule_keeps_zeta_clear_of_the_bound(model, points, margin):
    # The fixed rule L = max(10 point, 1000) keeps the truncated zeta^2 well
    # above the model bound: measured at least 3.27 times on the interval
    # (lowest at m = 1) and 16.9 times on the disc (lowest at n = 100).
    for point in points:
        report = analysis.witness_protocol(model, (point,))
        assert report.zeta_lower_sq[0] >= margin * report.model_bound[0], point


@pytest.mark.parametrize(
    "model, slot",
    [("interval", "xi"), ("interval", "zeta"), ("interval", "pairing"), ("disc", "upper")],
)
def test_witness_protocol_fails_on_a_nan(monkeypatch, model, slot):
    # Each premise is phrased so that a NaN fails it: one NaN at the last grid
    # point of a passing run fails the verdict.  The interval model has no
    # upper bounds, so there a NaN pairing meets only the decay premise.
    spec, nan = analysis.MODELS[model], float("nan")

    def witness(point):
        return nan if (slot, point) == ("xi", 1000) else spec.witness(point)

    def image(point, trunc, indices):
        values = dict(zip(("zeta", "pairing", "upper"), spec.image(point, trunc, indices)))
        if point == 1000 and slot in values:
            values[slot] = nan if slot == "zeta" else [*values[slot][:-1], nan]
        return values["zeta"], values["pairing"], values["upper"]

    assert analysis.witness_protocol(model, (100, 1000)).verdict == "pass"
    nan_model = dataclasses.replace(spec, witness=witness, image=image)
    monkeypatch.setitem(analysis.MODELS, model, nan_model)
    assert analysis.witness_protocol(model, (100, 1000)).verdict == "fail"


def test_witness_protocol_validation():
    with pytest.raises(ValueError):
        analysis.witness_protocol("circle", (10,))
    with pytest.raises(ValueError):
        analysis.witness_protocol("interval", ())
    for grid in ((1000, 100), (100, 100), (5, 10, 10)):
        with pytest.raises(ValueError, match="strictly increasing"):
            analysis.witness_protocol("disc", grid)
    for grid in ((0, 5), (-3,)):
        with pytest.raises(ValueError, match="grid points must be >= 1"):
            analysis.witness_protocol("interval", grid)
    # Non-integers, bool included, are refused by name, not run at a float
    # truncation or as grid point 1.
    for model in analysis.MODELS:
        with pytest.raises(ValueError, match="grid point 1000.0 is not an integer"):
            analysis.witness_protocol(model, (100, 1000.0))
        with pytest.raises(ValueError, match="grid point True is not an integer"):
            analysis.witness_protocol(model, (True, 1000))
    # Numpy integers are accepted and reported as Python ints.
    report = analysis.witness_protocol("interval", (np.int64(100), np.int64(1000)))
    assert [type(point) for point in report.grid] == [int, int]
    dumped = json.dumps(analysis.witness_report_dict(report))
    assert json.loads(dumped)["grid"] == [100, 1000]


def test_disc_protocol_runs_one_bracket_per_grid_point(monkeypatch):
    # One bracket over k = 1..3 per grid point gives the upper ends at every
    # pairing index, the same values as a bracket per index.
    bracket = disc.disc_image_bracket
    calls = []

    def counting(n, k_rows):
        calls.append((n, k_rows))
        return bracket(n, k_rows)

    monkeypatch.setattr(disc, "disc_image_bracket", counting)
    report = analysis.witness_protocol("disc", (100, 1000))
    assert calls == [(100, 3), (1000, 3)]
    assert report.pairing_upper_bounds == [
        [float(bracket(n, k)[1][-1]) for k in (1, 2, 3)] for n in (100, 1000)
    ]
    assert analysis.witness_protocol("interval", (100, 1000)).pairing_upper_bounds is None


# --- serialization -----------------------------------------------------------------


@pytest.mark.parametrize(
    "model, header",
    [
        (
            "interval",
            "m,L,xi_norm_sq_closed,zeta_norm_lower_sq,bound_1_over_4pi2,"
            "pairing_p0,pairing_p1,pairing_p5,verdict",
        ),
        (
            "disc",
            "n,L,xi_norm_sq_closed,zeta_norm_lower_sq,bound_paper,"
            "pairing_k1,pairing_k2,pairing_k3,verdict",
        ),
    ],
    ids=["interval", "disc"],
)
def test_witness_report_rows_schema(model, header):
    # The truncation is one column, L, on both models.
    report = analysis.witness_protocol(model, (20, 60))
    rows = analysis.witness_report_rows(report)
    assert ",".join(rows[0]) == header
    assert cli._rows_to_csv_text(rows).splitlines()[0] == header
    assert [row["L"] for row in rows] == report.truncations


@pytest.mark.parametrize("model", ["interval", "disc"])
def test_csv_carries_every_pairing_the_verdict_reads(capsys, model):
    # One pairing column per pairing index, and at every grid point those
    # columns equal the JSON pairings that the decay premise reads.
    argv = [model, "--grid", "100,1000"]
    assert cli.main(argv) == 0
    pairings = json.loads(capsys.readouterr().out)["pairings"]
    assert cli.main([*argv, "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    columns = [column for column in rows[0] if column.startswith("pairing_")]
    assert len(columns) == len(analysis.MODELS[model].pairing_indices)
    assert [[float(row[column]) for column in columns] for row in rows] == pairings


def test_sweep_report_dict_round_trips():
    profile = analysis.compression_sweep("interval", sizes=(8, 16))
    loaded = json.loads(json.dumps(analysis.sweep_report_dict(profile)))
    assert loaded["model"] == "interval"
    assert loaded["sizes"] == [8, 16]
    assert "witness" not in loaded
    assert len(loaded["sv"][0]) == 8


# --- CLI ------------------------------------------------------------------------


def test_cli_index_default(capsys):
    assert cli.main(["index"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "N,dim_plus,dim_minus,index"
    assert len(rows) == 22


def test_cli_index_json(capsys):
    assert cli.main(["index", "--grid=-2,0,3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [row["index"] for row in data] == [-2, 0, 3]


def test_cli_interval_json(tmp_path):
    out = tmp_path / "interval.json"
    code = cli.main(["interval", "--grid", "20,60", "--out", str(out)])
    data = json.loads(out.read_text())
    assert data["grid"] == [20, 60]
    assert code == (0 if data["verdict"] == "pass" else 1)


@pytest.mark.parametrize("model", ["interval", "disc"])
def test_cli_refuses_trunc_factor(capsys, model):
    # The truncation is a fixed rule, not an option: the flag is unknown.
    assert cli.main([model, "--trunc-factor", "7"]) == 2
    assert capsys.readouterr().out == ""


def test_cli_interval_csv(capsys):
    code = cli.main(["interval", "--grid", "20,60", "--format", "csv"])
    assert code in (0, 1)
    assert capsys.readouterr().out.startswith("m,L,xi_norm_sq_closed,")


def test_cli_sweep(tmp_path):
    out = tmp_path / "sweep.json"
    assert cli.main(["sweep", "--sizes", "8,32", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert [d["model"] for d in data] == ["interval", "disc"]


def test_cli_sweep_csv_below_eight_singular_values(capsys):
    # Every row has the columns sv1..sv8; a size with fewer singular values
    # leaves the last cells blank.
    assert cli.main(["sweep", "--sizes", "4,64", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split(",")
    assert header[-8:] == [f"sv{j}" for j in range(1, 9)]
    assert [len(line.split(",")) for line in lines] == [len(header)] * 5
    assert lines[1].startswith("interval,4,") and lines[1].endswith(",,,,")


def test_readme_cli_block_runs(tmp_path):
    # The four invocations of the README's CLI section, run as written from a
    # fresh directory: each exits 0, and writes its documented --out file or
    # else its report to stdout.
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    commands = [line.split() for line in lines if line.startswith("noncompact ")]
    assert len(commands) == 4
    for argv in commands:
        run = _run_python("-m", *argv, cwd=tmp_path)
        assert run.returncode == 0, (argv, run.stderr)
        if "--out" in argv:
            out = tmp_path / argv[argv.index("--out") + 1]
            assert run.stdout == "" and out.read_text(), argv
            if out.suffix == ".json":
                json.loads(out.read_text())
        else:
            assert run.stdout, argv


def test_readme_cli_flags_are_accepted():
    # Every --flag the README's CLI section names is an option of the parser,
    # at top level or of some subcommand, so a removed flag cannot linger in
    # the docs.
    parser = cli.build_parser()
    (subcommands,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    accepted = {
        flag
        for p in (parser, *subcommands.choices.values())
        for action in p._actions
        for flag in action.option_strings
    }
    section = README.read_text().split("## CLI", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert {"--grid", "--threads", "--out"} <= named
    assert named <= accepted, named - accepted


def test_readme_cli_gives_one_witness_cap():
    # The README's CLI section gives the grid-point cap that the term limit
    # sets, MAX_WITNESS_TERMS // TRUNC_FACTOR, in one sentence for both
    # models, and no other cap on a grid point, so a model-only cap cannot
    # linger in the docs.
    cap = analysis.MAX_WITNESS_TERMS // analysis.TRUNC_FACTOR
    section = README.read_text().split("## CLI", 1)[1].split("\n## ", 1)[0]
    text = " ".join(section.split())
    caps = re.findall(r"grid points? (?:up to|of) (\d{1,3}(?: \d{3})*)", text)
    assert [int(c.replace(" ", "")) for c in caps] == [cap]
    (sentence,) = [s for s in text.split(". ") if caps[0] in s]
    assert "`interval`" in sentence and "`disc`" in sentence


def test_cli_config_errors(capsys, tmp_path, monkeypatch):
    missing = str(tmp_path / "missing")
    assert cli.main(["sweep", "--sizes", "16,8"]) == 2
    assert cli.main(["sweep", "--sizes", "0,5"]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("error:")
    assert cli.main(["sweep", "--sizes", "8,16"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert cli.main(["interval", "--grid", "0,5"]) == 2
    capsys.readouterr()

    def no_spectrum(size):
        raise AssertionError("a sweep spectrum ran before a configuration error")

    # The sweep refuses a size above the limit before the interval spectrum,
    # which the CLI computes first, also when the smaller sizes are valid.
    monkeypatch.setattr(interval, "interval_singular_values", no_spectrum)
    monkeypatch.setattr(disc, "disc_singular_values", no_spectrum)
    too_big = analysis.MAX_SWEEP_SIZE + 1
    for sizes in (f"{too_big}", f"64,{too_big}"):
        assert cli.main(["sweep", "--sizes", sizes]) == 2, sizes
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: sizes must lie in [1, {too_big - 1}]\n"
    assert cli.main(["bogus"]) == 2
    capsys.readouterr()
    # Every comma-separated item must be an integer; an empty one is not.
    for argv in (
        ["interval", "--grid", "abc"],
        ["disc", "--grid", "100,,1000"],
        ["interval", "--grid", ",100"],
        ["sweep", "--sizes", "64,"],
        ["sweep", "--sizes", ""],
    ):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected comma-separated integers" in captured.err, argv

    def no_sum(*args, **kwargs):
        raise AssertionError("a witness sum ran before a configuration error")

    # The models look these up on their modules at call time.
    monkeypatch.setattr(interval, "interval_witness", no_sum)
    monkeypatch.setattr(interval, "interval_image_coefficients", no_sum)
    monkeypatch.setattr(disc, "disc_image_coefficients", no_sum)
    for argv in (["disc", "--grid", "1000,100"], ["interval", "--grid", "100,100"]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: grid must be strictly increasing\n"
    # A truncation past the term limit is refused before numpy is asked for an
    # image sum of that length, also just above the limit; the error names the
    # grid point and its truncation.
    above = analysis.MAX_WITNESS_TERMS // analysis.TRUNC_FACTOR + 1
    for grid in ("5,4000000", f"{above}"):
        assert cli.main(["interval", "--grid", grid]) == 2
        captured = capsys.readouterr()
        point = int(grid.split(",")[-1])
        assert captured.out == ""
        assert captured.err == (
            f"error: grid point {point} (truncation {10 * point}): exceeds "
            f"{analysis.MAX_WITNESS_TERMS} witness terms\n"
        )
    # The protocol refuses a bad grid; an existing --out file is kept.
    existing = tmp_path / "existing.json"
    existing.write_text("kept\n")
    bad_inputs = (
        ["interval", "--grid=0,10"],
        ["interval", "--grid=-3"],
        ["interval", "--grid=0,10", "--out", str(existing)],
    )
    for argv in bad_inputs:
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: grid points must be >= 1"), argv
    assert existing.read_text() == "kept\n"
    unwritable = (
        ["disc", "--grid", "10", "--out", os.path.join(missing, "x.json")],
        ["disc", "--grid", "100,1000,3000", "--out", os.path.join(missing, "x.json")],
        ["disc", "--out", str(tmp_path)],
        ["index", "--out", os.path.join(missing, "x.csv")],
    )

    def no_protocol(*args, **kwargs):
        raise AssertionError("witness_protocol ran before a configuration error")

    monkeypatch.setattr(analysis, "witness_protocol", no_protocol)
    for argv in unwritable:
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --out: "), argv
    assert not os.path.exists(missing)


def test_cli_grid_beyond_sign_change_brackets(capsys, zero_table):
    # 10 * 8400 rows reach beyond rank 83 443 of J_0, past 2^18, where no
    # float bracket of width ZERO_BRACKET_WIDTH holds a zero.  The witness
    # sums take the first 64 zeros only, so the one witness limit is the term
    # limit, the same for both models.
    assert cli.main(["disc", "--grid", "100,8400"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
    assert {n: rows.shape[1] for n, rows in zero_table.rows.items()} == {0: 64}
    point = analysis.MAX_WITNESS_TERMS // analysis.TRUNC_FACTOR + 1
    assert cli.main(["disc", "--grid", str(point)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: grid point {point} (truncation {10 * point}): exceeds "
        f"{analysis.MAX_WITNESS_TERMS} witness terms\n"
    )


def test_cli_raises_a_failed_sign_check(capsys, monkeypatch, zero_table):
    # A storable zero that fails its sign check is a fault of the program, not
    # bad input: cli.main raises BracketError rather than exit with code 2.
    monkeypatch.setattr(specfun, "J_SIGN_MARGIN", 1e12)
    with pytest.raises(specfun.BracketError):
        cli.main(["disc", "--grid", "5"])
    assert capsys.readouterr().out == ""


def _grid_arg(points):
    # The = form keeps a leading minus sign from reading as an option.
    return "--grid=" + ",".join(map(str, points))


_GRID_BELOW_ONE = st.lists(st.integers(-(10**6), 10**6), max_size=3).flatmap(
    lambda rest: st.integers(-(10**6), 0).flatmap(
        lambda low: st.permutations([low, *rest])
    )
)
_GRID_NOT_INCREASING = st.lists(st.integers(1, 10**6), min_size=2, max_size=4).filter(
    lambda grid: grid != sorted(set(grid))
)
# A grid holding a point whose truncation exceeds the term limit.
_GRID_ABOVE_LIMIT = st.lists(st.integers(1, 10**6), max_size=3).flatmap(
    lambda rest: st.integers(
        analysis.MAX_WITNESS_TERMS // analysis.TRUNC_FACTOR + 1, 10**12
    ).map(lambda high: sorted({high, *rest}))
)
_BAD_WITNESS = st.one_of(_GRID_BELOW_ONE, _GRID_NOT_INCREASING, _GRID_ABOVE_LIMIT)


def _sizes_one_disc_dimension(n_max):
    # Every size in [8 n_max^2, 8 (n_max + 1)^2) maps to n_max (sizes below 8
    # map to n_max = 1 too).
    low, high = (1 if n_max == 1 else 8 * n_max**2), 8 * (n_max + 1) ** 2 - 1
    return st.lists(st.integers(low, high), min_size=2, max_size=3, unique=True)


_BAD_SIZES = st.one_of(
    st.lists(st.integers(1, 2**20), max_size=3).flatmap(
        lambda rest: st.one_of(
            st.integers(max_value=0), st.integers(min_value=2**20 + 1)
        ).map(lambda out: sorted({out, *rest}))
    ),
    st.integers(1, 361).flatmap(_sizes_one_disc_dimension).map(sorted),
)


@settings(max_examples=150, deadline=None)
@given(
    argv=st.one_of(
        st.tuples(st.sampled_from(["interval", "disc"]), _BAD_WITNESS).map(
            lambda t: [t[0], _grid_arg(t[1])]
        ),
        _BAD_SIZES.map(lambda sizes: ["sweep", "--sizes=" + ",".join(map(str, sizes))]),
    ),
    csv_format=st.booleans(),
)
@example(argv=["disc", "--grid=0,5"], csv_format=False)
@example(argv=["interval", "--grid=10,3355444"], csv_format=False)
@example(argv=["sweep", "--sizes=8,16"], csv_format=False)
def test_cli_refuses_bad_input_before_any_work(argv, csv_format):
    # Every rule on the input the CLI can reach has one owner (witness_protocol
    # or compression_sweeps), which raises ValueError before the work it
    # guards; cli.main turns that into exit code 2 and one error line.  No
    # Bessel zero is computed either: the witness sums ask specfun for 64
    # ranks of J_0 and sweep for at most 1085.
    def no_work(*args, **kwargs):
        raise AssertionError("a witness sum or a sweep spectrum ran on bad input")

    argv = argv + ["--format", "csv"] if csv_format else argv
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        for module, name in (
            (interval, "interval_witness"),
            (interval, "interval_image_coefficients"),
            (interval, "interval_singular_values"),
            (disc, "disc_image_coefficients"),
            (disc, "disc_image_bracket"),
            (disc, "disc_singular_values"),
            (specfun, "bessel_zeros"),
        ):
            mp.setattr(module, name, no_work)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code == 2, argv
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)


def _benchmark_gates():
    gates_py = PERFBENCH / "gates.py"
    spec = importlib.util.spec_from_file_location("perfbench_gates", gates_py)
    gates = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gates)
    return gates


def test_cli_witness_reports_pass_the_benchmark_gate(capsys):
    # The benchmark's witness gate: verdict 'pass' and every value within 1e-8
    # of perfbench/reference/witness.json.  Only reads perfbench/.  These
    # grids clear the bound everywhere, so nothing is warned.
    gates = _benchmark_gates()
    reference = json.loads((PERFBENCH / "reference" / "witness.json").read_text())
    for argv in (["interval"], ["disc", "--grid", "100,1000,3000"]):
        code = cli.main([*argv, "--format", "json"])
        captured = capsys.readouterr()
        assert gates.witness_report(code, captured.out, reference[argv[0]]) == [], argv
        assert captured.err == "", argv


def test_cli_sweep_passes_the_benchmark_gate(capsys):
    # The benchmark's sweep gate on the default sizes 64..4096: sizes,
    # thresholds and counts exact, the top singular values within 1e-8 of
    # tests/fixtures/sweep_expected.json.  Only reads perfbench/.
    fixture = pathlib.Path(__file__).parent / "fixtures" / "sweep_expected.json"
    code = cli.main(["sweep"])
    stdout = capsys.readouterr().out
    gates = _benchmark_gates()
    assert gates.sweep(code, stdout, json.loads(fixture.read_text())) == []


def test_cli_threads_flag(capsys):
    assert cli.main(["--threads", "1", "index", "--grid", "1"]) == 0
    assert cli.main(["--threads", "0", "index"]) == 2


def test_cli_writes_protocol_warnings(capsys, monkeypatch):
    # Default runs clear the bound and warn about nothing; a raised bound
    # fails the verdict with one warning per grid point.
    for model in list(analysis.MODELS):
        for raised in (False, True):
            if raised:
                _raise_bound(monkeypatch, model, 10.0)
            report = analysis.witness_protocol(model, (100, 200))
            assert len(report.warnings) == (2 if raised else 0)
            assert report.verdict == "fail" or not raised
            code = cli.main([model, "--grid", "100,200"])
            assert code == (0 if report.verdict == "pass" else 1)
            captured = capsys.readouterr()
            warned = [f"warning: {w}" for w in report.warnings]
            assert captured.err.splitlines() == warned
            assert json.loads(captured.out) == analysis.witness_report_dict(report)


def _run_python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_threads_flag_precedes_numpy():
    # --threads sets the BLAS thread variables, which numpy reads only when it
    # loads, so importing the package must not load it.
    probe = _run_python("-c", "import sys, noncompact; print('numpy' in sys.modules)")
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "False"
    run = _run_python("-m", "noncompact.cli", "--threads", "1", "index")
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("N,dim_plus,dim_minus,index")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
@pytest.mark.parametrize(
    "argv", [["sweep", "--sizes", "64,256"], ["disc", "--grid", "100,1000"]]
)
def test_threads_flag_leaves_one_os_thread(argv):
    # The BLAS libraries of numpy and scipy start their thread pools when
    # they load.  Measured on 2 cores: 1 OS thread at the end of either run
    # with --threads 1, 3 without the flag.  The probe drops inherited thread
    # variables first, so only the flag can cap the pools.
    probe = (
        "import os, sys; "
        "[os.environ.pop(v, None) for v in "
        "('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS')]; "
        "from noncompact import cli; "
        "code = cli.main(sys.argv[1:] + ['--out', os.devnull]); "
        "print(code, len(os.listdir('/proc/self/task')))"
    )
    run = _run_python("-c", probe, "--threads", "1", *argv)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0", "1"]


@pytest.mark.skipif(
    not hasattr(os, "wait4") or not sys.platform.startswith("linux"),
    reason="needs os.wait4 and ru_maxrss in KiB",
)
def test_witness_term_limit_memory_claim():
    # The comment on analysis.MAX_WITNESS_TERMS: peak RSS of `MODEL --grid
    # N/10` grows linearly in the N terms.  The interval takes 16 bytes per
    # term (measured at 1e6, 4e6 and 1.6e7 terms), 0.53 GiB at the limit by
    # linear extrapolation; the disc 72 bytes per term (measured at 2.5e5,
    # 1e6 and 4e6), 2.3 GiB at the limit.  Per model: the two term counts,
    # the bound on the slope and on the peak at the limit.
    claims = {
        "interval": ((10**6, 4 * 10**6), 24, 3 * 2**28),
        "disc": ((25 * 10**4, 10**6), 90, 3 * 2**30),
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    for model, (counts, max_slope, max_at_limit) in claims.items():
        peak = {}
        for terms in counts:
            argv = [model, "--grid", str(terms // analysis.TRUNC_FACTOR)]
            proc = subprocess.Popen(
                [sys.executable, "-m", "noncompact", *argv, "--out", os.devnull],
                env=env,
                stderr=subprocess.DEVNULL,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0, argv
            peak[terms] = usage.ru_maxrss * 1024  # KiB on Linux
        low, high = counts
        slope = (peak[high] - peak[low]) / (high - low)
        at_limit = peak[low] + slope * (analysis.MAX_WITNESS_TERMS - low)
        assert slope < max_slope, (model, slope)
        assert at_limit < max_at_limit, (model, at_limit)


def test_python_dash_m_runs_the_cli():
    run = _run_python("-m", "noncompact", "index")
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("N,dim_plus,dim_minus,index\n")


def test_subcommands_import_only_what_they_use():
    # `index` loads no numpy, and `interval`, `disc` and `sweep` no scipy:
    # their pair_sums and the zeros of every J_n, sign checks included, are
    # numpy.
    probe = (
        "import os, sys; from noncompact import cli; "
        "code = cli.main(sys.argv[1:] + ['--out', os.devnull]); "
        "print(code, *(name in sys.modules for name in "
        "('numpy', 'scipy', 'scipy.special', 'scipy.optimize', 'scipy.linalg')))"
    )
    loaded = {}
    for command in ("index", "interval", "disc", "sweep"):
        argv = [command]
        if command == "sweep":
            argv += ["--sizes", "64,256,1024,4096"]
        run = _run_python("-c", probe, *argv)
        assert run.returncode == 0, run.stderr
        loaded[command] = run.stdout.split()
    assert loaded == {
        "index": ["0", "False", "False", "False", "False", "False"],
        "interval": ["0", "True", "False", "False", "False", "False"],
        "disc": ["0", "True", "False", "False", "False", "False"],
        "sweep": ["0", "True", "False", "False", "False", "False"],
    }
    analysis_import = _run_python(
        "-c", "import sys, noncompact.analysis; print('scipy' in sys.modules)"
    )
    assert analysis_import.stdout.strip() == "False", analysis_import.stderr


def test_runtime_needs_only_numpy():
    # No module of the package imports scipy, at any level, and numpy is the
    # one runtime dependency: scipy serves the test oracles only.
    paths = sorted(pathlib.Path(SRC, "noncompact").glob("*.py"))
    assert paths
    for path in paths:
        imported = [
            alias.name if isinstance(node, ast.Import) else node.module or ""
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        ]
        assert not any(name.split(".")[0] == "scipy" for name in imported), path
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(README.with_name("pyproject.toml"), "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", d).group() for d in dependencies] == ["numpy"]


def test_tracer_counts_every_counted_call():
    # No traced CLI run calls analysis.singular_values or the assemble_*
    # functions, so their counters, which read the parameter `matrix` and
    # the result's `.matrix`, are checked here.  install() rebinds module
    # attributes, hence the subprocess.
    probe = (
        f"import json, sys; sys.path.insert(0, {str(PERFBENCH)!r}); "
        "import numpy as np, tracing; "
        "from noncompact import analysis, disc, interval; "
        "recorder = tracing.Recorder(); tracing.install(recorder); "
        "analysis.singular_values(np.eye(3)); "
        "interval.assemble_interval_compression(2, 3); "
        "disc.assemble_disc_compression(1, 2); "
        "disc.disc_image_coefficients(2, 3, 4); "
        "print(json.dumps(recorder.counters))"
    )
    run = _run_python("-c", probe)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == {
        "analysis.singular_values.entries": 9,
        "interval.assemble.bytes": 2 * 3 * 16,
        "disc.assemble.bytes": 4 * 4 * 16,
        "disc.image_coefficients.terms": 3 * 4,
    }


@pytest.mark.parametrize("model", ["disc", "interval"])
def test_traced_witness_records_image_layers(tmp_path, model):
    # The benchmark tracer wraps functions by name and reads the arguments
    # of disc_image_coefficients by parameter name, so deleting or renaming
    # a traced function or parameter fails here, not only in a traced run.
    child = PERFBENCH / "child.py"
    record = tmp_path / "record.json"
    run = _run_python(str(child), str(record), "1", "cli", model, "--grid", "5,10")
    assert run.returncode in (0, 1), run.stderr
    verdict = json.loads(run.stdout)["verdict"]
    assert run.returncode == (0 if verdict == "pass" else 1)
    traced = json.loads(record.read_text())
    assert traced["layers"][f"{model}.image_coefficients"]["calls"] >= 2
    # One witness call per grid point, through the model module.
    assert traced["layers"][f"{model}.witness"]["calls"] == 2
    if model == "disc":
        # Two grid points, each 1000 rows of L = 1000 terms.
        assert traced["counters"]["disc.image_coefficients.terms"] == 2_000_000
        # The tracer counts zeros by len(table.entries): ranks 1..64 of J_0.
        assert traced["counters"]["specfun.zeros_computed"] == 64


def test_disc_pairing_upper_bounds_finite_for_every_k():
    # At n = 1 and 2 the pairing indices k = 2, 3 exceed n; the bracket's
    # upper end still bounds them.
    report = analysis.witness_protocol("disc", (1, 2))
    for row, urow in zip(report.pairings, report.pairing_upper_bounds):
        assert all(math.isfinite(u) and p <= u for p, u in zip(row, urow))
