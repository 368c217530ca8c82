import csv
import dataclasses
import importlib.util
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    # Purely imaginary fast path agrees with the generic path.
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


def test_disc_sweep_fills_the_zeros_once(monkeypatch):
    # Largest size first: one descending fill of the Bessel-zero table, 22
    # Newton batches where ascending sizes take 40, with the same spectra.
    sizes = (64, 256, 1024, 4096)
    alone = []
    for size in sizes:
        monkeypatch.setattr(specfun, "_DEFAULT_TABLE", specfun.BesselZeroTable())
        alone.append(analysis.MODELS["disc"].sweep_spectrum(size))
    monkeypatch.setattr(specfun, "_DEFAULT_TABLE", specfun.BesselZeroTable())
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
    # at equal-node ties), so the pinned counts hold only while every value
    # of the pinned sizes keeps clear of them; the smallest gap is 2.15e-3
    # relative, on the disc at 4096.
    gaps = []
    for model in analysis.MODELS.values():
        for size in (64, 256, 1024, 4096):
            sv = model.sweep_spectrum(size)
            for t in analysis.SWEEP_THRESHOLDS:
                gaps.append(np.min(np.abs(sv - t)) / t)
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
    _assert_matches_dense(
        disc.disc_singular_values(n_max, k_max),
        disc.assemble_disc_compression(n_max, k_max, remove_correction=True).matrix,
    )


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


@pytest.mark.parametrize(
    "x",
    [
        np.arange(64) + 0.5,
        specfun.bessel_zeros(0, 64, specfun.BesselZeroTable()),
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
    report = analysis.witness_protocol("interval", (20, 60), trunc_factor=50)
    assert report.model == "interval"
    assert report.truncations == [1000, 3000]
    assert not report.non_informative
    assert all(z >= b for z, b in zip(report.zeta_lower_sq, report.model_bound))
    for j in range(len(report.pairing_indices)):
        assert report.pairings[1][j] < report.pairings[0][j]


def test_witness_protocol_singleton_grid_non_informative():
    report = analysis.witness_protocol("interval", (50,), trunc_factor=100)
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
    # L = 1000 terms at m = 1000 truncate only zeta; the boundedness premise
    # reads the full xi norm: no warning while zeta clears the bound.
    report = analysis.witness_protocol("interval", (1000,), trunc_factor=1)
    assert report.verdict == "pass"
    assert not any("zeta" in w for w in report.warnings)
    # A bound above zeta^2 fails the premise, and the warning names the point
    # and the truncation.
    _raise_bound(monkeypatch, "interval", 10.0)
    report = analysis.witness_protocol("interval", (1000, 2000), trunc_factor=1)
    assert report.verdict == "fail"
    assert report.warnings == [
        f"zeta^2 {z:.3g} is below the model bound 10 at grid point {point} with "
        f"truncation {point}; a larger --trunc-factor can only raise zeta"
        for point, z in zip((1000, 2000), report.zeta_lower_sq)
    ]


def test_witness_protocol_validation():
    with pytest.raises(ValueError):
        analysis.witness_protocol("circle", (10,))
    with pytest.raises(ValueError):
        analysis.witness_protocol("interval", ())
    for grid in ((1000, 100), (100, 100), (5, 10, 10)):
        with pytest.raises(ValueError, match="strictly increasing"):
            analysis.witness_protocol("disc", grid)


@pytest.mark.parametrize("model", ["interval", "disc"])
def test_witness_protocol_refuses_trunc_factor_below_one(monkeypatch, model):
    # Refused before any witness is built, not run at the truncation floor.
    def no_witness(*args, **kwargs):
        raise AssertionError("a witness was built for a bad trunc_factor")

    monkeypatch.setattr(interval, "interval_witness", no_witness)
    for trunc_factor in (0, -5):
        with pytest.raises(ValueError, match="trunc_factor must be >= 1"):
            analysis.witness_protocol(model, (100, 1000), trunc_factor=trunc_factor)


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


def test_witness_report_rows_schema():
    report = analysis.witness_protocol("interval", (20, 60), trunc_factor=50)
    rows = analysis.witness_report_rows(report)
    assert list(rows[0].keys()) == [
        "m",
        "L",
        "K",
        "xi_norm_sq_closed",
        "zeta_norm_lower_sq",
        "bound_1_over_4pi2",
        "pairing_p0",
        "pairing_p1",
        "pairing_p5",
        "verdict",
    ]
    assert cli._rows_to_csv_text(rows).startswith("m,L,K,")


def test_disc_report_rows_schema():
    report = analysis.witness_protocol("disc", (5, 10), trunc_factor=10)
    rows = analysis.witness_report_rows(report)
    assert list(rows[0].keys()) == [
        "n",
        "L",
        "K_rows",
        "xi_norm_sq_closed",
        "zeta_norm_lower_sq",
        "bound_paper",
        "pairing_k1",
        "pairing_k2",
        "pairing_k3",
        "verdict",
    ]


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
    code = cli.main(
        ["interval", "--grid", "20,60", "--trunc-factor", "50", "--out", str(out)]
    )
    data = json.loads(out.read_text())
    assert data["grid"] == [20, 60]
    assert code == (0 if data["verdict"] == "pass" else 1)


def test_cli_interval_csv(capsys):
    code = cli.main(
        ["interval", "--grid", "20,60", "--trunc-factor", "50", "--format", "csv"]
    )
    assert code in (0, 1)
    assert capsys.readouterr().out.startswith("m,L,K,")


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
        assert captured.err.startswith("error: --sizes: ")
    assert cli.main(["bogus"]) == 2
    assert cli.main(["interval", "--grid", "abc"]) == 2
    capsys.readouterr()

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
        assert captured.err == "error: --grid: grid must be strictly increasing\n"
    # A truncation past the term limit is refused before numpy is asked for an
    # image sum of that length, also just above the limit.
    assert cli.main(["interval", "--grid", "5", "--trunc-factor", "99999999999"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --grid: truncation 499999999995 ")
    above = analysis.MAX_WITNESS_TERMS + 1
    assert cli.main(["interval", "--grid", "1", "--trunc-factor", str(above)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --grid: truncation {above} ")
    existing = tmp_path / "existing.json"
    existing.write_text("kept\n")
    bad_inputs = (
        ["interval", "--grid", "10", "--trunc-factor", "0"],
        ["interval", "--grid", "10", "--trunc-factor", "-3"],
        ["interval", "--grid", "10", "--trunc-factor", "0", "--out", str(existing)],
    )
    unwritable = (
        ["disc", "--grid", "10", "--out", os.path.join(missing, "x.json")],
        ["disc", "--grid", "100,1000,3000", "--out", os.path.join(missing, "x.json")],
        ["disc", "--out", str(tmp_path)],
        ["index", "--out", os.path.join(missing, "x.csv")],
    )

    def no_protocol(*args, **kwargs):
        raise AssertionError("witness_protocol ran before a configuration error")

    monkeypatch.setattr(analysis, "witness_protocol", no_protocol)
    for argv in bad_inputs + unwritable:
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = "error: --out: " if argv in unwritable else "error: "
        assert captured.err.startswith(prefix), argv
    assert existing.read_text() == "kept\n"
    assert not os.path.exists(missing)


def test_cli_grid_beyond_sign_change_brackets(capsys, monkeypatch):
    # 10 * 8400 ranks of J_0 reach beyond 2^18, where no float bracket of
    # width ZERO_BRACKET_WIDTH holds the zero strictly inside.
    monkeypatch.setattr(specfun, "_DEFAULT_TABLE", specfun.BesselZeroTable())
    assert cli.main(["disc", "--grid", "8400"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --grid: no sign-change bracket")


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
    # The comment on analysis.MAX_WITNESS_TERMS: peak RSS of `interval --grid 1
    # --trunc-factor N` grows by under 100 bytes per term, so the limit needs
    # under 3 GiB.  Measured at 1e6, 4e6 and 1.6e7 terms: 58 bytes per term,
    # set by the truncated image sum, and 1.84 GiB by linear extrapolation.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    peak = {}
    for terms in (10**6, 4 * 10**6):
        argv = ["interval", "--grid", "1", "--trunc-factor", str(terms)]
        proc = subprocess.Popen(
            [sys.executable, "-m", "noncompact", *argv, "--out", os.devnull],
            env=env,
            stderr=subprocess.DEVNULL,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0, argv
        peak[terms] = usage.ru_maxrss * 1024  # KiB on Linux
    slope = (peak[4 * 10**6] - peak[10**6]) / (3 * 10**6)
    at_limit = peak[10**6] + slope * (analysis.MAX_WITNESS_TERMS - 10**6)
    assert slope < 100, slope
    assert at_limit < 3 * 2**30, at_limit


def test_python_dash_m_runs_the_cli():
    run = _run_python("-m", "noncompact", "index")
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("N,dim_plus,dim_minus,index\n")


def test_subcommands_import_only_what_they_use():
    # `index` loads no numpy, and `interval`, `disc` and `sweep` no scipy:
    # their psi sums and the zeros of every J_n, sign checks included, are
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
        # The tracer counts zeros by len(table.entries): ranks 1..1000 of J_0.
        assert traced["counters"]["specfun.zeros_computed"] == 1000


def test_disc_pairing_upper_bounds_finite_for_every_k():
    # At n = 1 and 2 the pairing indices k = 2, 3 exceed n; the bracket's
    # upper end still bounds them.
    report = analysis.witness_protocol("disc", (1, 2))
    for row, urow in zip(report.pairings, report.pairing_upper_bounds):
        assert all(math.isfinite(u) and p <= u for p, u in zip(row, urow))
