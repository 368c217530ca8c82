import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noncompact import analysis, cli, disc, interval, specfun

SRC = str(pathlib.Path(interval.__file__).resolve().parents[1])


# --- singular values -----------------------------------------------------------


def test_singular_values_rank_one():
    sv = analysis.singular_values(np.array([[1j / (2 * math.pi)]]))
    assert sv.shape == (1,)
    assert sv[0] == pytest.approx(1.0 / (2 * math.pi), abs=1e-15)


def test_singular_values_of_correction_diagonal():
    k = disc.correction_singular_values(4)
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


# --- structured spectra against the dense oracle -----------------------------------


def _assert_matches_dense(sv: np.ndarray, matrix: np.ndarray) -> None:
    dense = analysis.singular_values(matrix)
    assert sv.shape == dense.shape
    assert np.all(np.diff(sv) <= 0)
    np.testing.assert_allclose(sv, dense, rtol=0, atol=1e-12)
    for t in analysis.DEFAULT_THRESHOLDS:
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
@given(dims=_disc_dims(), remove_correction=st.booleans())
@example(dims=(1, 1), remove_correction=False)
@example(dims=(11, 22), remove_correction=True)
@example(dims=(16, 16), remove_correction=False)
def test_disc_singular_values_match_dense(dims, remove_correction):
    n_max, k_max = dims
    _assert_matches_dense(
        disc.disc_singular_values(n_max, k_max, remove_correction),
        disc.assemble_disc_compression(n_max, k_max, remove_correction).matrix,
    )


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


def test_witness_protocol_truncation_warning():
    report = analysis.witness_protocol(
        "interval", (1000,), trunc_factor=1, min_truncation=1
    )
    assert report.warnings


def test_witness_protocol_validation():
    with pytest.raises(ValueError):
        analysis.witness_protocol("circle", (10,))
    with pytest.raises(ValueError):
        analysis.witness_protocol("interval", ())


# --- serialization -----------------------------------------------------------------


def test_witness_report_rows_schema():
    report = analysis.witness_protocol("interval", (20, 60), trunc_factor=50)
    rows = analysis.witness_report_rows(report)
    assert list(rows[0].keys()) == [
        "m",
        "L",
        "K",
        "xi_norm_sq",
        "xi_norm_sq_closed",
        "zeta_norm_lower_sq",
        "bound_1_over_4pi2",
        "pairing_p0",
        "pairing_p1",
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
        "xi_norm_sq",
        "zeta_norm_lower_sq",
        "bound_paper",
        "pairing_k1",
        "pairing_k2",
        "pairing_k3",
        "verdict",
    ]


def test_sweep_report_dict_round_trips():
    profile = analysis.compression_sweep("interval", sizes=(8, 16))
    loaded = json.loads(json.dumps(analysis.sweep_report_dict(profile)))
    assert loaded["model"] == "interval"
    assert loaded["sizes"] == [8, 16]
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
    assert cli.main(["bogus"]) == 2
    assert cli.main(["interval", "--grid", "abc"]) == 2
    capsys.readouterr()
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


def test_cli_grid_beyond_certified_zeros(capsys, monkeypatch):
    # 10 * 8400 ranks of J_0 reach beyond 2^18, where no float bracket of
    # width ZERO_BRACKET_WIDTH holds the zero strictly inside.
    monkeypatch.setattr(specfun, "_DEFAULT_TABLE", specfun.BesselZeroTable())
    assert cli.main(["disc", "--grid", "8400"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --grid: no certified bracket")


def test_cli_threads_flag(capsys):
    assert cli.main(["--threads", "1", "index", "--grid", "1"]) == 0
    assert cli.main(["--threads", "0", "index"]) == 2


def test_cli_writes_protocol_warnings(capsys):
    for model in analysis.MODELS:
        report = analysis.witness_protocol(model, (100, 200))
        assert len(report.warnings) == 2
        code = cli.main([model, "--grid", "100,200"])
        assert code == (0 if report.verdict == "pass" else 1)
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"warning: {w}" for w in report.warnings]
        assert json.loads(captured.out) == analysis.witness_report_dict(report)


def _run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
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


def test_subcommands_import_only_what_they_use():
    probe = (
        "import os, sys; from noncompact import cli; "
        "code = cli.main(sys.argv[1:] + ['--out', os.devnull]); "
        "print(code, 'scipy' in sys.modules, 'scipy.optimize' in sys.modules)"
    )
    index = _run_python("-c", probe, "index")
    assert index.returncode == 0, index.stderr
    assert index.stdout.split() == ["0", "False", "False"]
    interval_run = _run_python("-c", probe, "interval", "--grid", "20,60")
    assert interval_run.returncode == 0, interval_run.stderr
    assert interval_run.stdout.split()[1:] == ["True", "False"]
