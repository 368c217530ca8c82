"""Correctness gates.  Each gate takes one process's exit code and stdout
and returns the list of problems it found; an empty list means it passed."""

from __future__ import annotations

import csv
import io
import json
import math

SWEEP_TOL = 1e-8
WITNESS_TOL = 1e-8
ZEROS_TOL = 1e-9


def _exit_problems(code: int) -> list[str]:
    return [] if code == 0 else [f"exit code {code}, expected 0"]


def _parse_json(text: str, problems: list[str]):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None


def _close(got, want, tol: float) -> bool:
    return (
        isinstance(got, (int, float))
        and not isinstance(got, bool)
        and math.isfinite(got)
        and abs(got - want) <= tol * max(1.0, abs(want))
    )


def sweep(code: int, stdout: str, fixture: dict) -> list[str]:
    """`noncompact sweep` JSON against the pinned fixture: sv_max and the top
    eight singular values at 1e-8, sizes, thresholds and counts exactly."""
    problems = _exit_problems(code)
    payloads = _parse_json(stdout, problems)
    if payloads is None:
        return problems
    by_model = {p.get("model"): p for p in payloads if isinstance(p, dict)}
    if sorted(by_model) != sorted(fixture["models"]):
        return problems + [f"models {sorted(by_model)} != {sorted(fixture['models'])}"]
    for model, want in fixture["models"].items():
        got = by_model[model]
        if got.get("sizes") != want["dims"]:
            problems.append(f"{model}: sizes {got.get('sizes')} != {want['dims']}")
            continue
        if got.get("thresholds") != fixture["thresholds"]:
            problems.append(f"{model}: thresholds {got.get('thresholds')}")
        if got.get("counts") != want["counts"]:
            problems.append(f"{model}: counts {got.get('counts')} != {want['counts']}")
        for i, size in enumerate(want["dims"]):
            sv = got["sv"][i]
            if not _close(sv[0], want["sv_max"][i], SWEEP_TOL):
                problems.append(f"{model} {size}: sv_max {sv[0]!r} != {want['sv_max'][i]!r}")
            top = want["sv_top8"][i]
            if len(sv) < len(top) or not all(
                _close(g, w, SWEEP_TOL) for g, w in zip(sv, top)
            ):
                problems.append(f"{model} {size}: sv_top8 differs from the fixture")
    return problems


def _compare(got, want, tol: float, where: str, problems: list[str]) -> None:
    if isinstance(want, float):
        if not _close(got, want, tol):
            problems.append(f"{where}: {got!r} != {want!r}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{where}: expected a list of {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, tol, f"{where}[{i}]", problems)
    elif isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            problems.append(f"{where}: keys differ")
            return
        for key in want:
            _compare(got[key], want[key], tol, f"{where}.{key}", problems)
    elif got != want:
        problems.append(f"{where}: {got!r} != {want!r}")


def witness_report(code: int, stdout: str, reference: dict) -> list[str]:
    """`noncompact interval|disc` JSON: verdict 'pass' and every value within
    1e-8 of the reference."""
    problems = _exit_problems(code)
    report = _parse_json(stdout, problems)
    if report is None:
        return problems
    if report.get("verdict") != "pass":
        problems.append(f"verdict {report.get('verdict')!r}, expected 'pass'")
    _compare(report, reference, WITNESS_TOL, "report", problems)
    return problems


def index_rows(code: int, stdout: str, reference: list) -> list[str]:
    """`noncompact index` CSV: every row exactly as in the reference."""
    problems = _exit_problems(code)
    rows = list(csv.reader(io.StringIO(stdout)))
    if rows != reference:
        problems.append("index rows differ from the reference")
    return problems


def zeros(code: int, stdout: str, oracle: dict, n_max: int, k_max: int) -> list[str]:
    """Every zero within 1e-9 of the independent oracle (orders 0..n_max-1,
    ranks 1..k_max) and every multiplicity group equal to 4."""
    problems = _exit_problems(code)
    payload = _parse_json(stdout, problems)
    if payload is None:
        return problems
    got = payload.get("zeros", {})
    if sorted(got, key=int) != [str(n) for n in range(n_max)]:
        return problems + ["the requested orders are not all present"]
    for n in range(n_max):
        row, want = got[str(n)], oracle[n]
        if len(row) != k_max or any(
            not abs(g - w) <= ZEROS_TOL for g, w in zip(row, want)
        ):
            problems.append(f"zeros of J_{n} differ from the oracle")
    groups = payload.get("multiplicities", [])
    if len(groups) != n_max * k_max or any(g != 4 for g in groups):
        problems.append("multiplicity groups are not all 4")
    return problems
