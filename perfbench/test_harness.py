"""Self-tests of the benchmark harness; one test starts a short `noncompact
index` child, none runs a workload:

    python3 -m pytest -q perfbench
"""

import copy
import csv
import io
import json
import time

import gates
import run
import tracing


def _proc(label="sweep", t_launch=0.0, t_exit=2.0, record=None, stdout="{}", rss_mb=100.0):
    return run.Proc(
        label=label,
        code=0,
        stdout=stdout,
        t_launch=t_launch,
        t_exit=t_exit,
        rss_mb=rss_mb,
        cpu_s=1.5,
        record={"t_imported": t_launch + 0.5} if record is None else record,
    )


def test_printed_metric_names_match_benchmark_json():
    declared = run.declared_metrics()
    untraced = run.Pass(False, [_proc(), _proc(t_launch=2.0, t_exit=3.0)])
    e2e = run.end_to_end_metrics([untraced], [1.0, 1.1, 0.9])
    assert sorted(e2e) == sorted(declared["end_to_end"])

    record = {
        "t_imported": 0.5,
        "layers": {"cli.main": {"calls": 1, "self_s": 0.25}},
        "counters": {"specfun.zero_lookups": 4, "specfun.zero_lookup_hits": 3},
    }
    traced = run.Pass(True, [_proc(record=record)])
    layers = run.per_layer_metrics([untraced, traced])
    assert sorted(layers) == sorted(declared["per_layer"])
    assert layers["cli.main.self_s"] == 0.25
    assert layers["specfun.zero_cache_hit_ratio"] == 0.75
    assert layers["trace.unaccounted_s"] == 2.0 - 0.5 - 0.25
    assert layers["trace.overhead_s"] == 2.0 - 3.0


def _sweep_stdout(fixture):
    return json.dumps(
        [
            {
                "model": model,
                "sizes": entry["dims"],
                "thresholds": fixture["thresholds"],
                "sv": entry["sv_top8"],
                "counts": entry["counts"],
            }
            for model, entry in fixture["models"].items()
        ]
    )


def test_sweep_gate_passes_on_fixture_and_fails_on_perturbed_sv_max():
    fixture = json.loads(run.SWEEP_FIXTURE.read_text())
    assert gates.sweep(0, _sweep_stdout(fixture), fixture) == []

    perturbed = copy.deepcopy(fixture)
    perturbed["models"]["interval"]["sv_top8"][2][0] += 1e-6
    problems = gates.sweep(0, _sweep_stdout(perturbed), fixture)
    assert any("sv_max" in p for p in problems)


def test_gates_fail_on_nonzero_exit_code():
    fixture = json.loads(run.SWEEP_FIXTURE.read_text())
    assert gates.sweep(1, _sweep_stdout(fixture), fixture)
    reference = json.loads(run.WITNESS_REFERENCE.read_text())
    assert gates.witness_report(1, json.dumps(reference["disc"]), reference["disc"])
    buf = io.StringIO()
    csv.writer(buf).writerows(reference["index"])
    assert gates.index_rows(0, buf.getvalue(), reference["index"]) == []
    assert gates.index_rows(1, buf.getvalue(), reference["index"])


def test_witness_gate_checks_values_and_verdict():
    reference = json.loads(run.WITNESS_REFERENCE.read_text())["interval"]
    assert gates.witness_report(0, json.dumps(reference), reference) == []
    shifted = copy.deepcopy(reference)
    shifted["pairings"][1][0] += 1e-6
    assert gates.witness_report(0, json.dumps(shifted), reference)
    failed = dict(reference, verdict="fail")
    assert gates.witness_report(0, json.dumps(failed), reference)


def test_zeros_gate():
    oracle = {0: [2.404825557695773, 5.520078110286311], 1: [3.8317059702075125, 7.015586669815619]}
    payload = {"zeros": {"1": oracle[1], "0": oracle[0]}, "multiplicities": [4, 4, 4, 4]}
    assert gates.zeros(0, json.dumps(payload), oracle, 2, 2) == []
    payload["zeros"]["1"] = [oracle[1][0] + 1e-8, oracle[1][1]]
    assert gates.zeros(0, json.dumps(payload), oracle, 2, 2)
    payload["zeros"]["1"] = oracle[1]
    payload["multiplicities"] = [4, 8, 4]
    assert gates.zeros(0, json.dumps(payload), oracle, 2, 2)


def test_self_time_on_nested_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 9.0, 0],
        ["b", 6.0, 6.5, 3],
        ["b", 7.0, 8.0, 3],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 2.5, 0.5, 1.0]
    assert tracing.summarize(spans) == {
        "root": {"calls": 1, "self_s": 3.0},
        "a": {"calls": 2, "self_s": 4.5},
        "b": {"calls": 3, "self_s": 2.5},
    }


def test_recorder_links_recursive_calls_to_their_parents():
    ticks = iter(range(100))
    recorder = tracing.Recorder(clock=lambda: float(next(ticks)))

    def countdown(n):
        return n if n == 0 else countdown(n - 1)

    countdown = recorder.wrap("countdown", countdown)
    assert countdown(2) == 0
    assert [s[3] for s in recorder.spans] == [-1, 0, 1]
    assert tracing.self_times(recorder.spans) == [2.0, 2.0, 1.0]


def test_traced_child_records_layers_of_the_real_package(tmp_path):
    runner = run.Runner(tmp_path, time.monotonic() + 60)
    proc = runner.launch("index", ["cli", "index"], trace=True)
    assert proc.code == 0
    reference = json.loads(run.WITNESS_REFERENCE.read_text())
    assert gates.index_rows(proc.code, proc.stdout, reference["index"]) == []
    layers = proc.record["layers"]
    # 21 cuts: aps_kernel_dims and aps_index each, and aps_index calls
    # aps_kernel_dims once more.
    assert layers["aps"]["calls"] == 63
    assert layers["cli.main"]["calls"] == 1
    assert proc.record["counters"]["specfun.zeros_computed"] == 0
    assert 0 < proc.setup_s < proc.t_exit - proc.t_launch
