"""End-to-end benchmark of the `noncompact` CLI and API, with per-layer spans.

    python3 perfbench/run.py --workload {sweep,witness} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  A run is a closed loop with one client: it
repeats passes of the workload back to back while another pass still fits in
S seconds (at least one pass).  Every process is a fresh interpreter
(`child.py`), so each call starts with a cold Bessel-zero table, as every
`noncompact` invocation does.  BLAS and OpenMP are pinned to
PINNED_THREADS threads in each child's environment before it starts.

With --trace 0 the last line of stdout is a JSON object whose metrics are
the end-to-end ones of BENCHMARK.json: the median pass wall time, the median
set-up time of a pass (interpreter start plus `import noncompact`, summed
over the pass's processes; extra import-only passes top the samples up to
MIN_SETUP_SAMPLES) and the largest peak RSS of any process.  With --trace 1
untraced and traced passes alternate and the metrics are the per-layer
ones: self times, calls and counts from the traced passes, and the wall
time the tracing added.  Every output is checked; a failed check counts the
operation as failed instead of stopping the run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gates

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
SWEEP_FIXTURE = ROOT / "tests" / "fixtures" / "sweep_expected.json"
WITNESS_REFERENCE = BENCH_DIR / "reference" / "witness.json"

PINNED_THREADS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUP_SAMPLES = 5
# Every process still running this long after the run started is killed
# (and counted as failed), so a run ends within three minutes.
RUN_DEADLINE_S = 165.0

ZEROS_N_MAX = 64
ZEROS_K_MAX = 512


def _sweep_jobs(rng):
    return [("sweep", ["cli", "sweep", "--sizes", "64,256,1024,4096", "--format", "json"])]


def _witness_jobs(rng):
    # The `zeros` process runs the scalar interlacing path of `specfun`; the
    # three CLI processes run only its vectorized order-0 path.  A process of
    # its own would be a workload too short and too noisy on a shared host to
    # hold its bound, so it rides along here and the per-layer metrics
    # `specfun.bessel_zero.*` and `specfun.bessel_zeros.*` tell the paths apart.
    orders = list(range(ZEROS_N_MAX))
    rng.shuffle(orders)
    return [
        ("interval", ["cli", "interval", "--format", "json"]),
        ("disc", ["cli", "disc", "--grid", "100,1000,3000", "--format", "json"]),
        ("index", ["cli", "index"]),
        ("zeros", ["zeros", ",".join(map(str, orders))]),
    ]


# name -> (jobs of one pass, whether the seed changes the inputs).  The
# inputs of `sweep` and of the CLI processes of `witness` are pinned by the
# fixture and reference; the seed shuffles the order in which the `zeros`
# process of `witness` requests the Bessel orders.
WORKLOADS = {
    "sweep": (_sweep_jobs, False),
    "witness": (_witness_jobs, True),
}


@dataclass
class Proc:
    label: str
    code: int
    stdout: str
    t_launch: float
    t_exit: float
    rss_mb: float
    cpu_s: float
    record: dict | None

    @property
    def setup_s(self) -> float | None:
        return None if self.record is None else self.record["t_imported"] - self.t_launch


@dataclass
class Pass:
    traced: bool
    procs: list[Proc]

    @property
    def wall_s(self) -> float:
        return self.procs[-1].t_exit - self.procs[0].t_launch

    @property
    def setup_s(self) -> float | None:
        setups = [p.setup_s for p in self.procs]
        return None if None in setups else sum(setups)


class Runner:
    """Launches the child processes of one run and keeps their results."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        self.env.update({var: str(PINNED_THREADS) for var in THREAD_VARS})
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )

    def launch(self, label: str, job: list[str], trace: bool) -> Proc:
        self.count += 1
        base = self.work / str(self.count)
        record_path = base.with_suffix(".record")
        argv = [sys.executable, str(CHILD), str(record_path), "1" if trace else "0", *job]
        with open(base.with_suffix(".out"), "w+b") as out, open(
            base.with_suffix(".err"), "w+b"
        ) as err:
            t_launch = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - t_launch), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            t_exit = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read().decode("utf-8", errors="replace")
            err.seek(0)
            stderr = err.read().decode("utf-8", errors="replace")
        if proc.returncode != 0 and stderr:
            sys.stderr.write(f"[{label}] exit {proc.returncode}:\n{stderr[-2000:]}\n")
        try:
            record = json.loads(record_path.read_text())
        except (OSError, json.JSONDecodeError):
            record = None
        return Proc(
            label=label,
            code=proc.returncode,
            stdout=stdout,
            t_launch=t_launch,
            t_exit=t_exit,
            rss_mb=usage.ru_maxrss / 1024.0,
            cpu_s=usage.ru_utime + usage.ru_stime,
            record=record,
        )

    def run_pass(self, jobs, trace: bool) -> Pass:
        return Pass(trace, [self.launch(label, job, trace) for label, job in jobs])


def measure(workload: str, seed: int, seconds: float, trace: bool, runner: Runner):
    """Run passes of the workload for about `seconds`.  Untraced runs return
    (passes, setup samples); traced runs alternate untraced and traced
    passes and return (passes, [])."""
    make_jobs, _ = WORKLOADS[workload]
    rng = random.Random(seed)
    # One untimed import so that byte-code compilation and the file cache
    # are not charged to the first pass.
    runner.launch("setup", ["setup"], False)
    passes: list[Pass] = []
    t_begin = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(runner.run_pass(make_jobs(rng), traced))
        now = time.monotonic()
        if now + passes[-1].wall_s > min(t_begin + seconds, runner.deadline):
            if not trace or len(passes) >= 2:
                break
    if trace:
        return passes, []
    setups = [p.setup_s for p in passes if p.setup_s is not None]
    procs_per_pass = len(passes[0].procs)
    while len(setups) < MIN_SETUP_SAMPLES and time.monotonic() < runner.deadline:
        probe = runner.run_pass([("setup", ["setup"])] * procs_per_pass, False)
        if probe.setup_s is None:
            break
        setups.append(probe.setup_s)
    return passes, setups


def end_to_end_metrics(passes: list[Pass], setups: list[float]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(proc.rss_mb for p in passes for proc in p.procs),
    }


# Span names whose call counts are reported, and span names whose self times
# are reported, under "<span>.calls" and "<span>.self_s".  Where each layer
# should move the end-to-end metrics:
#   specfun.bessel_zero(s)            wall_s on witness (its `zeros` process)
#   interval/disc.assemble (+bytes)   wall_s and peak_rss_mb on sweep
#   analysis.singular_values          wall_s and peak_rss_mb on sweep; 0 elsewhere
#   disc.image_coefficient(s), disc.witness (+terms)   wall_s on witness
#   disc.eigenvalue_multiplicities    wall_s on witness (its `zeros` process)
#   interval.witness, interval.image_coefficients, aps, analysis.serialize,
#   cli.main                          negligible on every workload
CALL_SPANS = (
    "specfun.bessel_zeros",
    "specfun.bessel_zero",
    "analysis.singular_values",
    "aps",
)
SELF_SPANS = (
    "specfun.bessel_zeros",
    "specfun.bessel_zero",
    "interval.assemble",
    "interval.witness",
    "interval.image_coefficients",
    "disc.assemble",
    "disc.image_coefficients",
    "disc.image_coefficient",
    "disc.witness",
    "disc.eigenvalue_multiplicities",
    "analysis.singular_values",
    "analysis.compression_sweep",
    "analysis.witness_protocol",
    "analysis.serialize",
    "aps",
    "cli.main",
)
COUNTERS = (
    "specfun.zeros_computed",
    "interval.assemble.bytes",
    "disc.assemble.bytes",
    "disc.image_coefficients.terms",
    "analysis.singular_values.entries",
    "analysis.witness_protocol.warnings",
    "analysis.witness_protocol.non_informative",
)


def traced_pass_metrics(p: Pass) -> dict[str, float]:
    """Per-layer numbers of one traced pass, summed over its processes."""
    layers: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    for proc in p.procs:
        record = proc.record or {}
        for name, entry in record.get("layers", {}).items():
            total = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
            total["calls"] += entry["calls"]
            total["self_s"] += entry["self_s"]
        for name, value in record.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    out = {}
    for name in CALL_SPANS:
        out[f"{name}.calls"] = layers.get(name, {}).get("calls", 0)
    for name in SELF_SPANS:
        out[f"{name}.self_s"] = layers.get(name, {}).get("self_s", 0.0)
    for name in COUNTERS:
        out[name] = counters.get(name, 0)
    lookups = counters.get("specfun.zero_lookups", 0)
    out["specfun.zero_cache_hit_ratio"] = (
        counters.get("specfun.zero_lookup_hits", 0) / lookups if lookups else 0.0
    )
    layer_s = sum(entry["self_s"] for entry in layers.values())
    setup_s = p.setup_s or 0.0
    out["trace.wall_s"] = p.wall_s
    out["trace.setup_s"] = setup_s
    out["trace.layers_s"] = layer_s
    out["trace.unaccounted_s"] = p.wall_s - setup_s - layer_s
    return out


def per_layer_metrics(passes: list[Pass]) -> dict[str, float]:
    """Medians over the traced passes, plus the outside measurements (CPU
    time, bytes written) of the untraced passes and the tracing overhead."""
    traced = [traced_pass_metrics(p) for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    out = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
    out["cli.output_bytes"] = statistics.median(
        sum(len(proc.stdout.encode()) for proc in p.procs) for p in untraced
    )
    out["cli.cpu_s"] = statistics.median(sum(proc.cpu_s for proc in p.procs) for p in untraced)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(
        p.wall_s for p in untraced
    )
    return out


def make_gates(workload: str):
    """label -> function(code, stdout) giving the problems of one output."""
    if workload == "sweep":
        fixture = json.loads(SWEEP_FIXTURE.read_text())
        return {"sweep": lambda code, out: gates.sweep(code, out, fixture)}
    from scipy.special import jn_zeros

    ref = json.loads(WITNESS_REFERENCE.read_text())
    oracle = {n: jn_zeros(n, ZEROS_K_MAX).tolist() for n in range(ZEROS_N_MAX)}
    return {
        "interval": lambda code, out: gates.witness_report(code, out, ref["interval"]),
        "disc": lambda code, out: gates.witness_report(code, out, ref["disc"]),
        "index": lambda code, out: gates.index_rows(code, out, ref["index"]),
        "zeros": lambda code, out: gates.zeros(code, out, oracle, ZEROS_N_MAX, ZEROS_K_MAX),
    }


def count_failures(workload: str, passes: list[Pass]) -> int:
    checks = make_gates(workload)
    failed = 0
    for p in passes:
        for proc in p.procs:
            try:
                problems = checks[proc.label](proc.code, proc.stdout)
            except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
                problems = [f"malformed output: {exc!r}"]
            if problems:
                failed += 1
                sys.stderr.write(f"[{proc.label}] failed: {'; '.join(problems[:5])}\n")
    return failed


def environment_record(workload: str, seed: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    def blas_version(module):
        try:
            config = module.show_config(mode="dicts")
            return config["Build Dependencies"]["blas"].get("version")
        except (TypeError, KeyError, AttributeError):
            return None

    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seed_changes_inputs": WORKLOADS[workload][1],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "pinned_threads": PINNED_THREADS,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "noncompact" / "__init__.py", SWEEP_FIXTURE, WITNESS_REFERENCE):
        if not needed.is_file():
            sys.stderr.write(f"error: {needed} is missing; run from a source checkout\n")
            return 2
    units = declared_metrics()["per_layer" if args.trace else "end_to_end"]

    start = time.monotonic()
    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=BENCH_DIR / ".work"))
    try:
        runner = Runner(work, start + RUN_DEADLINE_S)
        passes, setups = measure(args.workload, args.seed, args.seconds, args.trace == 1, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if args.trace:
        values = per_layer_metrics(passes)
    else:
        values = end_to_end_metrics(passes, setups)
    if sorted(values) != sorted(units):
        sys.stderr.write(
            f"error: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json\n"
        )
        return 1

    attempted = sum(len(p.procs) for p in passes)
    failed = count_failures(args.workload, passes)
    record = environment_record(args.workload, args.seed)
    record.update(
        passes=len(passes),
        traced_passes=sum(p.traced for p in passes),
        setup_samples=len(setups),
        pass_walls_s=[p.wall_s for p in passes],
    )
    print(json.dumps({"record": record}))
    for name in units:
        print(f"{args.workload:8s} {name:45s} {values[name]:>16.6g} {units[name]}")
    print(f"{args.workload:8s} {'failed_frac':45s} {failed / attempted:>16.6g} ratio")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
