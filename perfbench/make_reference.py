"""Write reference/witness.json: the outputs of the `witness` workload's
three CLI commands, against which the benchmark checks every later run.
Its `zeros` process is checked against `scipy.special.jn_zeros` instead.

    python3 perfbench/make_reference.py

Regenerate it only at a commit whose witness outputs are known to be right,
and record that commit in the file.
"""

import csv
import io
import json
import random
import subprocess
import sys
import tempfile
import time

import run


def main() -> int:
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    (run.BENCH_DIR / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.BENCH_DIR / ".work") as work:
        runner = run.Runner(run.Path(work), time.monotonic() + run.RUN_DEADLINE_S)
        jobs = [job for job in run._witness_jobs(random.Random(0)) if job[0] != "zeros"]
        procs = {p.label: p for p in runner.run_pass(jobs, False).procs}
    if any(p.code != 0 for p in procs.values()):
        sys.stderr.write("error: a witness command failed; no reference written\n")
        return 1
    reference = {
        "generated_at_commit": commit,
        "interval": json.loads(procs["interval"].stdout),
        "disc": json.loads(procs["disc"].stdout),
        "index": list(csv.reader(io.StringIO(procs["index"].stdout))),
    }
    run.WITNESS_REFERENCE.parent.mkdir(exist_ok=True)
    run.WITNESS_REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
