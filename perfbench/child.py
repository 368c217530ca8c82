"""One benchmark process: a fresh interpreter that imports `noncompact` and
makes one call, as a user's `noncompact` invocation does.

    python3 child.py RECORD TRACE JOB [ARGS...]

JOB is ``cli`` (ARGS are the `noncompact` command line), ``zeros`` (ARGS
are the comma-separated orders to request, in order) or ``setup`` (import
only).  Output goes to stdout.  RECORD receives, as JSON, the monotonic
times at which the import finished and the call ended, and with TRACE=1 the
per-layer spans and counters.  The parent reads the launch and exit times
and the resource usage itself.
"""

import sys
import time

import noncompact

t_imported = time.monotonic()

ZEROS_K_MAX = 512
ZEROS_N_MAX = 64


def zeros_job(orders):
    """Certified zeros of J_n for the given orders (cold table), then the
    eigenvalue multiplicities of the disc model over the same range."""
    import json

    from noncompact import disc, specfun

    zeros = {n: specfun.bessel_zeros(n, ZEROS_K_MAX) for n in orders}
    groups = disc.eigenvalue_multiplicities(ZEROS_N_MAX, ZEROS_K_MAX)
    sys.stdout.write(
        json.dumps(
            {
                "k_max": ZEROS_K_MAX,
                "zeros": {str(n): zeros[n].tolist() for n in sorted(zeros)},
                "multiplicities": groups,
            }
        )
        + "\n"
    )
    return 0


def main(argv):
    import json

    record_path, trace, job, args = argv[0], argv[1] == "1", argv[2], argv[3:]
    record = {"t_imported": t_imported}
    if trace:
        import tracing

        recorder = tracing.Recorder()
        table_counters = tracing.install(recorder)
    code = 1
    try:
        if job == "cli":
            from noncompact import cli

            code = cli.main(args)
        elif job == "zeros":
            code = zeros_job([int(n) for n in args[0].split(",")])
        elif job == "setup":
            code = 0
        else:
            raise ValueError(f"unknown job {job!r}")
    finally:
        sys.stdout.flush()
        record["t_done"] = time.monotonic()
        if trace:
            record["layers"] = tracing.summarize(recorder.spans)
            record["counters"] = {**recorder.counters, **table_counters()}
        with open(record_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
