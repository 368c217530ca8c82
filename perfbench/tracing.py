"""Span recording around the public functions of the `noncompact` modules.

Wrappers are installed from outside the package, by rebinding attributes of
the defining modules, so calls made through module attributes or module
globals (which is how the package calls itself) pass through them.  Each
call records a span ``[name, start, end, parent]``; a layer's self time is
its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

# (module, function) -> span name.  The three serializers share one name, and
# every public function of `aps` is one layer, named "aps".
SPAN_NAMES = {
    ("specfun", "bessel_zeros"): "specfun.bessel_zeros",
    ("specfun", "bessel_zero"): "specfun.bessel_zero",
    ("interval", "assemble_interval_compression"): "interval.assemble",
    ("interval", "interval_witness"): "interval.witness",
    ("interval", "interval_image_coefficients"): "interval.image_coefficients",
    ("disc", "assemble_disc_compression"): "disc.assemble",
    ("disc", "disc_image_coefficients"): "disc.image_coefficients",
    ("disc", "disc_image_coefficient"): "disc.image_coefficient",
    ("disc", "disc_witness"): "disc.witness",
    ("disc", "eigenvalue_multiplicities"): "disc.eigenvalue_multiplicities",
    ("analysis", "singular_values"): "analysis.singular_values",
    ("analysis", "compression_sweep"): "analysis.compression_sweep",
    ("analysis", "witness_protocol"): "analysis.witness_protocol",
    ("analysis", "witness_report_dict"): "analysis.serialize",
    ("analysis", "witness_report_rows"): "analysis.serialize",
    ("analysis", "sweep_report_dict"): "analysis.serialize",
    ("cli", "main"): "cli.main",
}

# (module, function) -> counts taken from the call's bound arguments and
# its result.
COUNTS = {
    ("interval", "assemble_interval_compression"): lambda a, r: {
        "interval.assemble.bytes": r.matrix.nbytes
    },
    ("disc", "assemble_disc_compression"): lambda a, r: {
        "disc.assemble.bytes": r.matrix.nbytes
    },
    ("disc", "disc_image_coefficients"): lambda a, r: {
        "disc.image_coefficients.terms": a["k_rows"] * a["truncation"]
    },
    ("analysis", "singular_values"): lambda a, r: {
        "analysis.singular_values.entries": a["matrix"].shape[0]
        * a["matrix"].shape[1]
    },
    ("analysis", "witness_protocol"): lambda a, r: {
        "analysis.witness_protocol.warnings": len(r.warnings),
        "analysis.witness_protocol.non_informative": int(r.non_informative),
    },
}


class Recorder:
    """Spans and counters of one process, kept in memory until it exits."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, self.clock
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs).arguments
                for key, value in count(bound, result).items():
                    self.counters[key] = self.counters.get(key, 0) + int(value)
            return result

        return traced


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the durations of the spans
    whose parent it is.  Spans of one thread nest, so children never overlap."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: number of calls and summed self time."""
    out: dict[str, dict[str, float]] = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
    return out


def install(recorder: Recorder):
    """Wrap the public functions of each `noncompact` module and count the
    Bessel-zero table's lookups.  Returns a function that reads the table
    counters."""
    from noncompact import aps, specfun

    for (mod_name, fn_name), span_name in SPAN_NAMES.items():
        module = importlib.import_module(f"noncompact.{mod_name}")
        count = COUNTS.get((mod_name, fn_name))
        setattr(module, fn_name, recorder.wrap(span_name, getattr(module, fn_name), count))
    for fn_name, fn in list(vars(aps).items()):
        if (
            not fn_name.startswith("_")
            and inspect.isfunction(fn)
            and fn.__module__ == aps.__name__
        ):
            setattr(aps, fn_name, recorder.wrap("aps", fn))

    table = specfun.default_zero_table()
    entries_before = len(table.entries)
    lookups = {"all": 0, "hits": 0}
    get = specfun.BesselZeroTable.get

    def counted_get(self, n, k):
        value = get(self, n, k)
        lookups["all"] += 1
        lookups["hits"] += value is not None
        return value

    specfun.BesselZeroTable.get = counted_get

    def table_counters():
        return {
            "specfun.zeros_computed": len(table.entries) - entries_before,
            "specfun.zero_lookups": lookups["all"],
            "specfun.zero_lookup_hits": lookups["hits"],
        }

    return table_counters
