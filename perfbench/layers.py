"""The traced run: per-layer timings and counts for one workload.

The run calls the ``urndist`` layers in this process with the workload's
parameters and records a span (name, start, end, parent) around each call.
Calls made inside the program are caught by swapping a module attribute
for a wrapper while the run lasts, so the source under ``src/`` stays as
it is.  A layer's self time is its span minus the spans nested in it.

Scalar ``pmf_float``/``cdf_float`` calls are not wrapped one by one (a span
per call would cost more than the call).  They are timed in a loop of
their own with the same arguments the command makes, and ``cli.self_s``
subtracts that loop where the command makes those calls.

Peak memory is taken with ``tracemalloc`` in a separate pass so that it
does not slow the timed spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

# name -> (unit, the end-to-end metrics and workloads it should move)
LAYER_METRICS = {
    "import.numpy_s": ("s", "setup_s on all; wall_s most on converge"),
    "import.scipy_special_s": ("s", "setup_s on all; wall_s most on converge"),
    "import.click_s": ("s", "setup_s on all; wall_s most on converge"),
    "import.urndist_self_s": ("s", "setup_s on all; wall_s most on converge"),
    "exact.pmf_table_s": ("s", "table first_row_s, wall_s"),
    "exact.pmf_table_rows": ("count", "table first_row_s, wall_s"),
    "exact.pmf_table_peak_mb": ("MB", "table peak_rss_mb"),
    "floats.pmf_float_s": ("s", "table wall_s"),
    "floats.cdf_float_s": ("s", "table and sample-inverse wall_s"),
    "floats.calls": ("count", "table and sample-inverse wall_s"),
    "floats.log_fail_us.direct": ("us", "table wall_s"),
    "floats.log_fail_us.lgamma": ("us", "sample-inverse wall_s"),
    "sampler.sample_urn_walk_batch_s": ("s", "sample-walk first_row_s, wall_s"),
    "sampler.sample_inverse_cdf_batch_s": ("s", "sample-inverse first_row_s, wall_s"),
    "sampler.cdf_table_points": ("count", "sample-inverse first_row_s, wall_s"),
    "sampler.cdf_table_s": ("s", "sample-inverse first_row_s, wall_s"),
    "kernels.urn_walk_batch_s": ("s", "sample-walk wall_s, first_row_s"),
    "kernels.urn_walk_steps": ("count", "sample-walk wall_s, first_row_s"),
    "kernels.urn_walk_ns_per_step": ("ns", "sample-walk wall_s, first_row_s"),
    "kernels.inverse_cdf_table_batch_s": ("s", "sample-inverse wall_s"),
    "kernels.uniform_block_s": ("s", "sample-inverse wall_s"),
    "kernels.pmf_float_range_s": ("s", "converge wall_s"),
    "kernels.pmf_float_range_points": ("count", "converge wall_s"),
    "kernels.pmf_float_range_ns_per_point": ("ns", "converge wall_s"),
    "convergence.convergence_table_s": ("s", "converge wall_s"),
    "convergence.self_s": ("s", "converge wall_s"),
    "cli.in_process_s": ("s", "table and sample-walk wall_s"),
    "cli.self_s": ("s", "table and sample-walk wall_s"),
    "cli.stdout_bytes": ("B", "table and sample-walk wall_s"),
    "trace.gap_s": ("s", "wall_s on all"),
}

IMPORT_RUNS = 3
LOG_FAIL_CALLS = 20_000


class Tracer:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "trace": self.trace_id,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def probe(self, module, attr: str, name: str, count=None):
        """Record a span around every call of ``module.attr`` while open.

        ``count(args, result)`` may return a dict of counts for the span.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as counts:
                result = original(*args, **kwargs)
                if count is not None:
                    counts.update(count(args, result))
            return result

        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus their direct children."""
        ids = {s["id"] for s in self.spans if s["name"] == name}
        children = sum(s["end"] - s["start"] for s in self.spans if s["parent"] in ids)
        return self.total(name) - children

    def count(self, name: str, key: str) -> int:
        return sum(s["counts"].get(key, 0) for s in self.spans if s["name"] == name)

    def dump(self) -> list[dict]:
        t0 = min((s["start"] for s in self.spans), default=0.0)
        return [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in self.spans]


def import_times(python: str, env: dict, cwd: Path) -> dict[str, float]:
    """Medians over ``-X importtime`` runs of a cold ``import urndist.cli``."""
    runs = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import urndist.cli"],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=120, check=True,
        )
        cumulative: dict[str, int] = {}
        urndist_self = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            try:
                self_us, cum_us = int(fields[0]), int(fields[1])
            except ValueError:
                continue  # the column header
            module = fields[2].strip()
            cumulative.setdefault(module, cum_us)
            if module == "urndist" or module.startswith("urndist."):
                urndist_self += self_us
        runs.append({
            "import.numpy_s": cumulative.get("numpy", 0) / 1e6,
            "import.scipy_special_s": cumulative.get("scipy.special", 0) / 1e6,
            "import.click_s": cumulative.get("click", 0) / 1e6,
            "import.urndist_self_s": urndist_self / 1e6,
        })
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def _log_fail_us(tracer: Tracer, floats, params, first: int, name: str) -> float:
    with tracer.span(name) as counts:
        for n in range(first, first + LOG_FAIL_CALLS):
            floats.log_fail(params, n)
        counts["calls"] = LOG_FAIL_CALLS
    return tracer.total(name) / LOG_FAIL_CALLS * 1e6


def _scalar_loop(tracer: Tracer, fn, params, name: str) -> None:
    with tracer.span(name) as counts:
        for n in range(1, params.support_size + 1):
            fn(params, n)
        counts["calls"] = params.support_size


def traced_run(name: str, spec, argv: list[str], seed: int, out_file: Path, trace_id: str):
    """Run workload ``name`` (parameters ``spec``) in process with spans.

    Returns (metrics, spans).

    ``urndist`` must be importable.  The command's stdout goes to
    ``out_file``, which is removed afterwards.
    """
    cli = importlib.import_module("urndist.cli")
    kernels = importlib.import_module("urndist._kernels")
    floats = importlib.import_module("urndist.floats")
    exact = importlib.import_module("urndist.exact")
    tracer = Tracer(trace_id)
    m = dict.fromkeys(LAYER_METRICS, 0.0)

    m["floats.log_fail_us.direct"] = _log_fail_us(
        tracer, floats, exact.UrnParams(total=50_000, good=10), 1, "floats.log_fail.direct")
    m["floats.log_fail_us.lgamma"] = _log_fail_us(
        tracer, floats, exact.UrnParams(total=250_000, good=40), 33, "floats.log_fail.lgamma")

    probes = {
        "table": [(cli, "pmf_table", "exact.pmf_table",
                   lambda a, r: {"rows": len(r.probabilities)})],
        "sample-walk": [
            (cli, "sample_urn_walk_batch", "sampler.sample_urn_walk_batch", None),
            (kernels, "urn_walk_batch", "kernels.urn_walk_batch",
             lambda a, r: {"steps": int(r.sum())}),
        ],
        "sample-inverse": [
            (cli, "sample_inverse_cdf_batch", "sampler.sample_inverse_cdf_batch", None),
            (kernels, "inverse_cdf_table_batch", "kernels.inverse_cdf_table_batch",
             lambda a, r: {"table_points": len(a[0])}),
        ],
        "converge": [
            (cli, "convergence_table", "convergence.convergence_table", None),
            (kernels, "pmf_float_range", "kernels.pmf_float_range",
             lambda a, r: {"points": a[3]}),
        ],
    }[name]
    with contextlib.ExitStack() as stack:
        for module, attr, span_name, count in probes:
            stack.enter_context(tracer.probe(module, attr, span_name, count))
        saved = sys.stdout
        try:
            with open(out_file, "w") as sink, tracer.span("cli.in_process"):
                sys.stdout = sink
                cli.cli.main(args=argv, prog_name="urn", standalone_mode=False)
        finally:
            sys.stdout = saved
    m["cli.stdout_bytes"] = out_file.stat().st_size
    os.remove(out_file)
    m["cli.in_process_s"] = tracer.total("cli.in_process")
    cli_self = tracer.self_time("cli.in_process")

    if name == "table":
        params = exact.UrnParams(total=spec.total, good=spec.good)
        _scalar_loop(tracer, floats.pmf_float, params, "floats.pmf_float")
        _scalar_loop(tracer, floats.cdf_float, params, "floats.cdf_float")
        cli_self -= tracer.total("floats.pmf_float") + tracer.total("floats.cdf_float")
        tracemalloc.start()
        try:
            exact.pmf_table(params)
            m["exact.pmf_table_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    elif name == "sample-inverse":
        params = exact.UrnParams(total=spec.total, good=spec.good)
        _scalar_loop(tracer, floats.cdf_float, params, "floats.cdf_float")
    if name.startswith("sample"):
        with tracer.span("kernels.uniform_block") as counts:
            kernels.uniform_block(seed, 0, spec.count)
            counts["draws"] = spec.count

    m["cli.self_s"] = cli_self
    m["exact.pmf_table_s"] = tracer.total("exact.pmf_table")
    m["exact.pmf_table_rows"] = tracer.count("exact.pmf_table", "rows")
    m["floats.pmf_float_s"] = tracer.total("floats.pmf_float")
    m["floats.cdf_float_s"] = tracer.total("floats.cdf_float")
    m["floats.calls"] = tracer.count("floats.pmf_float", "calls") + tracer.count(
        "floats.cdf_float", "calls")
    m["sampler.sample_urn_walk_batch_s"] = tracer.total("sampler.sample_urn_walk_batch")
    m["sampler.sample_inverse_cdf_batch_s"] = tracer.total("sampler.sample_inverse_cdf_batch")
    m["sampler.cdf_table_points"] = tracer.count("kernels.inverse_cdf_table_batch", "table_points")
    m["sampler.cdf_table_s"] = tracer.self_time("sampler.sample_inverse_cdf_batch")
    m["kernels.urn_walk_batch_s"] = tracer.total("kernels.urn_walk_batch")
    m["kernels.urn_walk_steps"] = steps = tracer.count("kernels.urn_walk_batch", "steps")
    if steps:
        m["kernels.urn_walk_ns_per_step"] = m["kernels.urn_walk_batch_s"] / steps * 1e9
    m["kernels.inverse_cdf_table_batch_s"] = tracer.total("kernels.inverse_cdf_table_batch")
    m["kernels.uniform_block_s"] = tracer.total("kernels.uniform_block")
    m["kernels.pmf_float_range_s"] = tracer.total("kernels.pmf_float_range")
    m["kernels.pmf_float_range_points"] = points = tracer.count("kernels.pmf_float_range", "points")
    if points:
        m["kernels.pmf_float_range_ns_per_point"] = m["kernels.pmf_float_range_s"] / points * 1e9
    m["convergence.convergence_table_s"] = tracer.total("convergence.convergence_table")
    m["convergence.self_s"] = tracer.self_time("convergence.convergence_table")
    return m, tracer.dump()
