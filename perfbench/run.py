"""End-to-end benchmark of the ``urn`` command line, with a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table --seed 0 --seconds 27 --trace 0

Every operation is a cold ``python -m urndist.cli ...`` child process,
started only after the previous one has exited (a closed loop with one
client).  The child runs the checked-out ``src`` through ``PYTHONPATH``,
because the package is not installed.  Its stdout is drained and checked
(see ``workloads.py``); an operation fails when it exits non-zero, prints a
traceback or fails the check.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` also makes the
traced run of ``layers.py`` and prints the per-layer metrics instead.  Both
print a summary with every metric by name and unit, then, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details (quartiles, sample counts, machine, spans) go to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layers
from workloads import WHY, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
LAUNCH = Path(__file__).resolve().parent / "launch.py"

# name -> (unit, better)
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "first_row_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# A timed cold import of urndist.cli after every SETUP_EVERY-th operation.
SETUP_EVERY = 2
MIN_OPS = 3
OP_TIMEOUT_S = 150.0


@dataclass
class Op:
    """One cold child process: its timings, exit status and output."""

    returncode: int
    wall_s: float
    first_row_s: float | None
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("URN_SEED", "URN_BACKEND"):
        env.pop(var, None)
    return env


def cold_run(args: list[str], env: dict[str, str]) -> Op:
    """Run ``python args`` through ``launch.py`` and drain both pipes."""
    report_r, report_w = os.pipe()
    try:
        launched = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-S", str(LAUNCH), str(report_w), sys.executable, *args],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, pass_fds=(report_w,), process_group=0,
        )
    finally:
        os.close(report_w)
    out: list[bytes] = []
    err: list[bytes] = []
    first = None
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ, out)
        sel.register(proc.stderr, selectors.EVENT_READ, err)
        while sel.get_map():
            if time.monotonic() - launched > OP_TIMEOUT_S:
                os.killpg(proc.pid, signal.SIGKILL)
            for key, _ in sel.select(timeout=1.0):
                chunk = os.read(key.fd, 1 << 20)
                if not chunk:
                    sel.unregister(key.fileobj)
                    continue
                if key.data is out and first is None:
                    first = time.monotonic()
                key.data.append(chunk)
    proc.wait()
    proc.stdout.close()
    proc.stderr.close()
    with os.fdopen(report_r, "rb") as report:
        fields = report.read().split()
    if len(fields) != 4:  # the launcher was killed
        return Op(-signal.SIGKILL, time.monotonic() - launched, None, 0.0,
                  b"".join(out), b"".join(err))
    start, end = float(fields[0]), float(fields[1])
    return Op(
        returncode=int(fields[2]),
        wall_s=end - start,
        first_row_s=None if first is None else first - start,
        peak_rss_mb=int(fields[3]) / 1024,
        stdout=b"".join(out),
        stderr=b"".join(err),
    )


def machine_info(seed: int) -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "git_sha": git_sha(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
    }


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(name: str, spec, seed: int, seconds: float):
    """Cold operations for ``seconds`` (at least MIN_OPS), with set-up samples.

    An untimed cold import first checks that ``urndist.cli`` loads and warms
    the file cache (and writes the bytecode of a fresh checkout).  Then a
    timed cold import runs before the first operation and after every
    SETUP_EVERY-th one, so that set-up is sampled across the whole run.
    """
    env = child_env()
    setup = []

    def import_cli() -> float:
        op = cold_run(["-c", "import urndist.cli"], env)
        if op.returncode != 0:
            raise SystemExit(f"error: cannot import urndist.cli from {ROOT / 'src'}:\n"
                             + op.stderr.decode(errors="replace"))
        return op.wall_s

    import_cli()
    ops, problems = [], []
    start = time.perf_counter()
    setup.append(import_cli())
    argv = ["-m", "urndist.cli", *spec.argv(seed)]
    while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
        op = cold_run(argv, env)
        found = []
        if op.returncode != 0:
            found.append(f"exit status {op.returncode}")
        if b"Traceback" in op.stderr:
            found.append("traceback on stderr")
        if not found:
            found = spec.check(op.stdout, seed)
        problems.append(found)
        op.stdout = b""  # checked; do not hold it across operations
        ops.append(op)
        if len(ops) % SETUP_EVERY == 0:
            setup.append(import_cli())
    walls = [op.wall_s for op in ops]
    q1, wall, q3 = quartiles(walls)
    failed = sum(1 for p in problems if p)
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "items_per_s": spec.items / wall,
        "first_row_s": statistics.median(
            op.first_row_s if op.first_row_s is not None else op.wall_s for op in ops),
        "peak_rss_mb": statistics.median(op.peak_rss_mb for op in ops),
    }
    detail = {
        "workload": name,
        "argv": spec.argv(seed),
        "items": spec.items,
        "setup_samples_s": setup,
        "wall_s": {"median": wall, "q1": q1, "q3": q3, "n": len(walls), "samples": walls},
        "first_row_samples_s": [op.first_row_s for op in ops],
        "peak_rss_samples_mb": [op.peak_rss_mb for op in ops],
        "attempted": len(ops),
        "failed": failed,
        "fail_frac": failed / len(ops),
        "problems": [p for p in problems if p],
    }
    return e2e, detail


def trace(name: str, spec, seed: int, e2e: dict, tag: str) -> tuple[dict, list[dict]]:
    """The traced run in this process, after the untraced one: (per-layer metrics, spans)."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    RESULTS.mkdir(parents=True, exist_ok=True)
    layer, spans = layers.traced_run(
        name, spec, spec.argv(seed), seed, RESULTS / f"{tag}-cli-stdout.tmp", trace_id=tag)
    layer.update(layers.import_times(sys.executable, child_env(), ROOT))
    layer["trace.gap_s"] = e2e["wall_s"] - e2e["setup_s"] - layer["cli.in_process_s"]
    return layer, spans


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "urndist" / "cli.py").is_file():
        print(f"error: no urndist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    name, spec = args.workload, WORKLOADS[args.workload]
    info = machine_info(args.seed)
    e2e, detail = measure(name, spec, args.seed, args.seconds)
    tag = f"{name}-seed{args.seed}"
    write_json(RESULTS / f"{tag}-e2e.json", {"machine": info, "why": WHY[name], **detail,
                                             "metrics": e2e})

    print(f"# {name} seed={args.seed} sha={info['git_sha']} nproc={info['nproc']} "
          f"cpu={info['cpu']!r} python={info['python']} numpy={info['numpy']} "
          f"scipy={info['scipy']} numba={info['numba']}")
    w = detail["wall_s"]
    print(f"wall_s quartiles {w['q1']:.4f} {w['median']:.4f} {w['q3']:.4f} s, n={w['n']}")
    print(f"fail_frac {detail['fail_frac']:.4f} (of {detail['attempted']})")
    for problem in detail["problems"]:
        print(f"failed: {'; '.join(problem)}")
    for metric, value in e2e.items():
        print(f"{metric} {value:.6g} {E2E_METRICS[metric][0]}")

    units = {m: E2E_METRICS[m][0] for m in e2e}
    metrics = e2e
    if args.trace:
        layer, spans = trace(name, spec, args.seed, e2e, tag)
        write_json(RESULTS / f"{tag}-trace.json", {"machine": info, "metrics": layer,
                                                   "spans": spans})
        for metric, value in layer.items():
            unit, moves = layers.LAYER_METRICS[metric]
            print(f"{metric} {value:.6g} {unit}  (moves {moves})")
        units = {m: layers.LAYER_METRICS[m][0] for m in layer}
        metrics = layer
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
