"""Tests of the benchmark itself: its metric names, its output checks and
how it fails.  They run the workloads at tiny sizes."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import layers
import run
from workloads import TINY, WHY, WORKLOADS

SEED = 5


def _output(name: str) -> bytes:
    op = run.cold_run(["-m", "urndist.cli", *TINY[name].argv(SEED)], run.child_env())
    assert op.returncode == 0, op.stderr.decode()
    return op.stdout


def _replace_line(out: bytes, index: int, edit) -> bytes:
    lines = out.split(b"\n")
    lines[index] = edit(lines[index])
    return b"\n".join(lines)


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(WORKLOADS) == set(TINY) == set(WHY)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WHY
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in layers.LAYER_METRICS.items()
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_pass_reports_every_metric_with_its_unit(name, trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    monkeypatch.setattr(run, "MIN_OPS", 1)
    assert run.main(["--workload", name, "--seed", str(SEED), "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in want
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == [f"{name}-seed{SEED}-e2e.json"] + ([f"{name}-seed{SEED}-trace.json"] if trace else [])
    if trace:
        spans = json.loads((tmp_path / files[1]).read_text())["spans"]
        assert any(s["name"] == "cli.in_process" for s in spans)
        assert all(s["start"] <= s["end"] for s in spans)


def test_table_check_catches_a_changed_row():
    spec, out = TINY["table"], _output("table")
    assert spec.check(out, SEED) == []

    def nudge_pmf_float(line: bytes) -> bytes:
        fields = line.split(b",")
        fields[2] = repr(float(fields[2]) * (1 + 1e-7)).encode()
        return b",".join(fields)

    def wrong_exact(line: bytes) -> bytes:
        fields = line.split(b",")
        fields[3] = b"1/2"
        return b",".join(fields)

    assert spec.check(_replace_line(out, 100, nudge_pmf_float), SEED)
    assert spec.check(_replace_line(out, -2, wrong_exact), SEED)
    assert spec.check(_replace_line(out, 50, lambda line: b""), SEED)


@pytest.mark.parametrize("name", ["sample-walk", "sample-inverse"])
def test_sample_check_catches_an_out_of_support_draw(name):
    spec, out = TINY[name], _output(name)
    assert spec.check(out, SEED) == []
    assert spec.check(_replace_line(out, 7, lambda line: b"%d" % (spec.support + 1)), SEED)
    # A stream that ignores the law: every draw is 1.
    assert spec.check(b"value\n" + b"1\n" * spec.count, SEED)


def test_converge_check_catches_a_changed_distance():
    spec, out = TINY["converge"], _output("converge")
    assert spec.check(out, SEED) == []

    def scale_max_error(line: bytes) -> bytes:
        fields = line.split(b",")
        fields[4] = repr(float(fields[4]) * 1.01).encode()
        return b",".join(fields)

    assert spec.check(_replace_line(out, 2, scale_max_error), SEED)


def test_fails_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for source in (run.ROOT / "perfbench").glob("*.py"):
        shutil.copy(source, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
