"""End-to-end CLI contract: flags, formats, exit codes, determinism."""

import ast
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import urndist
from urndist import checks
from urndist import cli as cli_mod
from urndist.checks import FamilyResult
from urndist.cli import _require_printable, _require_walk_budget, main
from urndist.errors import ResourceGuardError
from urndist.exact import UrnParams
from urndist.floats import cdf_float, pmf_float


class _Tee(io.BytesIO):
    """A captured stream that also copies its bytes into ``mixed``."""

    def __init__(self, mixed: io.BytesIO):
        super().__init__()
        self.mixed = mixed

    def write(self, data):
        self.mixed.write(data)
        return super().write(data)


@dataclass
class _Result:
    exit_code: int
    stdout_bytes: bytes
    stderr_bytes: bytes
    output_bytes: bytes

    stdout = property(lambda self: self.stdout_bytes.decode())
    stderr = property(lambda self: self.stderr_bytes.decode())
    # stdout and stderr interleaved, as a terminal shows them
    output = property(lambda self: self.output_bytes.decode())


class _Runner:
    """Runs ``cli.main`` in process on an argv list.  ``env`` is laid over
    os.environ for the call; stdout and stderr are
    captured; an exit status becomes ``exit_code``, and any other exception
    exit code 1 unless ``catch_exceptions`` is false."""

    def invoke(self, args, env=None, catch_exceptions=True):
        mixed = io.BytesIO()
        out, err = _Tee(mixed), _Tee(mixed)
        text_out, text_err = (io.TextIOWrapper(b, encoding="utf-8", write_through=True)
                              for b in (out, err))
        exit_code = 0
        with mock.patch.dict(os.environ, env or {}), \
                contextlib.redirect_stdout(text_out), contextlib.redirect_stderr(text_err):
            try:
                main(list(args))
            except SystemExit as exc:
                code = exc.code
                exit_code = code if isinstance(code, int) else int(code is not None)
            except Exception:
                if not catch_exceptions:
                    raise
                exit_code = 1
        return _Result(exit_code, out.getvalue(), err.getvalue(), mixed.getvalue())


@pytest.fixture
def runner():
    return _Runner()


def run(runner, *args, env=None):
    return runner.invoke(list(args), env=env, catch_exceptions=False)


def _refused_within_2s(*args):
    """Run the CLI in a fresh process; it must exit 3 within 2 s, with empty
    stdout and one stderr line."""
    root = os.path.dirname(os.path.dirname(urndist.__file__))
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "urndist.cli", *args],
        env=dict(os.environ, PYTHONPATH=root),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert time.perf_counter() - start < 2.0
    assert out.returncode == 3
    assert out.stdout == ""
    assert "Traceback" not in out.stderr
    assert len(out.stderr.splitlines()) == 1
    return out


def _stats_row_within_2s(total, good):
    """Run `urn stats` in a fresh process; it must exit 0 within 2 s.
    Returns its CSV row."""
    root = os.path.dirname(os.path.dirname(urndist.__file__))
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "urndist.cli", "stats", "--n", str(total), "--k", str(good)],
        env=dict(os.environ, PYTHONPATH=root),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert time.perf_counter() - start < 2.0
    assert out.returncode == 0
    return out.stdout.splitlines()[1]


def _peak_rss_kb(*args):
    """Peak RSS in kB of the CLI run on ``args`` in a fresh process, stdout
    discarded.  A small launcher reads the child's own peak: a process
    spawned from the test process would inherit its peak across exec."""
    root = os.path.dirname(os.path.dirname(urndist.__file__))
    launcher = (
        "import resource, subprocess, sys\n"
        "subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", launcher, sys.executable, "-m", "urndist.cli", *args],
        env=dict(os.environ, PYTHONPATH=root),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return int(out.stdout)


# how the CSV cells of each subcommand read back as its JSON values
_CSV_CELLS = {
    "table": (int, str, float, str, float),
    "stats": (str, str, int, lambda s: [int(v) for v in s.split("..")],
              lambda s: [int(v) for v in s.split("..")]),
    "sample": (int,),
    "converge": (int, int, float, float, float, int),
    "check": (str, int, int, lambda s: s or None),
}


def _sample_case(method, case_id):
    args = ("sample", "--n", "10000", "--k", "40", "--count", "20000",
            "--method", method, "--seed", "7")
    params = {"n": 10000, "k": 40, "count": 20000, "seed": 7, "method": method}
    return pytest.param(args, params, id=case_id)


# urns for the exact cells of `urn table`: any urn up to 300 objects, the
# edges good = 1 and good = total, and totals up to 2^70 with at most 64 rows
_SMALL_TOTALS = st.integers(1, 300)
_TABLE_URNS = st.one_of(
    _SMALL_TOTALS.flatmap(lambda total: st.tuples(st.just(total), st.integers(1, total))),
    _SMALL_TOTALS.map(lambda total: (total, 1)),
    _SMALL_TOTALS.map(lambda total: (total, total)),
    st.integers(301, 2**70).flatmap(
        lambda total: st.tuples(st.just(total), st.integers(total - 63, total))),
)


def _table_fuzz_cases(seed, count):
    """(total, good, format) argument strings for `urn table`: the
    adversarial ones in both formats, then ``count`` drawn from a seeded
    generator.  A valid urn among them has at most 3000 rows or more than
    ``_TABLE_ROWS_LIMIT``, so no case writes 10^5 rows."""
    limit = cli_mod._TABLE_ROWS_LIMIT
    wide, huge = 10**4299, 2**600  # 4300 digits: the int-to-str limit
    fixed = [
        (wide, 1), (wide, wide), (wide, wide - 5), (wide, wide + 1), ("1" + "0" * 4300, 1),
        (huge, 1), (huge, huge // 2), (huge, huge - 1000), (huge, huge),
        (-5, 1), (5, -1), (-5, -5), (5, 0), (0, 0), (5, 6), (7, 7), (1, 1),
        # a support one past the row limit
        (limit + 1, 1), (limit + 7, 7),
        # C(7372827, 1000) has 4300 digits and C(7372828, 1000) 4301: the
        # two sides of the digit guard, at 1001 rows
        (7372827, 7372827 - 1000), (7372828, 7372828 - 1000),
    ]
    cases = [(total, good, fmt) for total, good in fixed for fmt in ("csv", "json")]
    rng = random.Random(seed)
    for _ in range(count):
        total = rng.choice([
            rng.randint(-3, 3000),
            10 ** rng.randint(4, 4299) + rng.randint(-9, 9),
            huge + rng.randint(-9, 9),
            -rng.randint(1, 10**20),
        ])
        good = rng.choice([
            0, -1, 1, total, total + 1, total - rng.randint(0, 1000), rng.randint(1, 3000),
        ])
        cases.append((total, good, rng.choice(["csv", "json"])))
    for total, good, _ in cases:
        if isinstance(total, int):  # the 4301-digit string is no int here
            assert not (1 <= good <= total and 10**5 <= total - good + 1 <= limit)
    return [(str(total), str(good), fmt) for total, good, fmt in cases]


def _stats_fuzz_cases(seed, count):
    """(total, good, format) argument strings for `urn stats`, as
    ``_table_fuzz_cases`` makes them.  Urns whose exact median is slow are
    left out: the median's probes multiply up to ``good`` factors of the
    size of ``total``, so `stats --n 2**600 --k 1000` did not end in 20 s
    and `--n 10**2000 --k 30` took 122 s.  That cost is the median's, not
    the CLI's.  A valid urn here has a total of at most 3000, at most 3
    good objects, at least half of them good (the median is 1), or a total
    of 2200 digits or more, whose variance passes the int-to-str limit
    before the median runs."""
    wide, huge = 10**4299, 2**600  # 4300 digits: the int-to-str limit
    fixed = [
        (wide, 1), (wide, 3), (wide, wide), (wide, wide - 5), (wide, wide + 1),
        ("1" + "0" * 4300, 1),
        (huge, 1), (huge, 2), (huge, 3), (huge, huge // 2), (huge, huge - 1000),
        (huge, huge), (huge, huge + 1),
        (-5, 1), (5, -1), (-5, -5), (5, 0), (0, 0), (5, 6), (7, 7), (1, 1),
        (10**6, 5 * 10**5), (10**8, 1),
    ]
    cases = [(total, good, fmt) for total, good in fixed for fmt in ("csv", "json")]
    rng = random.Random(seed)
    for _ in range(count):
        total = rng.choice([
            rng.randint(-3, 3000),
            10 ** rng.randint(2200, 4299) + rng.randint(-9, 9),
            huge + rng.randint(-9, 9),
            -rng.randint(1, 10**20),
        ])
        goods = [0, -1, 1, 2, 3, total, total + 1, total - rng.randint(0, 1000)]
        if not 0 < abs(total - huge) < 10:
            goods.append(rng.randint(1, 3000))
        cases.append((total, rng.choice(goods), rng.choice(["csv", "json"])))
    for total, good, _ in cases:
        if isinstance(total, int) and 1 <= good <= total:
            assert (total <= 3000 or good <= 3 or 2 * good >= total
                    or total >= 10**2199), (total, good)
    return [(str(total), str(good), fmt) for total, good, fmt in cases]


def _slow_walk(total, good, count):
    # more than 2e7 of the expected lane-steps that the `sample --method
    # urn` guard bounds, but within its limit
    work = (count + cli_mod._WALK_STEP_LANES) * (total + 1)
    return 2 * 10**7 * (good + 1) < work <= cli_mod._WALK_WORK_LIMIT * (good + 1)


def _sample_fuzz_cases(seed, count):
    """(total, good, count, method, format) argument strings for `urn
    sample`: the adversarial ones in both methods and formats, then
    ``count`` drawn from a seeded generator.  Two kinds of valid runs are
    left out, because they take seconds by design or for a cause of their
    own, not the CLI's:

    - the inverse sampler on urns below the float domain (total < 2^511)
      with a mean draw above 10^4: its search scans the cdf blocks up to
      the largest quantile, once per 2^16 draws, so 250,000 draws at
      (10^8, 1) took 10 s and (10^12, 1) does not end;
    - urn walks of more than 2e7 expected lane-steps: the walk guard
      accepts up to ``_WALK_WORK_LIMIT`` = 2e9 of them, about 10 s.

    A valid count is at most 2000 or passes the output guard (more than
    2^40 bytes of CSV), so no case writes a long stream."""
    wide, huge = 10**4299, 2**600  # 4300 digits: the int-to-str limit
    fixed = [
        (wide, 1, 3), (wide, wide, 3), (wide, wide - 5, 3), (wide, wide + 1, 3),
        ("1" + "0" * 4300, 1, 3), (huge, 1, 3), (huge, huge - 5, 3), (huge, huge, 3),
        (2**511 - 1, 2**511 - 7, 3), (2**64 + 5, 2**64, 3), (2**63 + 5, 2**63, 3),
        (-5, 1, 3), (5, -1, 3), (-5, -5, 3), (5, 0, 3), (0, 0, 3), (5, 6, 3), (7, 7, 3),
        (1, 1, 1), (10, 3, 0), (10, 3, -1), (10, 3, 10**12), (10, 3, 2**62), (10, 3, huge),
        (10, 3, wide), (10, 3, "1" + "0" * 4300), (10, 3, "1.5"), (10, 3, ""),
        (10**4, 1, 2000),
    ]
    cases = [(*case, method, fmt) for case in fixed
             for method in ("urn", "inverse") for fmt in ("csv", "json")]
    rng = random.Random(seed)
    while len(cases) < 4 * len(fixed) + count:
        total = rng.choice([
            rng.randint(-3, 3000),
            10 ** rng.randint(4, 4299) + rng.randint(-9, 9),
            huge + rng.randint(-9, 9),
            -rng.randint(1, 10**20),
        ])
        good = rng.choice([
            0, -1, 1, total, total + 1, total - rng.randint(0, 1000), rng.randint(1, 3000),
        ])
        draws = rng.choice([
            rng.randint(-2, 2000), 10 ** rng.randint(12, 4299), 2**62, huge, "x",
        ])
        method = rng.choice(["urn", "inverse"])
        if 1 <= good <= total and isinstance(draws, int) and 1 <= draws <= 2000:
            if method == "inverse" and total < 2**511 and total + 1 > 10**4 * (good + 1):
                continue
            if method == "urn" and _slow_walk(total, good, draws):
                continue
        cases.append((total, good, draws, method, rng.choice(["csv", "json"])))
    return [(str(total), str(good), str(draws), method, fmt)
            for total, good, draws, method, fmt in cases]


def _slow_sweep(max_n, force):
    # a --force sweep past _SWEEP_LIMIT, up to _FORCE_LIMIT: 20-216 s by design
    return (force and isinstance(max_n, int)
            and checks._SWEEP_LIMIT < max_n <= checks._FORCE_LIMIT)


def _check_fuzz_cases(seed, count):
    """(max_n, force, format) arguments for `urn check`: the adversarial
    ones, then ``count`` drawn from a seeded generator.  A sweep that runs
    goes up to a total of at most 30 (about 0.3 s); the accepted `--force`
    sweeps past ``_SWEEP_LIMIT`` are left out (``_slow_sweep``)."""
    wide, huge = 10**4299, 2**600  # 4300 digits: the int-to-str limit
    fixed = [
        -1, 0, 1, 2, 12, checks._SWEEP_LIMIT + 1, checks._FORCE_LIMIT,
        checks._FORCE_LIMIT + 1, 2 * 10**12, huge, wide, -wide, "1" + "0" * 4300,
        "1.5", "x", "",
    ]
    cases = [(max_n, force, fmt) for max_n in fixed for force in (False, True)
             for fmt in ("csv", "json") if not _slow_sweep(max_n, force)]
    rng = random.Random(seed)
    while len(cases) < 4 * len(fixed) - 4 + count:  # 2 fixed values are slow with --force
        max_n = rng.choice([
            rng.randint(-3, 30), checks._SWEEP_LIMIT + rng.randint(1, 10**6),
            10 ** rng.randint(3, 4299), -rng.randint(1, 10**20), huge + rng.randint(-9, 9),
        ])
        force = rng.random() < 0.5
        if not _slow_sweep(max_n, force):
            cases.append((max_n, force, rng.choice(["csv", "json"])))
    return [(str(max_n), force, fmt) for max_n, force, fmt in cases]


def _assert_one_line_or_output(result, case, codes=(0, 2, 3)):
    # an exit in `codes`, no traceback and at most one `error:` line; a
    # refusal writes nothing on stdout and that one line on stderr
    assert result.exit_code in codes, case
    assert "Traceback" not in result.stderr, case
    lines = result.stderr.splitlines()
    assert sum(line.startswith("error: ") for line in lines) <= 1, case
    if result.exit_code in (2, 3):
        assert result.stdout == "", case
        assert len(lines) == 1 and lines[0].startswith("error: "), case
    elif result.exit_code == 0:
        assert lines == [], case


class TestTable:
    def test_uniform_three_csv(self, runner):
        result = run(runner, "table", "--n", "3", "--k", "1")
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "n,pmf_exact,pmf_float,cdf_exact,cdf_float"
        assert len(lines) == 4
        assert all(line.split(",")[1] == "1/3" for line in lines[1:])

    def test_degenerate_single_row(self, runner):
        result = run(runner, "table", "--n", "2", "--k", "2")
        lines = result.output.splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[1] == "1/1"
        assert lines[1].split(",")[3] == "1/1"

    def test_json_schema_and_first_record(self, runner):
        result = run(runner, "table", "--n", "10", "--k", "3", "--format", "json")
        payload = json.loads(result.output)
        assert payload["schema_version"] == 2
        assert payload["params"] == {"n": 10, "k": 3}
        assert len(payload["rows"]) == 8
        assert payload["rows"][0]["pmf_exact"] == "3/10"
        assert isinstance(payload["rows"][0]["pmf_float"], float)

    @pytest.mark.parametrize(
        "args, params",
        [
            pytest.param(("table", "--n", "2", "--k", "2"), {"n": 2, "k": 2}, id="2-2"),
            pytest.param(("table", "--n", "10", "--k", "3"), {"n": 10, "k": 3}, id="10-3"),
            # spans three float blocks and 70 write chunks
            pytest.param(("table", "--n", "70000", "--k", "3"), {"n": 70000, "k": 3},
                         id="70000-3"),
            # row 1, then one full write chunk, and then one row more
            pytest.param(("table", "--n", "1027", "--k", "3"), {"n": 1027, "k": 3},
                         id="1027-3"),
            pytest.param(("table", "--n", "1028", "--k", "3"), {"n": 1028, "k": 3},
                         id="1028-3"),
            # good = 1: every support point is a mode
            pytest.param(("stats", "--n", "12", "--k", "1"), {"n": 12, "k": 1},
                         id="stats-12-1"),
            pytest.param(("stats", "--n", "1000", "--k", "7"), {"n": 1000, "k": 7},
                         id="stats-1000-7"),
            _sample_case("urn", "sample-urn"),
            _sample_case("inverse", "sample-inverse"),
            pytest.param(("converge", "--p-num", "1", "--p-den", "10", "--ns", "100,1000"),
                         {"p": "1/10", "ns": [100, 1000]}, id="converge"),
            pytest.param(("check", "--max-n", "6"), {"max_n": 6, "force": False}, id="check"),
        ],
    )
    def test_json_is_json_dumps_of_the_csv_rows(self, runner, args, params):
        lines = run(runner, *args).output.splitlines()
        columns, cells = lines[0].split(","), _CSV_CELLS[args[0]]
        rows = [
            dict(zip(columns, (cell(v) for cell, v in zip(cells, line.split(",")))))
            for line in lines[1:]
        ]
        if len(columns) == 1:  # one column: the rows are bare values
            rows = [row[columns[0]] for row in rows]
        payload = {"schema_version": 2, "params": params, "rows": rows}
        result = run(runner, *args, "--format", "json")
        assert result.exit_code == 0
        assert result.output == json.dumps(payload, indent=2) + "\n"

    def test_csv_header_goes_out_with_the_first_row(self, monkeypatch):
        # the first write is the header and row 1, made before row 2: a
        # header written alone leaves stdout non-empty when row 1 fails, and
        # one held for a full chunk holds row 1 back by 1023 rows
        events = []
        real_rows = cli_mod._table_rows

        def recorded_rows(params):
            for n, row in enumerate(real_rows(params), start=1):
                events.append(("row", n))
                yield row

        class Stdout:
            def write(self, text):
                events.append(("write", text))
                return len(text)

            def flush(self):
                pass

        monkeypatch.setattr(cli_mod, "_table_rows", recorded_rows)
        monkeypatch.setattr(sys, "stdout", Stdout())
        main(["table", "--n", "70000", "--k", "3"])
        output = "".join(text for kind, text in events if kind == "write")
        header, first, _ = output.split("\n", 2)
        assert header == "n,pmf_exact,pmf_float,cdf_exact,cdf_float"
        assert first.startswith("1,3/70000,")
        assert events[:3] == [("row", 1), ("write", f"{header}\n{first}\n"), ("row", 2)]
        assert len(output.splitlines()) == 70000 - 3 + 2

    def test_floats_have_17_significant_digits(self, runner):
        result = run(runner, "table", "--n", "3", "--k", "1")
        pmf_float_field = result.output.splitlines()[1].split(",")[2]
        assert pmf_float_field == "0.33333333333333331"

    def test_invalid_params_exit_2(self, runner):
        result = run(runner, "table", "--n", "3", "--k", "0")
        assert result.exit_code == 2
        assert "error" in result.stderr

    def test_oversized_support_exit_3(self, runner):
        result = run(runner, "table", "--n", "2000000", "--k", "1")
        assert result.exit_code == 3
        assert "limit" in result.stderr

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unprintable_fractions_exit_3(self, runner, fmt):
        # C(20000, 10000) has 6019 digits, past Python's default 4300
        result = run(runner, "table", "--n", "20000", "--k", "10000", "--format", fmt)
        assert result.exit_code == 3
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert len(result.stderr.splitlines()) == 1
        assert "digits" in result.stderr

    def test_printable_fractions_still_written(self, runner):
        result = run(runner, "table", "--n", "2000", "--k", "1000")
        assert result.exit_code == 0
        assert len(result.output.splitlines()) == 1002

    def test_digit_guard_is_exact_at_the_limit(self, monkeypatch):
        # C(7372827, 1000) has 4300 digits and C(7372828, 1000) has 4301
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        for good in (1000, 7372827 - 1000):
            _require_printable(7372827, good)
        for good in (1000, 7372828 - 1000):
            with pytest.raises(ResourceGuardError):
                _require_printable(7372828, good)

    def test_digit_limit_zero_means_unlimited(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        _require_printable(20000, 10000)

    @pytest.mark.parametrize(
        "total, good, digest",
        [
            (50000, 10, "c95dd720a49b60468f03aa5f80c93dce140879b42b9f00b20d2fe75e6af184a7"),
            (70000, 3, "3e9a04df1926ed8046aafe942a8430d4904677dc121eff0717ce8a645ce9b095"),
            # C(2000, 1000) has 600 digits
            (2000, 1000, "80bc751d1596179a3bbc9d8b131efe43f87288755b44e2af0441909f5fcf0322"),
        ],
    )
    def test_exact_columns_pinned(self, runner, total, good, digest):
        # n, pmf_exact and cdf_exact, as `cut -d, -f1,2,4` prints them
        result = run(runner, "table", "--n", str(total), "--k", str(good))
        assert result.exit_code == 0
        exact = "".join(
            ",".join(line.split(",")[i] for i in (0, 1, 3)) + "\n"
            for line in result.output.splitlines()
        )
        assert hashlib.sha256(exact.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("csv", "e06e6dd31b7406aa647ee5da489612b52e217c27818978f0816e0b0e86221764"),
            ("json", "7058826229a6debf702bdcaeef2eabffbe1dedb11687b408d88689f962675987"),
        ],
    )
    def test_large_coefficients_pinned(self, runner, fmt, digest):
        # C(2000, 1000) has 600 digits: the whole output, all 1001 rows, its
        # floats the correctly rounded quotients of the exact cells
        result = run(runner, "table", "--n", "2000", "--k", "1000", "--format", fmt)
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(_TABLE_URNS)
    def test_exact_cells_are_the_law_in_lowest_terms(self, urn):
        total, good = urn
        full = math.comb(total, good)
        rows = list(cli_mod._table_rows(UrnParams(total, good)))
        assert [row[0] for row in rows] == list(range(1, total - good + 2))
        for n, pmf_cell, pmf_float, cdf_cell, cdf_float in rows:
            pmf = Fraction(math.comb(total - n, good - 1), full)
            cdf = 1 - Fraction(math.comb(total - n, good), full)
            assert pmf_cell == f"{pmf.numerator}/{pmf.denominator}", (n, pmf_cell)
            assert cdf_cell == f"{cdf.numerator}/{cdf.denominator}", (n, cdf_cell)
            # the float cells are the doubles nearest the exact ones
            assert pmf_float == float(Fraction(pmf_cell)), (n, pmf_float)
            assert cdf_float == float(Fraction(cdf_cell)), (n, cdf_float)
        cdf_column = [row[4] for row in rows]
        assert cdf_column[-1] == 1.0
        assert all(a <= b for a, b in zip(cdf_column, cdf_column[1:]))

    def test_fuzzed_arguments_end_in_one_line_or_a_table(self, runner):
        for total, good, fmt in _table_fuzz_cases(seed=2020, count=40):
            case = (f"{total[:8]}..({len(total)} chars)", f"{good[:8]}..({len(good)} chars)", fmt)
            start = time.perf_counter()
            result = run(runner, "table", "--n", total, "--k", good, "--format", fmt)
            assert time.perf_counter() - start < 2.0, case
            assert result.exit_code in (0, 2, 3), case
            lines = result.stderr.splitlines()
            if result.exit_code == 0:
                assert lines == [], case
            else:
                assert result.stdout == "", case
                assert len(lines) == 1 and lines[0].startswith("error: "), case

    @pytest.mark.parametrize("total, good", [(70000, 3), (2000, 37)])
    def test_float_columns_match_scalar_floats(self, runner, total, good):
        result = run(runner, "table", "--n", str(total), "--k", str(good))
        rows = [line.split(",") for line in result.output.splitlines()[1:]]
        params = UrnParams(total, good)
        assert len(rows) == params.support_size
        cdf_column = []
        for n, row in enumerate(rows, start=1):
            assert row[0] == str(n)
            for got, want in ((float(row[2]), pmf_float(params, n)),
                              (float(row[4]), cdf_float(params, n))):
                if abs(want) >= sys.float_info.min:
                    assert got == pytest.approx(want, rel=1e-12, abs=0), (n, got, want)
            cdf_column.append(float(row[4]))
        assert all(a <= b for a, b in zip(cdf_column, cdf_column[1:]))
        assert cdf_column[-1] == 1.0

    def test_memory_does_not_grow_with_support(self):
        def peak_kb(total):
            return _peak_rss_kb("table", "--n", str(total), "--k", "2")

        assert peak_kb(300000) - peak_kb(100000) < 4 * 1024

    def test_json_memory_close_to_csv(self):
        # the JSON writer holds one chunk of row dicts and its text at a
        # time: 8192-row chunks peaked 10.7 MB above CSV at this urn
        args = ("table", "--n", "50000", "--k", "10", "--format")
        assert _peak_rss_kb(*args, "json") - _peak_rss_kb(*args, "csv") < 3 * 1024


class TestStats:
    def test_example_csv(self, runner):
        result = run(runner, "stats", "--n", "10", "--k", "3")
        lines = result.output.splitlines()
        assert lines[0] == "mean,variance,median,mode,support"
        assert lines[1] == "11/4,231/80,2,1..1,1..8"

    def test_uniform_variance(self, runner):
        result = run(runner, "stats", "--n", "9", "--k", "1")
        row = result.output.splitlines()[1].split(",")
        assert row[0] == "5/1"
        assert row[1] == "20/3"
        assert row[3] == "1..9"

    def test_degenerate_json(self, runner):
        result = run(runner, "stats", "--n", "5", "--k", "5", "--format", "json")
        record = json.loads(result.output)["rows"][0]
        assert record == {
            "mean": "1/1",
            "variance": "0/1",
            "median": 1,
            "mode": [1, 1],
            "support": [1, 1],
        }

    def test_invalid_exit_2(self, runner):
        assert run(runner, "stats", "--n", "0", "--k", "0").exit_code == 2

    def test_median_at_huge_binomial_within_2s(self):
        # C(10**6, 5*10**5) has about 300k digits; the median, 1, must not
        # need it
        assert _stats_row_within_2s(1000000, 500000).split(",")[2] == "1"

    def test_mode_of_huge_uniform_urn_within_2s(self):
        # good = 1: every draw is a mode, written as an interval like the
        # support (listed one by one, 10**6 draws took 6.9 MB)
        row = _stats_row_within_2s(100000000, 1)
        assert row.endswith(",1..100000000,1..100000000")

    def test_fuzzed_arguments_end_in_one_line_or_a_row(self, runner):
        for total, good, fmt in _stats_fuzz_cases(seed=2022, count=40):
            case = (f"{total[:8]}..({len(total)} chars)", f"{good[:8]}..({len(good)} chars)", fmt)
            start = time.perf_counter()
            result = run(runner, "stats", "--n", total, "--k", good, "--format", fmt)
            assert time.perf_counter() - start < 2.0, case
            assert result.exit_code in (0, 2, 3), case
            assert "Traceback" not in result.stderr, case
            lines = result.stderr.splitlines()
            if result.exit_code == 0:
                assert lines == [], case
            else:
                assert result.stdout == "", case
                assert len(lines) == 1 and lines[0].startswith("error: "), case

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unprintable_variance_exit_3(self, runner, fmt):
        # the variance at n = 10**2200 has about 4400 digits, past the
        # default int-to-str limit of 4300; n = 10**2100 stays under it
        result = run(runner, "stats", "--n", str(10**2200), "--k", "3", "--format", fmt)
        assert result.exit_code == 3
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert len(result.stderr.splitlines()) == 1
        assert "digits" in result.stderr
        assert run(runner, "stats", "--n", str(10**2100), "--k", "3",
                   "--format", fmt).exit_code == 0


class TestSample:
    def test_degenerate_all_ones(self, runner):
        result = run(runner, "sample", "--n", "5", "--k", "5", "--count", "3")
        assert result.output.splitlines() == ["value", "1", "1", "1"]

    def test_repeated_runs_identical(self, runner):
        args = ("sample", "--n", "10", "--k", "3", "--count", "200", "--seed", "42")
        assert run(runner, *args).output == run(runner, *args).output

    def test_methods_give_different_streams(self, runner):
        urn = run(runner, "sample", "--n", "10", "--k", "3", "--count", "50",
                  "--seed", "1", "--method", "urn")
        inv = run(runner, "sample", "--n", "10", "--k", "3", "--count", "50",
                  "--seed", "1", "--method", "inverse")
        assert urn.output != inv.output

    def test_unknown_method_exit_2(self, runner):
        result = runner.invoke(
            ["sample", "--n", "10", "--k", "3", "--count", "1", "--method", "alias"]
        )
        assert result.exit_code == 2

    def test_env_seed_default_and_flag_override(self, runner):
        base = ("sample", "--n", "10", "--k", "3", "--count", "30")
        via_env = run(runner, *base, env={"URN_SEED": "42"})
        via_flag = run(runner, *base, "--seed", "42")
        flag_wins = run(runner, *base, "--seed", "7", env={"URN_SEED": "42"})
        other = run(runner, *base, "--seed", "7")
        assert via_env.output == via_flag.output
        assert flag_wins.output == other.output
        assert via_env.output != flag_wins.output

    def test_bad_env_seed_exit_2(self, runner):
        result = runner.invoke(
            ["sample", "--n", "10", "--k", "3", "--count", "1"],
            env={"URN_SEED": "not-a-number"},
        )
        assert result.exit_code == 2

    def test_balanced_frequency_documented_seed(self, runner):
        result = run(runner, "sample", "--n", "2", "--k", "1",
                     "--count", "100000", "--seed", "7")
        values = [int(v) for v in result.output.splitlines()[1:]]
        freq_one = values.count(1) / len(values)
        assert 0.494 <= freq_one <= 0.506

    def test_json_payload(self, runner):
        result = run(runner, "sample", "--n", "10", "--k", "3", "--count", "5",
                     "--seed", "11", "--method", "inverse", "--format", "json")
        payload = json.loads(result.output)
        assert payload["params"]["method"] == "inverse"
        assert payload["params"]["seed"] == 11
        assert len(payload["rows"]) == 5
        assert all(isinstance(v, int) for v in payload["rows"])

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            pytest.param(
                "csv", "ffc61366e693936bd229e40c0b1f364c7584ef3110ec8edeaa946ea1c242c84f",
                id="csv"),
            pytest.param(
                "json", "e6765ca80e5ebc36bf0710d5a19f62d61d53aa2ab34f99934640e03ee8039127",
                id="json"),
        ],
    )
    def test_urn_walk_stream_pinned(self, runner, fmt, digest):
        result = run(runner, "sample", "--n", "10000", "--k", "40", "--count", "20000",
                     "--method", "urn", "--seed", "7", "--format", fmt)
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest

    @pytest.mark.parametrize(
        "total, good, count, seed, fmt, digest",
        [
            pytest.param(
                250000, 40, 20000, 7, "csv",
                "76bf8f417b11babd87afac82c7180be0126eb67692b9081c9b074a7771d28086",
                id="250000-40-csv"),
            pytest.param(
                250000, 40, 20000, 7, "json",
                "22e417d5ca62171acd60aeda167bb1969a3348aa769e84968f6a11fb312285d2",
                id="250000-40-json"),
            # two and seven cdf blocks
            pytest.param(
                33168, 3, 4000, 3, "csv",
                "a0c930015966d5162624fdbdfb9a1bf07162c40507220089ee6864865797b707",
                id="33168-3-csv"),
            pytest.param(
                200000, 1, 2000, 5, "csv",
                "ebd7e22bd3c0643f5d029044f48b87272bcb1946bf3a01db5cd3d4b373d9d2ff",
                id="200000-1-csv"),
        ],
    )
    def test_inverse_stream_pinned(self, runner, total, good, count, seed, fmt, digest):
        result = run(runner, "sample", "--n", str(total), "--k", str(good),
                     "--count", str(count), "--method", "inverse",
                     "--seed", str(seed), "--format", fmt)
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest

    # the benchmark's sample commands: 250000 draws cross three chunks of
    # cli._SAMPLE_CHUNK draws
    @pytest.mark.parametrize(
        "method, total, fmt, digest",
        [
            pytest.param(
                "urn", 10000, "csv",
                "0ca9221896f2db74afa9ea984a9965948f1f552b126cd11eaef5faae6555ec94",
                id="urn-csv"),
            pytest.param(
                "urn", 10000, "json",
                "9e51ac1d55a0a3f3823217a3f7f670c10626ca05b68b9221ca553058a8f64774",
                id="urn-json"),
            pytest.param(
                "inverse", 250000, "csv",
                "717daa37f550be0faaee68baea704dec16fb80b8bd8e724a11181835a4f76999",
                id="inverse-csv"),
            pytest.param(
                "inverse", 250000, "json",
                "591899adb1e1a091d0097adecf0525763bd99f46768ab54b4bc2387654c03b59",
                id="inverse-json"),
        ],
    )
    def test_benchmark_streams_pinned(self, runner, method, total, fmt, digest):
        result = run(runner, "sample", "--n", str(total), "--k", "40", "--count", "250000",
                     "--method", method, "--seed", "7", "--format", fmt)
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest

    @pytest.mark.parametrize("method", ["urn", "inverse"])
    def test_chunk_size_does_not_change_output(self, runner, monkeypatch, method):
        # 2501 draws: 2501 chunks of 1, a last chunk of 2 after 833 of 3,
        # and one of 501 after two of 1000
        args = ("sample", "--n", "10000", "--k", "40", "--count", "2501",
                "--method", method, "--seed", "7", "--format")
        want = {fmt: run(runner, *args, fmt).stdout_bytes for fmt in ("csv", "json")}
        for chunk in (1, 3, 1000):
            monkeypatch.setattr(cli_mod, "_SAMPLE_CHUNK", chunk)
            for fmt in ("csv", "json"):
                assert run(runner, *args, fmt).stdout_bytes == want[fmt], (chunk, fmt)

    @pytest.mark.parametrize("method", ["urn", "inverse"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_does_not_grow_with_count(self, method, fmt):
        def peak(count):
            return _peak_rss_kb("sample", "--n", "10", "--k", "3", "--count", str(count),
                                "--method", method, "--format", fmt)

        assert peak(10**7) - peak(10**6) < 4 * 1024

    def test_output_guard_limit(self):
        # (10, 3) has 8 support points, so a draw is 2 bytes of CSV; the rule
        # count * (digits of the support + 1) <= _SAMPLE_BYTES_LIMIT is exact
        limit = cli_mod._SAMPLE_BYTES_LIMIT
        cli_mod._require_output_budget(8, limit // 2)
        cli_mod._require_output_budget(10**18, limit // 20)
        with pytest.raises(ResourceGuardError):
            cli_mod._require_output_budget(8, limit // 2 + 1)
        with pytest.raises(ResourceGuardError):
            cli_mod._require_output_budget(10**18, limit // 20 + 1)

    @pytest.mark.parametrize("method", ["urn", "inverse"])
    def test_output_guard_exit_3(self, method):
        count = cli_mod._SAMPLE_BYTES_LIMIT // 2 + 1
        out = _refused_within_2s("sample", "--n", "10", "--k", "3", "--count", str(count),
                                 "--method", method)
        assert "output limit" in out.stderr

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_walk_work_guard_exit_3(self, fmt):
        out = _refused_within_2s("sample", "--n", "1000000000000", "--k", "1",
                                 "--count", "3", "--method", "urn", "--format", fmt)
        assert "--method inverse" in out.stderr

    # 8·10**18 bytes is past any 48- or 57-bit address space and 10**20 past
    # numpy's size limit, so these runs touch no memory; smaller counts could
    # be overcommitted and then killed
    @pytest.mark.parametrize("count", [10**18, 10**20])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unallocatable_inverse_count_exit_3(self, count, fmt):
        _refused_within_2s("sample", "--n", "10", "--k", "3", "--count", str(count),
                           "--method", "inverse", "--format", fmt)

    def test_json_memory_close_to_csv(self):
        # both formats write the drawn array in fixed slices of bytes
        args = ("sample", "--n", "1000", "--k", "3", "--count", "1000000",
                "--method", "inverse", "--format")
        assert _peak_rss_kb(*args, "json") - _peak_rss_kb(*args, "csv") < 2 * 1024

    def test_walk_work_guard_limit(self):
        # ten times the sample-walk benchmark workload still passes
        _require_walk_budget(10000, 40, 10 * 250000)
        # (count + _WALK_STEP_LANES) * (total+1)/(good+1) <= _WALK_WORK_LIMIT
        # is the rule, exact at its boundary
        total = 2 * cli_mod._WALK_WORK_LIMIT // (1 + cli_mod._WALK_STEP_LANES) - 1
        _require_walk_budget(total, 1, 1)
        with pytest.raises(ResourceGuardError):
            _require_walk_budget(total + 1, 1, 1)

    def test_fuzzed_arguments_end_in_one_line_or_draws(self, runner):
        # in process through cli.main; see _sample_fuzz_cases for the runs
        # left out
        for total, good, count, method, fmt in _sample_fuzz_cases(seed=2024, count=60):
            case = (f"{total[:8]}..({len(total)} chars)", f"{good[:8]}..({len(good)} chars)",
                    f"{count[:8]}..({len(count)} chars)", method, fmt)
            start = time.perf_counter()
            result = run(runner, "sample", "--n", total, "--k", good, "--count", count,
                         "--method", method, "--seed", "5", "--format", fmt)
            assert time.perf_counter() - start < 2.0, case
            _assert_one_line_or_output(result, case)
            if result.exit_code == 0:
                if fmt == "json":
                    draws = json.loads(result.stdout)["rows"]
                else:
                    draws = list(map(int, result.stdout.splitlines()[1:]))
                assert len(draws) == int(count), case
                assert all(1 <= d <= int(total) - int(good) + 1 for d in draws), case


def _emit_bytes(fmt, values):
    """The stdout bytes of ``cli._emit`` on ``values``, one column of a
    `sample`-shaped table: an int64 array goes in ``_DIGIT_SLICE``-value
    slices with ``_decimal_text`` as its renderer, as `sample` hands over
    its draws, and a list as rows."""
    buffer = io.BytesIO()
    text = io.TextIOWrapper(buffer, encoding="utf-8", write_through=True)
    with contextlib.redirect_stdout(text):
        if isinstance(values, np.ndarray):
            size = cli_mod._DIGIT_SLICE
            slices = (values[lo : lo + size] for lo in range(0, values.size, size))
            cli_mod._emit(fmt, {"count": len(values)}, ("value",), slices,
                          render=cli_mod._decimal_text)
        else:
            cli_mod._emit(fmt, {"count": len(values)}, ("value",), values,
                          lambda chunk: "\n".join(map(str, chunk)))
    return buffer.getvalue()


def _reference_bytes(fmt, ints):
    if fmt == "csv":
        return "\n".join(["value", *map(str, ints)]).encode() + b"\n"
    document = {"schema_version": 2, "params": {"count": len(ints)}, "rows": ints}
    return json.dumps(document, indent=2).encode() + b"\n"


class TestIntWriter:
    """``cli._emit`` on an int64 array writes the bytes of str/join (CSV)
    and of json.dumps(indent=2) (JSON)."""

    _SLICE = cli_mod._DIGIT_SLICE
    _EDGES = [0, 1, 9, 10, 99, 100, 2**62, 2**63 - 1] + [
        v for k in range(3, 19) for v in (10**k - 1, 10**k)]

    @staticmethod
    def _mixed(count):
        # widths of 1 to 19 digits, in no order
        rng = np.random.default_rng(count)
        return rng.integers(0, 2**63 - 1, count) >> rng.integers(0, 63, count)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", [
        "edges", "single", "single-zero", "mixed", "slice-1", "slice", "slice+1"])
    def test_matches_reference(self, fmt, case):
        values = {
            "edges": lambda: np.array(self._EDGES, dtype=np.int64),
            "single": lambda: np.array([2**62], dtype=np.int64),
            "single-zero": lambda: np.zeros(1, dtype=np.int64),
            "mixed": lambda: self._mixed(5000),
            "slice-1": lambda: self._mixed(self._SLICE - 1),
            "slice": lambda: self._mixed(self._SLICE),
            "slice+1": lambda: self._mixed(self._SLICE + 1),
        }[case]()
        assert values.dtype == np.int64
        ints = values.tolist()
        assert _emit_bytes(fmt, values) == _reference_bytes(fmt, ints)
        # the text path, on the same values as Python ints, agrees
        assert _emit_bytes(fmt, ints) == _reference_bytes(fmt, ints)

    def test_mixed_widths_within_one_slice(self):
        values = self._mixed(self._SLICE)
        widths = {len(str(v)) for v in values.tolist()}
        assert widths == set(range(1, 20))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_array_writes_an_empty_table(self, fmt):
        assert _emit_bytes(fmt, np.zeros(0, dtype=np.int64)) == _reference_bytes(fmt, [])

    def test_stdout_text_layer_flushed_first(self):
        buffer = io.BytesIO()
        text = io.TextIOWrapper(buffer, encoding="utf-8")  # buffered text layer
        with contextlib.redirect_stdout(text):
            print("before")
            cli_mod._emit("csv", {}, ("value",), [np.array([3, 14], dtype=np.int64)],
                          render=cli_mod._decimal_text)
        assert buffer.getvalue() == b"before\nvalue\n3\n14\n"


def _converge_fuzz_cases(seed, count):
    """(p_num, p_den, ns, format) argument strings for `urn converge`: the
    adversarial ones in both formats, then ``count`` drawn from a seeded
    generator.  A valid urn here scans at most about 2 * 10^7 points, or is
    refused by the scan guard before any."""
    wide, huge = 10**4299, 2**600  # 4300 digits: the int-to-str limit
    fixed = [
        (1, 10, "100,1000"), (7, 9, "9,900"), (1, 2, "2"), (1, 2, str(2**100)),
        # p > 2/3: tv and max_pointwise_error are both P(2) - G(2)
        (999999, 10**6, str(10**12)), (1, 3, str(3 * 10**18)),
        (1, 10**11, str(10**17)), (1, 10**6, str(10**14)),
        (1, 10, str(wide)), (1, 10, "1" + "0" * 4300), (1, wide, str(wide)),
        ("1" + "0" * 4300, 10, "100"), (wide, wide + 1, str(wide + 1)),
        (1, 2, str(huge)), (huge - 5, huge, str(huge)), (1, huge, str(huge)),
        (0, 10, "100"), (-1, 10, "100"), (1, 0, "100"), (1, -10, "100"), (-1, -10, "100"),
        (10, 10, "100"), (11, 10, "100"), (1, 10, "-100"), (1, 10, "0"), (1, 10, "-3,100"),
        (1, 10, ""), (1, 10, ","), (1, 10, "1.5"), (1, 10, "1e3"), (1, 10, "100,x"),
        (1, 3, "100"),
    ]
    cases = [(*case, fmt) for case in fixed for fmt in ("csv", "json")]
    rng = random.Random(seed)
    for _ in range(count):
        den = rng.choice([2, 3, 7, 10, 1000, 10**6, 10**11, huge])
        num = rng.choice([-1, 0, 1, rng.randint(1, 9), den - 1, den, den + 1])
        totals = [
            rng.choice([den * rng.randint(1, 100), rng.randint(-10, 10),
                        10 ** rng.randint(10, 4299), huge, "1.5", "x", ""])
            for _ in range(rng.randint(1, 3))
        ]
        cases.append((num, den, ",".join(map(str, totals)), rng.choice(["csv", "json"])))
    return [(str(num), str(den), ns, fmt) for num, den, ns, fmt in cases]


class TestConverge:
    def test_decreasing_distances(self, runner):
        result = run(runner, "converge", "--p-num", "1", "--p-den", "10",
                     "--ns", "100,1000,10000")
        lines = result.output.splitlines()
        assert lines[0] == "N,K,p,tv_distance,max_pointwise_error,at_n"
        tvs = [float(line.split(",")[3]) for line in lines[1:]]
        assert tvs[0] > tvs[1] > tvs[2]

    def test_smallest_case(self, runner):
        result = run(runner, "converge", "--p-num", "1", "--p-den", "2", "--ns", "2")
        row = result.output.splitlines()[1].split(",")
        assert (row[0], row[1]) == ("2", "1")

    def test_indivisible_exit_2_names_total(self, runner):
        result = run(runner, "converge", "--p-num", "1", "--p-den", "3", "--ns", "100")
        assert result.exit_code == 2
        assert "100" in result.stderr

    def test_json_rows(self, runner):
        result = run(runner, "converge", "--p-num", "1", "--p-den", "10",
                     "--ns", "100", "--format", "json")
        payload = json.loads(result.output)
        assert payload["params"] == {"p": "1/10", "ns": [100]}
        row = payload["rows"][0]
        assert row["N"] == 100 and row["K"] == 10
        assert set(row) == {"N", "K", "p", "tv_distance", "max_pointwise_error", "at_n"}

    def test_json_bytes_are_json_dumps(self, runner):
        for args in (
            ("converge", "--p-num", "1", "--p-den", "10", "--ns", "100,1000"),
            ("stats", "--n", "12", "--k", "1"),
            ("stats", "--n", "1000", "--k", "7"),
            # more than one write chunk
            ("sample", "--n", "10", "--k", "3", "--count", "20000", "--method", "urn"),
            ("sample", "--n", "10", "--k", "3", "--count", "20000", "--method", "inverse"),
            ("check", "--max-n", "6"),
        ):
            result = run(runner, *args, "--format", "json")
            assert result.exit_code == 0
            assert json.dumps(json.loads(result.output), indent=2) + "\n" == result.output

    def test_benchmark_rows_pinned(self, runner):
        result = run(runner, "converge", "--p-num", "1", "--p-den", "10000",
                     "--ns", "1000000,10000000")
        assert result.exit_code == 0
        assert result.output.splitlines()[1:] == [
            "1000000,100,0.0001,0.0027156223730845299,2.3164523454259637e-07,5874",
            "10000000,1000,0.0001,0.00027074728173534746,2.3068542293376223e-08,5860",
        ]

    def test_fuzzed_arguments_end_in_one_line_or_rows(self, runner):
        for num, den, ns, fmt in _converge_fuzz_cases(seed=2023, count=40):
            case = (num[:8], den[:8], f"{ns[:12]}..({len(ns)} chars)", fmt)
            start = time.perf_counter()
            result = run(runner, "converge", "--p-num", num, "--p-den", den,
                         "--ns", ns, "--format", fmt)
            assert time.perf_counter() - start < 2.0, case
            assert result.exit_code in (0, 2, 3), case
            assert "Traceback" not in result.stderr, case
            lines = result.stderr.splitlines()
            if result.exit_code:
                assert result.stdout == "", case
                assert len(lines) == 1 and lines[0].startswith("error: "), case
                continue
            assert lines == [], case
            if fmt == "json":
                rows = [(r["tv_distance"], r["max_pointwise_error"])
                        for r in json.loads(result.stdout)["rows"]]
            else:
                rows = [tuple(map(float, line.split(",")[3:5]))
                        for line in result.stdout.splitlines()[1:]]
            assert rows, case
            for tv, max_err in rows:
                # the positive and the negative parts of P - G each sum to tv
                assert 0.0 < max_err <= tv <= 1.0, case

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_tiny_p_scan_guard_exit_3_within_1s(self, fmt):
        # the scan's bound is about 4.0e12 points
        start = time.perf_counter()
        out = _refused_within_2s("converge", "--p-num", "1", "--p-den", "100000000000",
                                 "--ns", "100000000000000000", "--format", fmt)
        assert time.perf_counter() - start < 1.0
        assert "points" in out.stderr


class TestCheck:
    def test_all_pass_exit_0(self, runner):
        result = run(runner, "check", "--max-n", "10")
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "family,cases,failures,first_failure"
        assert len(lines) == 7
        assert all(line.split(",")[2] == "0" for line in lines[1:])

    def test_trivial_bound_passes(self, runner):
        assert run(runner, "check", "--max-n", "1").exit_code == 0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_guard_exit_3(self, fmt):
        out = _refused_within_2s("check", "--max-n", str(checks._SWEEP_LIMIT + 1),
                                 "--format", fmt)
        assert "--force" in out.stderr

    @pytest.mark.parametrize("max_n", [checks._FORCE_LIMIT + 1, 2 * 10**12])
    def test_force_work_bound_exit_3(self, max_n):
        out = _refused_within_2s("check", "--max-n", str(max_n), "--force")
        assert str(checks._FORCE_LIMIT) in out.stderr

    def test_json_families(self, runner):
        result = run(runner, "check", "--max-n", "6", "--format", "json")
        payload = json.loads(result.output)
        families = [row["family"] for row in payload["rows"]]
        assert families == [
            "pmf-oracle",
            "moments",
            "normalization-cdf",
            "pmf-shape",
            "median",
            "lemma-sums",
        ]
        assert all(row["first_failure"] is None for row in payload["rows"])

    def test_failure_exit_4_with_counterexample(self, runner, monkeypatch):
        def fake_run_all(max_total, *, force=False):
            return [
                FamilyResult("pmf-oracle", cases=3, failures=[]),
                FamilyResult(
                    "moments",
                    cases=5,
                    failures=["mean mismatch at total=4 good=2: injected"],
                ),
            ]

        monkeypatch.setattr("urndist.checks.run_all", fake_run_all)
        result = runner.invoke(["check", "--max-n", "4"])
        assert result.exit_code == 4
        assert "total=4" in result.stderr
        assert "moments,5,1,mean mismatch" in result.output

    def test_fuzzed_arguments_end_in_one_line_or_a_report(self, runner):
        # in process through cli.main; see _check_fuzz_cases for the runs
        # left out
        for max_n, force, fmt in _check_fuzz_cases(seed=2025, count=30):
            case = (f"{max_n[:8]}..({len(max_n)} chars)", force, fmt)
            start = time.perf_counter()
            result = run(runner, "check", "--max-n", max_n, *["--force"] * force,
                         "--format", fmt)
            assert time.perf_counter() - start < 2.0, case
            _assert_one_line_or_output(result, case, codes=(0, 2, 3, 4))
            if result.exit_code == 0:
                report = (json.loads(result.stdout)["rows"] if fmt == "json"
                          else result.stdout.splitlines()[1:])
                assert len(report) == 6, case


class TestImport:
    def test_cli_import_leaves_scipy_out(self):
        # scipy is a test dependency only: the runtime must not load it
        code = (
            "import sys, urndist.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        root = os.path.dirname(os.path.dirname(urndist.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=root),
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_imports_are_lazy(self):
        # urndist alone loads no numpy; urndist.cli loads neither click nor
        # what only `check` and JSON output use; every public name resolves
        code = (
            "import sys, urndist\n"
            "print('numpy' in sys.modules)\n"
            "import urndist.cli\n"
            "print([m for m in ('click', 'json', 'urndist.checks', 'urndist.oracle')"
            " if m in sys.modules])\n"
            "print([name for name in urndist.__all__ if not hasattr(urndist, name)])\n"
        )
        root = os.path.dirname(os.path.dirname(urndist.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=root),
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.splitlines() == ["False", "[]", "[]"]

    @pytest.mark.parametrize(
        "args, loads_numpy",
        [
            (("stats", "--n", "1000", "--k", "7"), False),
            (("table", "--n", "1000", "--k", "7"), False),
            (("--help",), False),
            (("tabel", "--n", "10", "--k", "3"), False),
            (("sample", "--n", "10", "--k", "3", "--count", "3"), True),
            (("converge", "--p-num", "1", "--p-den", "10", "--ns", "100"), True),
        ],
        ids=["stats", "table", "help", "usage-error", "sample", "converge"],
    )
    def test_only_sample_and_converge_load_numpy(self, args, loads_numpy):
        # numpy is loaded neither by `import urndist.cli` nor by a command
        # that needs no float array
        code = (
            "import contextlib, io, sys\n"
            "import urndist.cli\n"
            "loaded = ['numpy' in sys.modules]\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            "        urndist.cli.main(sys.argv[1:])\n"
            "    except SystemExit:\n"
            "        pass\n"
            "print(loaded + ['numpy' in sys.modules])\n"
        )
        root = os.path.dirname(os.path.dirname(urndist.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code, *args],
            env=dict(os.environ, PYTHONPATH=root),
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == str([False, loads_numpy])

    @pytest.mark.parametrize(
        "args, loads_fractions",
        [
            (("table", "--n", "1000", "--k", "7"), False),
            (("table", "--n", "10", "--k", "3", "--format", "json"), False),
            (("sample", "--n", "10", "--k", "3", "--count", "3"), False),
            (("sample", "--n", "10", "--k", "3", "--count", "3", "--method", "inverse"),
             False),
            (("--help",), False),
            (("tabel", "--n", "10", "--k", "3"), False),
            (("stats", "--n", "1000", "--k", "7"), True),
            (("converge", "--p-num", "1", "--p-den", "10", "--ns", "100"), True),
            (("check", "--max-n", "4"), True),
        ],
        ids=["table", "table-json", "sample", "sample-inverse", "help", "usage-error",
             "stats", "converge", "check"],
    )
    def test_fractions_only_where_a_fraction_is_made(self, args, loads_fractions):
        # `import urndist.cli` loads no dataclasses (it imports inspect and
        # ast) and no fractions (it imports decimal); a command loads
        # fractions only if it makes a Fraction, and no command loads
        # dataclasses
        code = (
            "import contextlib, io, sys\n"
            "import urndist.cli\n"
            "slow = ('dataclasses', 'inspect', 'fractions', 'decimal')\n"
            "print([m for m in slow if m in sys.modules])\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            "        urndist.cli.main(sys.argv[1:])\n"
            "    except SystemExit:\n"
            "        pass\n"
            "print(['fractions' in sys.modules, 'dataclasses' in sys.modules])\n"
        )
        root = os.path.dirname(os.path.dirname(urndist.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code, *args],
            env=dict(os.environ, PYTHONPATH=root),
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.splitlines() == ["[]", str([loads_fractions, False])]

    @pytest.mark.parametrize(
        "args, entry",
        [
            (("sample", "--n", "10", "--k", "3", "--count", "3"), "sample_urn_walk_batch"),
            (("sample", "--n", "10", "--k", "3", "--count", "3", "--method", "inverse"),
             "sample_inverse_cdf_batch"),
            (("converge", "--p-num", "1", "--p-den", "10", "--ns", "100"),
             "convergence_table"),
        ],
        ids=["sample-urn", "sample-inverse", "converge"],
    )
    def test_commands_call_the_module_attribute(self, runner, monkeypatch, args, entry):
        # perfbench/layers.py times these layers by swapping the attribute of
        # cli for a wrapper, so a command must read it when it runs
        real, calls = getattr(cli_mod, entry), []

        def wrapper(*a, **kw):
            calls.append(a)
            return real(*a, **kw)

        monkeypatch.setattr(cli_mod, entry, wrapper)
        assert run(runner, *args).exit_code == 0
        assert calls

    def test_public_names_are_public_in_their_submodules(self):
        # urndist.__all__ is the name -> submodule map of the lazy __init__
        assert urndist.__all__ == list(urndist._SUBMODULE)
        missing = [
            f"{module}.{name}" for name, module in urndist._SUBMODULE.items()
            if name not in importlib.import_module(f"urndist.{module}").__all__
        ]
        assert missing == []

    def test_declared_dependencies_are_the_imported_ones(self):
        # every third-party package the runtime imports is declared in
        # pyproject.toml, and every declared one is imported
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        root = pathlib.Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            declared = {
                re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                for dep in tomllib.load(fh)["project"]["dependencies"]
            }
        imported = set()
        for path in (root / "src" / "urndist").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imported.update(a.name.split(".")[0] for a in node.names)
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    imported.add(node.module.split(".")[0])
        third_party = imported - set(sys.stdlib_module_names) - {"__future__"}
        assert declared == third_party == {"numpy"}

    def test_integer_checks_live_in_errors_only(self):
        # every integer argument goes through errors.require_int, so no
        # other module tests isinstance(..., bool)
        root = pathlib.Path(__file__).resolve().parents[1]
        found = []
        for path in sorted((root / "src" / "urndist").glob("*.py")):
            if path.name == "errors.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2
                    and any(
                        isinstance(n, ast.Name) and n.id == "bool"
                        for n in ast.walk(node.args[1])
                    )
                ):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []


class TestUsage:
    @pytest.mark.parametrize(
        "args",
        [
            ("table", "--n", "10"),
            ("sample", "--n", "10", "--k", "3", "--count", "1", "--method", "alias"),
            ("sample", "--n", "10", "--k", "3", "--count", "0"),
            ("table", "--n", "abc", "--k", "3"),
            ("check", "--max-n", "0"),
            ("tabel", "--n", "10", "--k", "3"),
            (),
            # options are accepted under their full names only
            ("table", "--n", "10", "--k", "3", "--form", "json"),
        ],
        ids=["missing-k", "unknown-method", "count-0", "n-not-int", "max-n-0",
             "unknown-command", "no-command", "abbreviated-option"],
    )
    def test_usage_error_is_one_line_exit_2(self, runner, args):
        result = run(runner, *args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "command, options",
        [
            ((), ("table", "stats", "sample", "converge", "check")),
            (("table",), ("--n", "--k", "--format")),
            (("stats",), ("--n", "--k", "--format")),
            (("sample",), ("--n", "--k", "--count", "--seed", "--method", "--format")),
            (("converge",), ("--p-num", "--p-den", "--ns", "--format")),
            (("check",), ("--max-n", "--force", "--format")),
        ],
        ids=["urn", "table", "stats", "sample", "converge", "check"],
    )
    def test_help_exits_0_and_names_every_option(self, runner, command, options):
        result = run(runner, *command, "--help")
        assert result.exit_code == 0
        assert result.stderr == ""
        for name in (*options, "--help"):
            assert re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", result.stdout), name


class TestFloatDomain:
    @pytest.mark.parametrize(
        "args",
        [
            ("sample", "--n", str(10**160), "--k", "3", "--count", "3",
             "--method", "inverse"),
            ("converge", "--p-num", "1", "--p-den", "2", "--ns", str(2 * 10**400)),
        ],
        ids=["sample-inverse", "converge"],
    )
    def test_totals_past_the_float_domain_exit_2(self, runner, args):
        result = run(runner, *args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert len(result.stderr.splitlines()) == 1
        assert "2^511" in result.stderr

    @pytest.mark.parametrize("total", [10**160, 2**600], ids=["10^160", "2^600"])
    def test_table_past_the_float_domain_is_written(self, runner, total):
        # `table` divides its exact cells out and needs no float layer
        good = total - 5
        result = run(runner, "table", "--n", str(total), "--k", str(good))
        assert result.exit_code == 0
        assert result.stderr == ""
        rows = [line.split(",") for line in result.output.splitlines()[1:]]
        assert [row[0] for row in rows] == ["1", "2", "3", "4", "5", "6"]
        full = math.comb(total, good)
        for n, pmf_cell, pmf_float, cdf_cell, cdf_float in rows:
            n = int(n)
            assert Fraction(pmf_cell) == Fraction(math.comb(total - n, good - 1), full)
            assert Fraction(cdf_cell) == 1 - Fraction(math.comb(total - n, good), full)
            assert float(pmf_float) == float(Fraction(pmf_cell))
            assert float(cdf_float) == float(Fraction(cdf_cell))


class TestOutputHygiene:
    def test_csv_has_no_quoting_needs(self, runner):
        for args in (
            ("table", "--n", "12", "--k", "4"),
            ("stats", "--n", "12", "--k", "1"),
            ("converge", "--p-num", "1", "--p-den", "4", "--ns", "16,32"),
            ("check", "--max-n", "5"),
        ):
            output = run(runner, *args).output
            for line in output.splitlines():
                assert '"' not in line

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "args",
        [
            ("sample", "--n", "10", "--k", "3", "--count", "1000000"),
            ("sample", "--n", "10", "--k", "3", "--count", "1000000", "--format", "json"),
            ("table", "--n", "50000", "--k", "10"),
        ],
        ids=["sample-csv", "sample-json", "table"],
    )
    def test_closed_reader_exits_141_quietly(self, args, unbuffered):
        # `urn ... | head -1`: the reader takes one line and closes the pipe
        # while megabytes of output are still to come
        root = os.path.dirname(os.path.dirname(urndist.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "urndist.cli", *args],
            env=dict(os.environ, PYTHONPATH=root, PYTHONUNBUFFERED=unbuffered),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert stderr == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "args",
        [("stats", "--n", "10", "--k", "3"), ("check", "--max-n", "3")],
        ids=["stats", "check"],
    )
    def test_refused_write_exits_3_in_one_line(self, args, fmt, unbuffered):
        # every write to /dev/full fails with ENOSPC, as on a full disk
        root = os.path.dirname(os.path.dirname(urndist.__file__))
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "urndist.cli", *args, "--format", fmt],
                env=dict(os.environ, PYTHONPATH=root, PYTHONUNBUFFERED=unbuffered),
                stdout=full,
                stderr=subprocess.PIPE,
                timeout=60,
            )
        assert proc.returncode == 3
        stderr = proc.stderr.decode()
        assert len(stderr.splitlines()) == 1
        assert stderr.startswith("error: ")
        assert "Traceback" not in stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("command", [(), ("sample",)], ids=["urn", "sample"])
    def test_refused_help_write_exits_3_in_one_line(self, command, unbuffered):
        root = os.path.dirname(os.path.dirname(urndist.__file__))
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "urndist.cli", *command, "--help"],
                env=dict(os.environ, PYTHONPATH=root, PYTHONUNBUFFERED=unbuffered),
                stdout=full,
                stderr=subprocess.PIPE,
                timeout=60,
            )
        assert proc.returncode == 3
        stderr = proc.stderr.decode()
        assert len(stderr.splitlines()) == 1
        assert stderr.startswith("error: cannot write stdout: ")

    def test_deterministic_given_flags(self, runner):
        args = ("converge", "--p-num", "1", "--p-den", "10", "--ns", "100,200")
        assert run(runner, *args).output == run(runner, *args).output
