"""Command-line front end: tables, statistics, samples, convergence reports
and self-checks, as CSV or JSON on stdout.

Parsing: argparse, with abbreviations off, so an option is accepted only
under its full name, and with ``--help`` (no ``-h``) on ``urn`` and on
every subcommand, printed to stdout with exit 0.  The runtime needs numpy
and the standard library only, and loads what a command does not use only
when it runs: numpy and the float block kernels come in with ``sample``
alone, and ``converge`` loads the convergence report and the scalar float
layer (``_loader``), which need no numpy (the entry points,
``sample_urn_walk_batch``, ``sample_inverse_cdf_batch`` and
``convergence_table``, are module attributes read from the package on
first use), ``urn check`` imports the exact self-check modules, JSON output
imports ``json``, ``sample`` alone imports the generator state of ``rng``,
and ``fractions`` comes in with the code that makes a Fraction (``stats``,
``converge`` and ``check``).  So every command but ``sample`` runs without
numpy, and ``table``, ``sample``, ``--help`` and a usage error without
``fractions``.

Output: each subcommand names its columns once and hands its rows to one
writer, ``_emit``.  CSV is a header and one line per row, floats at 17
significant digits; ``table`` and ``converge`` format a chunk of rows in
one %-format call.  JSON is {"schema_version": 2, "params": ..., "rows":
[...]} as json.dumps(indent=2) prints it, a row being an object keyed by
the columns (a bare value for one column).  An interval of draws (the
``stats`` mode and support) is a..b in CSV and [a, b] in JSON.  ``_emit``
has one write loop: each format states its opening, separator, closing
and empty table once, and every chunk of rows goes out as one
``sys.stdout.write``.  Rows are streamed as they are made, and stdout
stays empty when a command fails on its first row.  ``sample`` draws
``_SAMPLE_CHUNK`` values at a time and hands ``_emit`` int64 arrays with
their renderer, ``_decimal_text``, which formats them with numpy and makes
no Python object per draw; its memory does not grow with ``--count``.

Exit codes: 0 success, 2 usage or validation error, 3 resource guard
tripped (a size, work or output limit) or stdout write refused (the help
text's included), 4 self-check failure, 141 (128 + SIGPIPE) when the
reader of stdout closes it early.  Every error, a usage error included,
is one ``error: ...`` line on stderr, which shows an argument of more than
21 digits or 40 characters by its head and its length (``errors.brief``).
The environment variable URN_SEED supplies a default sampling seed (an
explicit --seed always wins).
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
import types

from .errors import ParameterError, ResourceGuardError, UrnError, brief, require_int
from .exact import (
    UrnParams,
    mean,
    median,
    mode,
    pmf_table,  # noqa: F401  unused here; perfbench/layers.py probes cli.pmf_table
    support,
    variance,
)

# Fraction and SamplerState are imported by the commands that use them; the
# annotations name them as text (PEP 563)

__all__ = ["cli", "main"]

_TABLE_ROWS_LIMIT = 10**6
_ECHO_CHUNK = 1024
# Values per numpy-formatted slice of `sample` output: a slice's grid and
# temporaries stay in cache (2^13 to 2^15 formatted 250k draws equally
# fast, 2^17 took 18% longer).
_DIGIT_SLICE = 1 << 15
# Draws per call of a sampler in `sample`: a chunk's arrays take about a
# megabyte, whatever --count is.
_SAMPLE_CHUNK = 1 << 16
# Largest expected urn-walk work, in lane-steps (one mixed word for one draw
# at one step), that `sample --method urn` accepts.  On a 2-core Xeon the
# largest accepted calls took 8.9-13 s cold for 8.2M draws at (1e4, 40);
# in process, 9.2-12.4 s for 1 draw at good = 1 that walked 30M of the 39.6M
# support points, and 9.1-11.3 s for 2500 draws at good = 40, where the
# longest walk sets the steps.
_WALK_WORK_LIMIT = 2 * 10**9
# The kernel's fixed cost per step in lane-steps: 0.32-0.52 us per step of a
# walk with 1 to 64 lanes, in windows of 256 steps, against 4.0-5.3 ns per
# lane-step for 1M draws in 2^16-lane blocks.
_WALK_STEP_LANES = 100
# Largest CSV output of `sample`, in bytes (JSON adds 5 per draw): 1 TiB.
# It refuses no count below 2^40 / 20 = 5.5e10 draws (19 digits is the most
# an int64 draw has), whose draws would take 440 GB as one int64 array.
_SAMPLE_BYTES_LIMIT = 1 << 40


# the entry points of the commands with their own layers, read on first
# use from the package, which imports each from its submodule
_LAZY = ("sample_urn_walk_batch", "sample_inverse_cdf_batch", "convergence_table")


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(sys.modules[__package__], name)
    return value


def _entry(name: str):
    # the module global once set, read at call time (perfbench/layers.py
    # swaps it for a probe); the first read imports it through __getattr__
    return getattr(sys.modules[__name__], name)


def _frac(value: Fraction) -> str:
    limit = sys.get_int_max_str_digits()  # 0 means unlimited
    if limit and max(abs(value.numerator), value.denominator) >= 10**limit:
        raise ResourceGuardError(
            f"an exact fraction has more than {limit} digits, the int-to-str limit")
    return f"{value.numerator}/{value.denominator}"


def _json_range(value: range) -> list[int]:
    if isinstance(value, range):  # [first, last], as a..b is in CSV
        return [value[0], value[-1]]
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _decimal_text(values, sep: str) -> str:
    """The non-negative int64 ``values`` in decimal, joined by ``sep``: the
    text of ``sep.join(map(str, values))``.

    A (len, width + len(sep)) grid of bytes takes the digits column by
    column from the right; a digit is kept when the value has one there (a
    nonzero quotient to its right, or the last column), and ``grid[keep]``
    drops the leading pad.
    """
    import numpy as np  # only `sample` writes arrays

    width = len(str(int(values.max())))
    grid = np.empty((values.size, width + len(sep)), np.uint8)
    keep = np.empty(grid.shape, bool)
    grid[:, width:] = np.frombuffer(sep.encode(), np.uint8)
    keep[:, width - 1 :] = True
    rest, quot = values.copy(), np.empty_like(values)
    for col in range(width - 1, -1, -1):
        np.floor_divide(rest, 10, out=quot)
        # rest - 10 * quot is its last digit; store it in ASCII
        rest += ord("0")
        rest -= quot * 10
        grid[:, col] = rest
        if col:
            np.not_equal(quot, 0, out=keep[:, col - 1])
        rest, quot = quot, rest
    return grid[keep][: -len(sep)].tobytes().decode()


def _csv_format(template: str):
    """The CSV ``line`` of rows whose cells fill the %-format ``template``:
    a chunk's rows in one format call, the same text as one
    ``template % row`` per row."""

    def line(chunk: list) -> str:
        return "\n".join([template] * len(chunk)) % tuple(itertools.chain.from_iterable(chunk))

    return line


def _emit(fmt: str, params_obj: dict, columns: tuple[str, ...], rows, line=None,
          render=None) -> None:
    """Write ``rows``, tuples of the values of ``columns`` (bare values for
    one column), on stdout, one ``write`` per chunk of rows.  In CSV,
    ``line(chunk)`` is the text of a chunk's rows, one line each, joined by
    newlines; a JSON row is ``dict(zip(columns, row))`` as
    json.dumps(indent=2) prints it.  Row 1 is a chunk of its own and goes
    out with the opening, before row 2 is made; ``_ECHO_CHUNK`` rows make
    each later chunk.

    With ``render``, ``rows`` is already cut into non-empty chunks (the
    int64 draws of ``sample``), and ``render(chunk, sep)`` is a chunk's
    text, its values joined by the format's separator; the framing between
    chunks is the same as between rows.
    """
    # the opening, the separator, whether it ends each row (or sits between
    # rows), the closing, and the whole output of a table with no rows
    if fmt == "csv":
        opening = ",".join(columns) + "\n"
        sep, ends, closing, empty = "\n", True, "", opening
    else:
        import json  # only JSON output needs it

        document = json.dumps({"schema_version": 2, "params": params_obj, "rows": []}, indent=2)
        opening = document[: -len("]\n}")] + "\n    "
        sep, ends, closing, empty = ",\n    ", False, "\n  ]\n}\n", document + "\n"
    if render is not None:
        chunks = rows
    else:
        if fmt == "csv":
            render = lambda chunk, sep: line(chunk)
        else:
            # a row becomes its dict as it is taken: a chunk holds no tuples
            if len(columns) > 1:
                rows = (dict(zip(columns, row)) for row in rows)
            # the chunk's list without its brackets, one level deeper
            render = lambda chunk, sep: json.dumps(
                chunk, indent=2, default=_json_range)[4:-2].replace("\n", "\n  ")
        # row 1 alone, then _ECHO_CHUNK rows at a time, up to the first empty chunk
        rows, sizes = iter(rows), itertools.chain([1], itertools.repeat(_ECHO_CHUNK))
        chunks = iter(lambda: list(itertools.islice(rows, next(sizes))), [])
    out, first = sys.stdout, True
    between, after = ("", sep) if ends else (sep, "")
    for chunk in chunks:
        out.write((opening if first else between) + render(chunk, sep) + after)
        first = False
        del chunk  # free it before the next chunk is made
    out.write(empty if first else closing)
    out.flush()


def _require_printable(total: int, good: int) -> None:
    """Refuse a table whose exact fractions Python cannot turn into text.

    No numerator or denominator in the table exceeds C(total, good), which
    lies between (total/k)^k and (e*total/k)^k for k = min(good, total-good);
    the coefficient itself is built only when those bounds, widened by one
    digit for their rounding, straddle the int-to-str digit limit (0 means
    unlimited).
    """
    limit = sys.get_int_max_str_digits()
    k = min(good, total - good)
    if not limit or not k:
        return
    low = k * (math.log10(total) - math.log10(k))
    if low + k * math.log10(math.e) < limit - 1:
        return
    if low > limit + 1 or math.comb(total, good) >= 10**limit:
        raise ResourceGuardError(
            f"C({brief(total)}, {brief(good)}) has more than {limit} decimal digits, the "
            f"integer-to-string limit, so the exact table cannot be written"
        )


def _require_walk_budget(total: int, good: int, count: int) -> None:
    """Refuse an urn walk whose expected work exceeds ``_WALK_WORK_LIMIT``.

    The walk takes (total+1)/(good+1) steps per draw on average, the mean
    of X, and pays a fixed cost per step as if ``_WALK_STEP_LANES`` more
    draws were walking.
    """
    if (count + _WALK_STEP_LANES) * (total + 1) > _WALK_WORK_LIMIT * (good + 1):
        raise ResourceGuardError(
            f"{brief(count)} urn walks of mean length (n+1)/(k+1) exceed the work "
            f"limit of {_WALK_WORK_LIMIT:.3g} lane-steps; use --method inverse"
        )


def _require_output_budget(support: int, count: int) -> None:
    """Refuse a sample whose CSV text, up to ``count`` times the digits of
    the support plus a newline, exceeds ``_SAMPLE_BYTES_LIMIT`` bytes.

    A chunked draw allocates nothing up front, so this bounds the run;
    ``cmd_sample`` calls it before any output, and ``main`` exits 3.
    """
    if count * (len(str(support)) + 1) > _SAMPLE_BYTES_LIMIT:
        raise ResourceGuardError(
            f"{brief(count)} draws of up to {len(str(support))} digits exceed the output "
            f"limit of {_SAMPLE_BYTES_LIMIT} bytes"
        )


def _draw_slices(draw, params: UrnParams, state: SamplerState, count: int):
    # `count` draws of the sampler `draw`, _SAMPLE_CHUNK at a time (the state
    # advances, so the draw indices run on), in _DIGIT_SLICE-value slices
    for lo in range(0, count, _SAMPLE_CHUNK):
        values = draw(params, state, min(_SAMPLE_CHUNK, count - lo))
        for i in range(0, values.size, _DIGIT_SLICE):
            yield values[i : i + _DIGIT_SLICE]


def _table_rows(params: UrnParams):
    # the rows of `urn table`, for n = 1..support, stepped by the product of
    # conditional misses: with s = total - n + 1, P(n) = Fail(n-1) good / s
    # and Fail(n) = Fail(n-1) (s - good) / s.  Fail(n-1) = u/v is carried in
    # lowest terms and each factor is cancelled against it first, so every
    # gcd has one machine-size operand and every cell is in lowest terms;
    # cdf(n) = (v - u)/v with u/v = Fail(n).  The float cells are those
    # fractions divided out: int / int is correctly rounded, subnormals
    # included
    total, good = params.total, params.good
    u = v = 1
    for n in range(1, params.support_size + 1):
        s = total - n + 1
        g = math.gcd(u, s)
        u, v = u // g, v * (s // g)
        g = math.gcd(good, v)
        pn, pd = u * (good // g), v // g
        miss = s - good
        g = math.gcd(miss, v)
        u, v = u * (miss // g), v // g
        yield n, f"{pn}/{pd}", pn / pd, f"{v - u}/{v}", (v - u) / v


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("URN_SEED")
    if env is not None:
        try:
            return int(env, 0)
        except ValueError:
            raise ParameterError(f"URN_SEED must be an integer, got {brief(env)}")
    return 0


def _int(text: str) -> int:
    # the type of every integer option: argparse's message for a text that is
    # no int, with the text through brief
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {brief(text)}") from None


_URN_OPTIONS = (
    ("--n", dict(dest="total", type=_int, required=True, help="Total objects in the urn.")),
    ("--k", dict(dest="good", type=_int, required=True, help="Number of good objects.")),
)
_FORMAT_OPTION = ("--format", dict(dest="fmt", choices=("csv", "json"), default="csv",
                                   help="Output format on stdout (default: %(default)s)."))
# subcommand name -> (function, options); every subcommand also takes --format
_COMMANDS: dict[str, tuple] = {}


def _command(name: str, *options: tuple[str, dict]):
    """Register the decorated function as subcommand ``name``; each option
    is a flag and its ``add_argument`` keywords."""

    def register(fn):
        _COMMANDS[name] = fn, options
        return fn

    return register


@_command("table", *_URN_OPTIONS)
def cmd_table(total: int, good: int, fmt: str) -> None:
    """Full distribution table: one row per support point.

    Rows are written as they are made.  The exact columns are fractions in
    lowest terms, stepped row by row from the one before by the ratio
    (total-n+1-good)/(total-n+1) of the next miss, with small-factor gcds
    cancelling as they go; each float column is its exact cell divided out,
    the double nearest the exact value, so the table needs no float layer
    and no numpy, at any total.
    """
    params = UrnParams(total=total, good=good)
    if params.support_size > _TABLE_ROWS_LIMIT:
        raise ResourceGuardError(
            f"support size {brief(params.support_size)} exceeds the table limit "
            f"of {_TABLE_ROWS_LIMIT} rows"
        )
    _require_printable(total, good)
    _emit(
        fmt, {"n": total, "k": good},
        ("n", "pmf_exact", "pmf_float", "cdf_exact", "cdf_float"),
        _table_rows(params),
        _csv_format("%d,%s,%.17g,%s,%.17g"),
    )


@_command("stats", *_URN_OPTIONS)
def cmd_stats(total: int, good: int, fmt: str) -> None:
    """Summary statistics: mean, variance, median, mode and support."""
    params = UrnParams(total=total, good=good)
    row = (
        _frac(mean(params)), _frac(variance(params)), median(params),
        mode(params), support(params),
    )
    _emit(
        fmt, {"n": total, "k": good},
        ("mean", "variance", "median", "mode", "support"),
        [row],
        lambda rows: "\n".join(
            f"{r[0]},{r[1]},{r[2]},{r[3][0]}..{r[3][-1]},{r[4][0]}..{r[4][-1]}" for r in rows),
    )


@_command(
    "sample", *_URN_OPTIONS,
    ("--count", dict(type=_int, required=True, help="Number of draws.")),
    ("--seed", dict(type=_int, default=None, help="RNG seed (default: $URN_SEED or 0).")),
    ("--method", dict(choices=("urn", "inverse"), default="urn",
                      help="urn: simulate the shrinking urn; inverse: invert the cdf "
                           "(default: %(default)s).")),
)
def cmd_sample(
    total: int, good: int, count: int, seed: int | None, method: str, fmt: str
) -> None:
    """Draw variates; the stream is a pure function of (seed, method)."""
    from .rng import SamplerState

    params = UrnParams(total=total, good=good)
    require_int("count", count, 1)
    _require_output_budget(params.support_size, count)
    seed = _resolve_seed(seed)
    if method == "urn":
        _require_walk_budget(total, good, count)
        draw = _entry("sample_urn_walk_batch")
    else:
        draw = _entry("sample_inverse_cdf_batch")
    params_obj = {"n": total, "k": good, "count": count, "seed": seed, "method": method}
    slices = _draw_slices(draw, params, SamplerState(seed=seed), count)
    _emit(fmt, params_obj, ("value",), slices, render=_decimal_text)


@_command(
    "converge",
    ("--p-num", dict(type=_int, required=True, help="Numerator of the good fraction p.")),
    ("--p-den", dict(type=_int, required=True, help="Denominator of the good fraction p.")),
    ("--ns", dict(dest="totals_csv", required=True,
                  help="Comma-separated urn sizes, e.g. 100,1000,10000.")),
)
def cmd_converge(p_num: int, p_den: int, totals_csv: str, fmt: str) -> None:
    """Distance to the geometric law along a sequence of urn sizes."""
    if p_den <= 0 or p_num <= 0:
        raise ParameterError(
            f"p must be a positive rational, got {brief(p_num)}/{brief(p_den)}"
        )
    from fractions import Fraction

    p = Fraction(p_num, p_den)
    try:
        totals = [int(part) for part in totals_csv.split(",") if part.strip()]
    except ValueError:
        raise ParameterError(f"--ns must be comma-separated integers, got {brief(totals_csv)}")
    records = _entry("convergence_table")(p, totals)
    _emit(
        fmt, {"p": _frac(p), "ns": totals},
        ("N", "K", "p", "tv_distance", "max_pointwise_error", "at_n"),
        ((r.total, r.good, r.p, r.tv_distance, r.max_pointwise_error, r.at_n)
         for r in records),
        _csv_format("%d,%d,%.17g,%.17g,%.17g,%d"),
    )


@_command(
    "check",
    ("--max-n", dict(dest="max_total", type=_int, default=12,
                     help="Upper bound of the verification sweep (default: %(default)s).")),
    ("--force", dict(action="store_true",
                     help="Lift the sweep size guard on --max-n up to a fixed work "
                          "bound (expensive above the default); the enumeration family "
                          "keeps its own limit.")),
)
def cmd_check(max_total: int, force: bool, fmt: str) -> None:
    """Run the self-verification families and report pass/fail counts."""
    from . import checks

    results = checks.run_all(max_total, force=force)
    _emit(
        fmt, {"max_n": max_total, "force": force},
        ("family", "cases", "failures", "first_failure"),
        ((r.name, r.cases, len(r.failures), r.failures[0] if r.failures else None)
         for r in results),
        lambda rows: "\n".join(f"{r[0]},{r[1]},{r[2]},{r[3] or ''}" for r in rows),
    )
    failed = [r for r in results if not r.ok]
    if failed:
        for r in failed:
            print(f"check failed [{r.name}]: {r.failures[0]}", file=sys.stderr)
        sys.exit(4)


class _Parser(argparse.ArgumentParser):
    """Full option names only, ``--help`` without ``-h``, and a usage error
    as one ``error: ...`` line on stderr with exit 2."""

    def __init__(self, **kwargs) -> None:
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def parse_known_args(self, args=None, namespace=None):
        # argparse reads a value that starts with "-" as an option unless it
        # is one plain negative number, so a --ns list that starts with one
        # (--ns -3,100) is joined to its flag, as --ns=-3,100 would be
        args = list(sys.argv[1:] if args is None else args)
        for i in range(len(args) - 2, -1, -1):
            if args[i] == "--ns" and args[i + 1][:1] == "-" and args[i + 1][1:2].isdigit():
                args[i : i + 2] = [f"--ns={args[i + 1]}"]
        return super().parse_known_args(args, namespace)

    def print_help(self, file=None) -> None:
        # argparse's own ignores a refused write; this one lets it raise, so
        # that ``main`` reports it as it does for any other output
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()

    def error(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(2)


def _parser() -> _Parser:
    parser = _Parser(
        prog="urn",
        description="Draws-until-first-success distribution for an urn sampled "
                    "without replacement: exact tables, statistics, samplers and "
                    "verification.",
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, (fn, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=fn.__doc__.splitlines()[0],
                                  description=fn.__doc__)
        for flag, kwargs in (*options, _FORMAT_OPTION):
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(run=fn)
    return parser


def main(args: list[str] | None = None) -> None:
    """Run ``urn`` on ``args`` (``sys.argv[1:]`` when None); map the package's
    errors and a failed write to stdout, the help text's included, onto exit
    codes 2, 3 and 141."""
    try:
        options = vars(_parser().parse_args(args))
        options.pop("run")(**options)
    except (ResourceGuardError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
    except UrnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except OSError as exc:
        # stdout refused a write (no command opens a file); on devnull the exit
        # flush cannot fail again.  A closed pipe, as in `urn ... | head -1`, is 141
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            sys.exit(141)
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        sys.exit(3)


# click's call shape, cli.main(args=..., prog_name=..., standalone_mode=...),
# which perfbench/layers.py makes; only args is used
cli = types.SimpleNamespace(main=lambda args=None, **_click_options: main(args))


if __name__ == "__main__":
    main()
