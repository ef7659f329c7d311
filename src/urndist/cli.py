"""Command-line front end: tables, statistics, samples, convergence reports
and self-checks, as CSV or JSON on stdout.

Exit codes: 0 success, 2 usage or validation error, 3 resource guard
tripped, 4 self-check failure.  Diagnostics go to stderr.  The environment
variable URN_SEED supplies a default sampling seed (an explicit --seed
always wins).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import sys
from fractions import Fraction

import click

from . import _kernels
from . import checks as checks_mod
from .convergence import convergence_table
from .errors import ParameterError, ResourceGuardError, UrnError
from .exact import (
    UrnParams,
    binomial,
    binomial_numerators,
    mean,
    median,
    mode,
    pmf_table,  # noqa: F401  unused here; perfbench/layers.py probes cli.pmf_table
    support,
    variance,
)
from .floats import cdf_blocks
from .rng import SamplerState
from .sampler import sample_inverse_cdf_batch, sample_urn_walk_batch

__all__ = ["cli", "main"]

_TABLE_ROWS_LIMIT = 10**6
_ECHO_CHUNK = 8192
# Largest expected urn-walk work, in lane-steps (one mixed word for one draw
# at one step), that `sample --method urn` accepts.  On a 2-core Xeon the
# largest accepted calls took 11 s extrapolated from 1M draws at (1e4, 40),
# 11 s for 1 draw at good = 1 (17 s if that draw walks the whole support) and
# 28 s for 2500 draws at good = 40, where the longest walk sets the steps.
_WALK_WORK_LIMIT = 2 * 10**9
# The kernel's fixed cost per step in lane-steps: 8-10.5 us per step of a
# walk with 1 to 64 lanes against 3.8-4.0 ns per lane-step with 250k lanes.
_WALK_STEP_LANES = 2500


def _frac(value: Fraction) -> str:
    limit = sys.get_int_max_str_digits()  # 0 means unlimited
    if limit and max(abs(value.numerator), value.denominator) >= 10**limit:
        raise ResourceGuardError(
            f"an exact fraction has more than {limit} digits, the int-to-str limit")
    return f"{value.numerator}/{value.denominator}"


def _f17(value: float) -> str:
    return f"{value:.17g}"


def _emit_json(params_obj: dict, rows) -> None:
    """Write {"schema_version": 1, "params": ..., "rows": [...]} in the bytes
    of json.dumps(payload, indent=2) and a newline, taking the rows from an
    iterable one chunk at a time; nothing is written before the first chunk."""
    head = json.dumps({"schema_version": 1, "params": params_obj, "rows": []}, indent=2)
    head = head[: -len("[]\n}")]
    out = sys.stdout
    rows = iter(rows)
    opening = "["
    while chunk := list(itertools.islice(rows, _ECHO_CHUNK)):
        # the chunk's list without its brackets, one level deeper
        body = json.dumps(chunk, indent=2)[1:-2].replace("\n", "\n  ")
        out.write(head + opening + body)
        head, opening = "", ","
        del chunk, body  # free both before the next chunk is built
    out.write(head + ("[]" if opening == "[" else "\n  ]") + "\n}\n")
    out.flush()


def _emit_csv(header: str, lines) -> None:
    # the header goes out with the first row, so that a command that fails
    # on its first row leaves stdout empty
    out = sys.stdout
    lines = iter(lines)
    out.write("\n".join([header, *itertools.islice(lines, 1)]) + "\n")
    chunk: list[str] = []
    for line in lines:
        chunk.append(line)
        if len(chunk) >= _ECHO_CHUNK:
            out.write("\n".join(chunk) + "\n")
            chunk.clear()
    if chunk:
        out.write("\n".join(chunk) + "\n")
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
            f"C({total}, {good}) has more than {limit} decimal digits, the "
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
            f"{count} urn walks of mean length (n+1)/(k+1) exceed the work "
            f"limit of {_WALK_WORK_LIMIT:.3g} lane-steps; use --method inverse"
        )


def _table_rows(params: UrnParams):
    # (n, pmf_exact, pmf_float, cdf_exact, cdf_float) for n = 1..support:
    # P(n) = A/D and cdf(n) = (D - B)/D with (A, B) from binomial_numerators
    total, good = params.total, params.good
    full = binomial(total, good)
    numerators = binomial_numerators(params)
    for n0, cdf in cdf_blocks(params):
        pmf = _kernels.pmf_float_range(total, good, n0, cdf.size)
        # the block's lists come first in zip, so that the end of a block
        # takes no numerator pair from the next one
        for pf, cf, (a, b), n in zip(
            pmf.tolist(), cdf.tolist(), numerators, itertools.count(n0)
        ):
            ga, gb = math.gcd(a, full), math.gcd(b, full)
            yield n, f"{a // ga}/{full // ga}", pf, f"{(full - b) // gb}/{full // gb}", cf


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ResourceGuardError, MemoryError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except (ParameterError, UrnError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("URN_SEED")
    if env is not None:
        try:
            return int(env, 0)
        except ValueError:
            raise ParameterError(f"URN_SEED must be an integer, got {env!r}")
    return 0


_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "json"]),
    default="csv",
    show_default=True,
    help="Output format on stdout.",
)


@click.group()
def cli() -> None:
    """Draws-until-first-success distribution for an urn sampled without
    replacement: exact tables, statistics, samplers and verification."""


@cli.command("table")
@click.option("--n", "total", type=int, required=True, help="Total objects in the urn.")
@click.option("--k", "good", type=int, required=True, help="Number of good objects.")
@_format_option
@_guarded
def cmd_table(total: int, good: int, fmt: str) -> None:
    """Full distribution table: one row per support point.

    Rows are written as they are made.  The exact columns are integer
    numerators over C(total, good), stepped row by row and reduced by one
    gcd each; the float columns come a block of support points at a time
    from the vector pmf kernel and the cdf blocks of the float layer.
    """
    params = UrnParams(total=total, good=good)
    if params.support_size > _TABLE_ROWS_LIMIT:
        raise ResourceGuardError(
            f"support size {params.support_size} exceeds the table limit "
            f"of {_TABLE_ROWS_LIMIT} rows"
        )
    _require_printable(total, good)
    rows = _table_rows(params)
    if fmt == "json":
        _emit_json(
            {"n": total, "k": good},
            (
                {"n": n, "pmf_exact": pe, "pmf_float": pf, "cdf_exact": ce, "cdf_float": cf}
                for n, pe, pf, ce, cf in rows
            ),
        )
    else:
        _emit_csv(
            "n,pmf_exact,pmf_float,cdf_exact,cdf_float",
            (f"{n},{pe},{pf:.17g},{ce},{cf:.17g}" for n, pe, pf, ce, cf in rows),
        )


@cli.command("stats")
@click.option("--n", "total", type=int, required=True, help="Total objects in the urn.")
@click.option("--k", "good", type=int, required=True, help="Number of good objects.")
@_format_option
@_guarded
def cmd_stats(total: int, good: int, fmt: str) -> None:
    """Summary statistics: mean, variance, median, mode and support."""
    params = UrnParams(total=total, good=good)
    modes = sorted(mode(params))
    sup = support(params)
    if fmt == "json":
        _emit_json(
            {"n": total, "k": good},
            [
                {
                    "mean": _frac(mean(params)),
                    "variance": _frac(variance(params)),
                    "median": median(params),
                    "mode": modes,
                    "support": [sup.start, sup.stop - 1],
                }
            ],
        )
    else:
        _emit_csv(
            "mean,variance,median,mode,support",
            [
                ",".join(
                    (
                        _frac(mean(params)),
                        _frac(variance(params)),
                        str(median(params)),
                        " ".join(map(str, modes)),
                        f"{sup.start}..{sup.stop - 1}",
                    )
                )
            ],
        )


@cli.command("sample")
@click.option("--n", "total", type=int, required=True, help="Total objects in the urn.")
@click.option("--k", "good", type=int, required=True, help="Number of good objects.")
@click.option("--count", type=click.IntRange(min=1), required=True, help="Number of draws.")
@click.option("--seed", type=int, default=None, help="RNG seed [default: $URN_SEED or 0].")
@click.option(
    "--method",
    type=click.Choice(["urn", "inverse"]),
    default="urn",
    show_default=True,
    help="urn: simulate the shrinking urn; inverse: invert the cdf.",
)
@_format_option
@_guarded
def cmd_sample(
    total: int, good: int, count: int, seed: int | None, method: str, fmt: str
) -> None:
    """Draw variates; the stream is a pure function of (seed, method)."""
    params = UrnParams(total=total, good=good)
    seed = _resolve_seed(seed)
    state = SamplerState(seed=seed)
    if method == "urn":
        _require_walk_budget(total, good, count)
        values = sample_urn_walk_batch(params, state, count)
    else:
        values = sample_inverse_cdf_batch(params, state, count)
    # one tolist() per write chunk: no Python int per value held at once
    ints = itertools.chain.from_iterable(
        values[lo : lo + _ECHO_CHUNK].tolist() for lo in range(0, values.size, _ECHO_CHUNK)
    )
    if fmt == "json":
        _emit_json(
            {"n": total, "k": good, "count": count, "seed": seed, "method": method},
            ints,
        )
    else:
        _emit_csv("value", map(str, ints))


@cli.command("converge")
@click.option("--p-num", type=int, required=True, help="Numerator of the good fraction p.")
@click.option("--p-den", type=int, required=True, help="Denominator of the good fraction p.")
@click.option(
    "--ns",
    "totals_csv",
    type=str,
    required=True,
    help="Comma-separated urn sizes, e.g. 100,1000,10000.",
)
@_format_option
@_guarded
def cmd_converge(p_num: int, p_den: int, totals_csv: str, fmt: str) -> None:
    """Distance to the geometric law along a sequence of urn sizes."""
    if p_den <= 0 or p_num <= 0:
        raise ParameterError(
            f"p must be a positive rational, got {p_num}/{p_den}"
        )
    p = Fraction(p_num, p_den)
    try:
        totals = [int(part) for part in totals_csv.split(",") if part.strip()]
    except ValueError:
        raise ParameterError(f"--ns must be comma-separated integers, got {totals_csv!r}")
    records = convergence_table(p, totals)
    if fmt == "json":
        _emit_json(
            {"p": _frac(p), "ns": totals},
            [
                {
                    "N": r.total,
                    "K": r.good,
                    "p": r.p,
                    "tv_distance": r.tv_distance,
                    "max_pointwise_error": r.max_pointwise_error,
                    "at_n": r.at_n,
                }
                for r in records
            ],
        )
    else:
        _emit_csv(
            "N,K,p,tv_distance,max_pointwise_error,at_n",
            (
                f"{r.total},{r.good},{_f17(r.p)},{_f17(r.tv_distance)},"
                f"{_f17(r.max_pointwise_error)},{r.at_n}"
                for r in records
            ),
        )


@cli.command("check")
@click.option(
    "--max-n",
    "max_total",
    type=click.IntRange(min=1),
    default=12,
    show_default=True,
    help="Upper bound of the verification sweep.",
)
@click.option(
    "--force",
    is_flag=True,
    help="Lift the enumeration size guard (expensive above the default).",
)
@_format_option
@_guarded
def cmd_check(max_total: int, force: bool, fmt: str) -> None:
    """Run the self-verification families and report pass/fail counts."""
    results = checks_mod.run_all(max_total, force=force)
    if fmt == "json":
        _emit_json(
            {"max_n": max_total, "force": force},
            [
                {
                    "family": r.name,
                    "cases": r.cases,
                    "failures": len(r.failures),
                    "first_failure": r.failures[0] if r.failures else None,
                }
                for r in results
            ],
        )
    else:
        _emit_csv(
            "family,cases,failures,first_failure",
            (
                f"{r.name},{r.cases},{len(r.failures)},"
                f"{r.failures[0] if r.failures else ''}"
                for r in results
            ),
        )
    failed = [r for r in results if not r.ok]
    if failed:
        for r in failed:
            click.echo(f"check failed [{r.name}]: {r.failures[0]}", err=True)
        sys.exit(4)


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
