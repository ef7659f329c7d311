"""Self-verification sweeps behind ``urn check``.

Each family re-derives a property of the distribution by an independent
route (brute-force enumeration, direct summation, cdf scans) and compares
it against the closed forms, exactly.  The per-urn families share one
sweep over the urns, total ascending and then good, which builds each
urn's exact ``pmf_table`` once and hands it to every family still running:
a family checks one urn and its table and returns its first-failure
message or None, and is not called again after its first failure.  The
tables are integers over C(total, good), compared as integers; only the
moments and failure messages build Fractions.  The summation lemmas have
their own (k, n, x) sweep.  The CLI turns any failure into a nonzero exit.
"""

from __future__ import annotations

from fractions import Fraction  # for failure messages only
from itertools import zip_longest
from math import comb

from ._record import Record
from .errors import ResourceGuardError, brief, require_int
from .exact import (
    PmfTable,
    UrnParams,
    cdf,
    mean,
    median,
    mode,
    pmf_table,
    sum_binom_closed,
    sum_binom_from_closed,
    sum_j_binom_closed,
    variance,
)
from .oracle import ENUMERATION_LIMIT, enumerate_pmf

__all__ = ["FamilyResult", "run_all"]

# Largest max_total that a sweep accepts without force.  Its cost grows as
# max_total^3, most of it in `lemma-sums`: on a 2-core Xeon VM under Python
# 3.11, the sweep took 0.2-0.3 s at 30, 1.0-1.1 s at 105, 2.6-2.7 s at 150
# and 6.3-7.5 s at 200 in process (lemma-sums 2.6-3.4 s of it), and cold
# `urn check --max-n` runs (no cached bytecode for urndist, unbuffered
# stdout; 3 runs each) took 1.0-1.3 s at 105, 2.3-2.8 s at 150, 5.9-6.8 s
# at 200, 8.7 s at 210 and 9.6 s at 220.
_SWEEP_LIMIT = 200
# Largest max_total that a sweep accepts even with force, so that `--force`
# means slow, not unbounded.  Cold `urn check --max-n N --force` runs (same
# settings as above, one run each, a one-core job running beside them) took
# 19.6 s at 250, 27.0 s at 300 and 216 s at 500.
_FORCE_LIMIT = 500


class FamilyResult(Record):
    """One family's report: its name, the cases it ran and its failure
    messages (it stops at the first)."""

    __slots__ = ("name", "cases", "failures")

    def __init__(self, name: str, cases: int = 0, failures: list[str] | None = None) -> None:
        super().__init__(name, cases, [] if failures is None else failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def _check_pmf_oracle(params: UrnParams, table: PmfTable) -> str | None:
    # enumeration costs C(total, good) per urn, so the sweep stops this
    # family at its own limit
    enumerated = enumerate_pmf(params)
    d, e = enumerated.denominator, table.denominator
    pairs = zip_longest(enumerated.numerators, table.numerators, fillvalue=0)
    for n, (a, b) in enumerate(pairs, start=1):
        if a * e != b * d:  # a/d vs b/e, cross-multiplied
            return (
                f"pmf mismatch at total={params.total} good={params.good} "
                f"n={n}: enumeration {Fraction(a, d)} vs closed form {Fraction(b, e)}"
            )
    return None


def _check_moments(params: UrnParams, table: PmfTable) -> str | None:
    table_mean = table.mean()  # summed once, and reused by the variance
    if table_mean != mean(params):
        return (
            f"mean mismatch at total={params.total} good={params.good}: "
            f"sum n*P(n) = {table_mean} vs closed form {mean(params)}"
        )
    table_var = table.variance(table_mean)
    if table_var != variance(params):
        return (
            f"variance mismatch at total={params.total} good={params.good}: "
            f"table gives {table_var} vs closed form {variance(params)}"
        )
    return None


def _check_normalization_cdf(params: UrnParams, table: PmfTable) -> str | None:
    if table.total_mass() != 1:
        return (
            f"pmf does not sum to 1 at total={params.total} "
            f"good={params.good}: {table.total_mass()}"
        )
    total, good, den = params.total, params.good, table.denominator
    full, prefix = comb(total, good), 0
    for n, a in enumerate(table.numerators, start=1):
        prefix += a
        # closed-form cdf (full - C(total-n, good)) / full vs prefix / den
        if (full - comb(total - n, good)) * den != prefix * full:
            return (
                f"cdf mismatch at total={total} good={good} "
                f"n={n}: cdf {cdf(params, n)} vs prefix sum {Fraction(prefix, den)}"
            )
    if cdf(params, params.support_size) != 1:
        return f"cdf does not reach 1 at total={total} good={good}"
    return None


def _check_pmf_shape(params: UrnParams, table: PmfTable) -> str | None:
    nums = table.numerators  # all over the one denominator
    total, good = params.total, params.good
    if good == 1:
        if any(a * total != table.denominator for a in nums):
            return f"good=1 pmf not constant 1/{total} at total={total}"
    else:
        for n in range(1, len(nums)):
            # strictly decreasing, with the stated ratio P(n)/P(n+1)
            if not (
                nums[n - 1] > nums[n]
                and nums[n - 1] * (total - n + 1 - good) == nums[n] * (total - n)
            ):
                return f"pmf shape violated at total={total} good={good} n={n}"
    top = max(nums)
    argmax = frozenset(n for n, a in enumerate(nums, start=1) if a == top)
    if argmax != frozenset(mode(params)):
        # CSV output forbids commas; render the sets space-separated
        shown = " ".join(map(str, sorted(argmax)))
        expected = " ".join(map(str, mode(params)))
        return (
            f"mode mismatch at total={total} good={good}: "
            f"argmax {{{shown}}} vs mode() {{{expected}}}"
        )
    return None


def _check_median(params: UrnParams, table: PmfTable) -> str | None:
    # by a scan of the closed-form cdf, which does not read the table:
    # cdf(n) >= 1/2 is 2 C(total-n, good) <= C(total, good)
    total, good = params.total, params.good
    m = median(params)
    full = comb(total, good)
    by_scan = next(
        n for n in range(1, params.support_size + 1)
        if 2 * comb(total - n, good) <= full
    )
    if by_scan != m:
        return (
            f"median mismatch at total={total} good={good}: median() = {m}; "
            f"cdf scan = {by_scan}"
        )
    return None


def _check_sum_identities(max_total: int) -> FamilyResult:
    result = FamilyResult("lemma-sums")
    for k in range(0, max_total + 1):
        # prefix[j] = sum_{i=k}^{j} C(i,k), jprefix likewise with a factor i
        prefix = {k - 1: 0}
        jprefix = {k - 1: 0}
        for j in range(k, max_total + 1):
            term = comb(j, k)
            prefix[j] = prefix[j - 1] + term
            jprefix[j] = jprefix[j - 1] + j * term
        for n in range(k, max_total + 1):
            result.cases += 1
            if sum_binom_closed(k, n) != prefix[n]:
                result.failures.append(
                    f"running-sum identity failed at k={k} n={n}: "
                    f"closed {sum_binom_closed(k, n)} vs direct {prefix[n]}"
                )
                return result
            if sum_j_binom_closed(k, n) != jprefix[n]:
                result.failures.append(
                    f"weighted-sum identity failed at k={k} n={n}: "
                    f"closed {sum_j_binom_closed(k, n)} vs direct {jprefix[n]}"
                )
                return result
            for x in range(k, n + 1):
                result.cases += 1
                direct = prefix[n] - prefix[x - 1]
                if sum_binom_from_closed(x, k, n) != direct:
                    result.failures.append(
                        f"partial-sum identity failed at k={k} x={x} n={n}: "
                        f"closed {sum_binom_from_closed(x, k, n)} vs direct {direct}"
                    )
                    return result
    return result


def run_all(max_total: int, *, force: bool = False) -> list[FamilyResult]:
    """Run every verification family up to ``max_total``; order is stable.

    Refuses a ``max_total`` above ``_SWEEP_LIMIT`` before any family runs,
    unless ``force`` is set, and one above ``_FORCE_LIMIT`` in any case.
    The brute-force ``pmf-oracle`` family stops at
    ``oracle.ENUMERATION_LIMIT`` whatever ``max_total`` and ``force`` are.
    """
    require_int("max total", max_total, 1)
    if max_total > _FORCE_LIMIT:
        raise ResourceGuardError(
            f"the check sweep up to total={brief(max_total)} is refused (max total > "
            f"{_FORCE_LIMIT}, with or without force): its cost grows faster than max_total^3"
        )
    if max_total > _SWEEP_LIMIT and not force:
        raise ResourceGuardError(
            f"the check sweep up to total={brief(max_total)} is refused (max total > "
            f"{_SWEEP_LIMIT}); pass force=True (urn check --force) to override"
        )
    # the per-urn families in report order, each with the largest total it
    # sweeps; the checks are read from the module on each call, so a test
    # can stub them
    per_urn = [
        (FamilyResult("pmf-oracle"), _check_pmf_oracle, ENUMERATION_LIMIT),
        (FamilyResult("moments"), _check_moments, max_total),
        (FamilyResult("normalization-cdf"), _check_normalization_cdf, max_total),
        (FamilyResult("pmf-shape"), _check_pmf_shape, max_total),
        (FamilyResult("median"), _check_median, max_total),
    ]
    urns = (UrnParams(total, good)  # total ascending, then good
            for total in range(1, max_total + 1) for good in range(1, total + 1))
    for params in urns:
        running = [(result, check) for result, check, limit in per_urn
                   if result.ok and params.total <= limit]
        if not running:
            break
        table = pmf_table(params)
        for result, check in running:
            result.cases += 1
            if (failure := check(params, table)) is not None:
                result.failures.append(failure)
    return [result for result, _, _ in per_urn] + [_check_sum_identities(max_total)]
