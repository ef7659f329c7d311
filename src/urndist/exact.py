"""Exact rational arithmetic for the first-success-without-replacement law.

An urn holds ``total`` objects of which ``good`` are the ones we want.
Objects are drawn uniformly at random without replacement and X is the
index of the first draw that yields a good object.  X is supported on
1..total-good+1 and its mass function is

    P(n) = C(total-n, good-1) / C(total, good)
         = Fail(n-1) * good / (total-n+1),

where Fail(n) = C(total-n, good) / C(total, good) is the probability that
the first n draws all miss.  Nothing in this module rounds, so equality
means mathematical equality: there are no tolerances anywhere in this
layer.  A single value is a ``fractions.Fraction``; a whole table is
integers over the one denominator D = C(total, good).  Its numerators
C(total-n, good-1) and C(total-n, good) of P(n) and Fail(n) come from
``binomial_numerators``, stepped along the support by the exact integer
recurrence C(a-1, k) = C(a, k) (a-k) / a; they serve ``pmf_table``, whose
checks need the common denominator.  ``urn table`` steps Fail by the same
ratio but prints each cell in lowest terms, cancelling small factors as it
goes, and never forms D.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from ._record import FrozenRecord
from .errors import ParameterError, require_int

# ``fractions`` is imported by the functions that make a Fraction, so that
# `urn table` and `urn sample` never load it (nor ``decimal``, which it
# imports); the annotations name Fraction as text (PEP 563)

__all__ = [
    "UrnParams",
    "PmfTable",
    "binomial",
    "fail_probability",
    "pmf",
    "cdf",
    "mean",
    "variance",
    "median",
    "mode",
    "support",
    "pmf_table",
    "binomial_numerators",
    "sum_binom_closed",
    "sum_binom_from_closed",
    "sum_j_binom_closed",
]


class UrnParams(FrozenRecord):
    """Validated urn description: ``total`` objects, ``good`` of them good.

    Instances are immutable and safe to share between threads or processes.
    Construction rejects ``good == 0``: with no good object the first
    success never happens and no distribution exists.
    """

    __slots__ = ("total", "good")

    def __init__(self, total: int, good: int) -> None:
        require_int("total", total)
        require_int("good", good, 1)
        if total < good:
            raise ParameterError(
                f"total must be >= good, got total={total} good={good}"
            )
        super().__init__(total, good)

    @property
    def support_size(self) -> int:
        """Number of attainable outcomes, total - good + 1."""
        return self.total - self.good + 1


def support(params: UrnParams) -> range:
    """The set of attainable outcomes, as the integer interval 1..total-good+1."""
    return range(1, params.support_size + 1)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), exactly.

    Follows the usual combinatorial convention: 0 for k < 0 or k > n.
    Negative n is an error rather than the generalized binomial.
    """
    require_int("n", n, 0)
    require_int("k", k)
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def fail_probability(params: UrnParams, n: int) -> Fraction:
    """Probability that the first ``n`` draws are all bad.

    Equals C(total-n, good) / C(total, good); by convention 1 at n = 0 and
    0 once n exceeds the number of bad objects.
    """
    from fractions import Fraction

    require_int("draw count", n, 0)
    if n == 0:
        return Fraction(1)
    if n > params.total - params.good:
        return Fraction(0)
    return Fraction(
        binomial(params.total - n, params.good),
        binomial(params.total, params.good),
    )


def pmf(params: UrnParams, n: int) -> Fraction:
    """P(X = n): probability the first good object appears on draw ``n``.

    Exactly 0 outside the support; n < 1 is a domain error.
    """
    from fractions import Fraction

    require_int("draw index", n, 1)
    if n > params.support_size:
        return Fraction(0)
    return fail_probability(params, n - 1) * Fraction(
        params.good, params.total - n + 1
    )


def cdf(params: UrnParams, n: int) -> Fraction:
    """P(X <= n).  Accepts n = 0 (gives 0) and n past the support (gives 1)."""
    return 1 - fail_probability(params, n)


def mean(params: UrnParams) -> Fraction:
    """E[X] = (total + 1) / (good + 1)."""
    from fractions import Fraction

    return Fraction(params.total + 1, params.good + 1)


def variance(params: UrnParams) -> Fraction:
    """Var[X] = good (total - good) (total + 1) / ((good + 2)(good + 1)^2).

    For good = 1 this reduces to the uniform-distribution variance
    (total^2 - 1) / 12.
    """
    from fractions import Fraction

    n, k = params.total, params.good
    return Fraction(k * (n - k) * (n + 1), (k + 2) * (k + 1) ** 2)


def median(params: UrnParams) -> int:
    """Smallest m with P(X <= m) >= 1/2.

    P(X <= m) >= 1/2 is Fail(m) <= 1/2, and Fail(m) = perm(bad, m) /
    perm(total, m) = perm(total-m, good) / perm(total, good), so each probe
    compares 2 numerator <= denominator in the form with min(m, good)
    factors and never builds C(total, good); perm(total, good) is built
    once, by the first probe past good.  A galloping search probes
    m = 1, 2, 4, ... until it holds, then bisects between the last failing
    and the first passing probe: O(log median) probes instead of a scan.
    """
    n, k = params.total, params.good
    full = 0  # perm(n, k) once a probe has needed it

    def reached(m: int) -> bool:
        nonlocal full
        if m <= k:
            return 2 * math.perm(n - k, m) <= math.perm(n, m)
        full = full or math.perm(n, k)
        return 2 * math.perm(n - m, k) <= full

    lo, hi = 0, 1  # m = 0 never passes: Fail(0) = 1
    while not reached(hi):
        lo, hi = hi, min(2 * hi, params.support_size)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reached(mid):
            hi = mid
        else:
            lo = mid
    return hi


def mode(params: UrnParams) -> range:
    """Most probable outcome(s), as a range of draws.

    range(1, 2) whenever good > 1 (the mass function strictly decreases);
    for good = 1 the distribution is uniform with mass 1/total everywhere,
    so every outcome ties and the mode is the whole support.
    """
    if params.good > 1:
        return range(1, 2)
    return support(params)


class PmfTable(FrozenRecord):
    """The full exact mass function: P(X = n) is ``numerators[n-1] /
    denominator``, over D = C(total, good) from ``pmf_table`` and the
    enumeration oracle alike.  The numerators are positive, sum to the
    denominator and strictly decrease when good > 1 (they are equal when
    good = 1).  Each sum below adds integers and returns one Fraction.
    """

    __slots__ = ("params", "numerators", "denominator")

    def __init__(self, params: UrnParams, numerators: tuple[int, ...],
                 denominator: int) -> None:
        super().__init__(params, numerators, denominator)

    @property
    def probabilities(self) -> tuple[Fraction, ...]:
        """P(X = n) for n = 1..total-good+1, as Fractions built on each read."""
        from fractions import Fraction

        return tuple(Fraction(a, self.denominator) for a in self.numerators)

    def probability(self, n: int) -> Fraction:
        """P(X = n) looked up from the table; 0 outside the support."""
        from fractions import Fraction

        if 1 <= n <= len(self.numerators):
            return Fraction(self.numerators[n - 1], self.denominator)
        return Fraction(0)

    def total_mass(self) -> Fraction:
        from fractions import Fraction

        return Fraction(sum(self.numerators), self.denominator)

    def mean(self) -> Fraction:
        """First moment computed directly from the table entries."""
        from fractions import Fraction

        return Fraction(
            sum(n * a for n, a in enumerate(self.numerators, start=1)), self.denominator
        )

    def variance(self, first_moment: Fraction | None = None) -> Fraction:
        """Second central moment computed directly from the table entries;
        a ``first_moment`` from ``mean()`` spares summing it again."""
        from fractions import Fraction

        m = self.mean() if first_moment is None else first_moment
        second = sum(n * n * a for n, a in enumerate(self.numerators, start=1))
        return Fraction(second, self.denominator) - m * m


def binomial_numerators(params: UrnParams) -> Iterator[tuple[int, int]]:
    """(C(total-n, good-1), C(total-n, good)) for n = 1..total-good+1.

    Over D = C(total, good) these are P(n) and Fail(n), so cdf(n) is
    (D - second) / D.  Both start from D (C(total-1, good-1) = D good/total
    and C(total-1, good) = D (total-good)/total) and step by the exact
    integer recurrence C(a-1, k) = C(a, k) (a-k) / a with a = total-n.
    """
    total, k = params.total, params.good
    full = binomial(total, k)
    pmf_num, fail_num = full * k // total, full * (total - k) // total
    yield pmf_num, fail_num
    for a in range(total - 1, k - 1, -1):
        pmf_num = pmf_num * (a - k + 1) // a
        fail_num = fail_num * (a - k) // a
        yield pmf_num, fail_num


def pmf_table(params: UrnParams) -> PmfTable:
    """Tabulate the exact mass function over the whole support: the
    numerators C(total-n, good-1) from ``binomial_numerators`` over
    C(total, good)."""
    return PmfTable(
        params=params,
        numerators=tuple(a for a, _ in binomial_numerators(params)),
        denominator=binomial(params.total, params.good),
    )


def sum_binom_closed(k: int, n: int) -> int:
    """Closed form of sum_{j=k}^{n} C(j, k): the hockey-stick value C(n+1, k+1)."""
    require_int("k", k, 0)
    require_int("n", n, k)
    return math.comb(n + 1, k + 1)


def sum_binom_from_closed(x: int, k: int, n: int) -> int:
    """Closed form of sum_{j=x}^{n} C(j, k) for k <= x <= n."""
    require_int("k", k, 0)
    require_int("x", x, k)
    require_int("n", n, x)
    return math.comb(n + 1, k + 1) - math.comb(x, k + 1)


def sum_j_binom_closed(k: int, n: int) -> int:
    """Closed form of sum_{j=k}^{n} j C(j, k): n C(n+1, k+1) - C(n+1, k+2)."""
    require_int("k", k, 0)
    require_int("n", n, k)
    return n * math.comb(n + 1, k + 1) - math.comb(n + 1, k + 2)
