"""How fast the without-replacement law approaches its geometric limit.

Hold the good fraction p = good/total fixed and let the urn grow: each
draw then barely changes the composition, and the first-success law tends
to the geometric distribution q^(n-1) p with q = 1 - p.  This module
measures that convergence with total-variation distance, reported together
with the largest single-point discrepancy.

Both distances fall as 1/N at total N.  To first order in 1/N, N times
the pmf gap at n tends to q^(n-1) p (n-1) (1 - p (n-2) / (2q)), which
changes sign once, at n* = 2 + 2q/p.  So N*tv tends to
c(p) = p M (M-1) q^(M-1) / 2 with M = floor(n*), and N*max_pointwise_error
to the largest |term|; both are within 1/(pN) relative of their limits
wherever pN >= 10 (0.33-0.53/(pN) measured for p <= 1/2).

The gap
-------
Write N = total, K = good, B = N - K, p = K/N, q = B/N, j = n - 1, and
Fail(j) = P(X > j) = prod_{i<j} (B-i)/(N-i).  Both distances are read off
the log ratio to the geometric law, gap(j) = log(Fail(j) / q^j) <= 0:

    P(n) - G(n) = G(n) expm1(L(j)),  L(j) = gap(j) + log1p(j/(N-j)),

with G(n) = p exp(j log q) (log1p(j/(N-j)) is -log1p(-j/N) without the
rounding of j/N near j = N).  gap(0) = gap(1) = 0.  For 2 <= j <= B/2,
Stirling's formula with its exact error terms (``_loader._stirlerr``) on
log(B!/(B-j)!) - log(N!/(N-j)!) gives, with a log a - (a-j) log(a-j) - j =
j log a + a g(j/a) and g(t) = -(1-t) log1p(-t) - t = -sum_{k>=2} t^k/(k(k-1)),

    gap(j) = -sum_{k>=2} j^k (1 - q^(k-1)) / (k(k-1) B^(k-1))
             + log1p(jK / (N(B-j))) / 2
             + [stirlerr(B) - stirlerr(B-j)] - [stirlerr(N) - stirlerr(N-j)]:

the j log terms cancel exactly, and the N and B series differ by the
factor 1 - q^(k-1), taken as -expm1((k-1) log q).  Every series term has
one sign and they shrink by the factor j/B <= 1/2 or faster, so the sum
stops when a term no longer changes it (2 to ~50 terms), and nothing in
it cancels.  Past B/2 the series converges slowly, and gap is the shorter
of two sums of logs of exact integer quotients: while j <= K,
sum_{i<j} log(1 - iK/(B(N-i))) with 1 - iK/(B(N-i)) = N(B-i)/(B(N-i)),
terms <= 0 in which nothing cancels; else log Fail(j) =
sum_{i<K} log((N-j-i)/(N-i)), each factor at most 3/4 there (so each log
is well conditioned, also for small K with j near N), less j log q, which
cancels by a factor of at most ~12 as p < 1/2.  The searches below reach
j > B/2 only where min(j, K) is at most ~700 (K < 2 ln(2N)).  gap is not
taken from Loader's form of log Fail (``_loader._log_fail``) less its
j log q term at small j: those terms are of size Kj/N and cancel down to
gap, which left 5e-11 to 1e-10 relative error at (10^12, 10^6) and no
correct digit at 2^100.

The crossing
------------
The ratio P(n)/G(n) is 1 at n = 1, and its step to n + 1,
N(N-K-n+1) / ((N-n)(N-K)), is >= 1 exactly when n <= N/K: it rises, then
falls, so P - G changes sign once, at the last m* with P(m*) >= G(m*), the
last n with L(n-1) >= 0.  The cdf gap q^m - Fail(m) = sum_{n<=m}
(P(n) - G(n)) thus rises up to m* and falls after it, and

    tv = q^(m*) - Fail(m*) = max_m (q^m - Fail(m)) = max_m -q^m expm1(gap(m)),

with q^(B+1) at m = B + 1, where Fail = 0: no mass is summed.  This is the
single-crossing argument of D. Freedman, "A remark on the difference
between sampling with and without replacement", JASA 72 (1977), and
P. Diaconis and D. Freedman, Ann. Probab. 8 (1980).  m* is found by
bisection on the sign of L between L(1) = log1p(1/(N-1)) > 0 and
j = 2 + floor(4B/K): gap(j) <= -sum_{i<j} iK/(BN) = -j(j-1)p/(2qN) and
log1p(j/(N-j)) <= 2j/N for j <= N/2, so L(j) <= (j/N)(2 - (j-1)p/(2q)) < 0
once j - 1 > 4q/p; where that j passes B or N/2 the bracket ends at
B + 1, where P = 0.  tv is the largest of the candidates m* - 1, m* and
m* + 1, in case rounding moved the crossing by one.  The positive and the
negative parts of P - G each sum to tv, so no |P(n) - G(n)| exceeds it,
and the reported tv is at least the reported largest one: for p > 2/3 only
P(2) - G(2) is positive, and the two distances are equal but rounded by
different formulas.

The searches
------------
|P - G| rises and then falls on each side of m* (checked exactly, with
Fractions, at every urn of total <= 200; not proven), so one integer
search per side finds its top: n = 2..m* and n = m* + 1 on.  A ternary
search keeps its two probes a third of the bracket apart, so that where
rounding flattens a wide top (at K = 2 or 3 the top is ~N wide) the value
found is within a few ulps of the largest, though the n may differ from
the exact argmax; the last bracket and its neighbours settle ties to the
first largest.  The probes compare log|P - G| = log p + j log q +
log|expm1(L)|, since q^j underflows in the far tails of urns with p near 1
(L <= log(N/K) < 355, so expm1 never overflows).  The second side ends
where no point can pass P(2) - G(2) = pq/(N-1) <= the largest |P - G|:
neither P nor G grows with n, and at n = j + 1 both are at most
q^j K/(N-j) (Fail(j) <= q^j, as every draw misses with chance
(B-i)/(N-i) <= q), below pq/(N-1) from j = 1 + ln(2(N-1)) / -log q on
where that j is at most N/2, as K/(N-j) <= 2p there; otherwise it ends at
B.  At K = 1 the law is uniform and |P - G| = (1 - q^(n-1))/N rises over
the whole support, flat to within rounding at its end, so the report
takes its closed form: at_n = N, tv = q^N.  A report costs at most about
8 log2(N) scalar evaluations of gap, whatever p is: 0.1-2 ms in process up
to total 10^18, and at most ~35 ms near 2^511, on a 2-core Xeon.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from ._loader import _fail_constants, _stirlerr
from ._record import FrozenRecord
from .errors import ParameterError, brief, require_int
from .exact import UrnParams

__all__ = [
    "ConvergenceRecord",
    "geometric_pmf",
    "tv_distance",
    "convergence_table",
]


class ConvergenceRecord(FrozenRecord):
    """One row of a convergence report: distances at a single urn size."""

    __slots__ = ("total", "good", "p", "tv_distance", "max_pointwise_error", "at_n")

    def __init__(self, total: int, good: int, p: float, tv_distance: float,
                 max_pointwise_error: float, at_n: int) -> None:
        super().__init__(total, good, p, tv_distance, max_pointwise_error, at_n)


def geometric_pmf(p: float, n: int) -> float:
    """Geometric law on 1, 2, ...: probability (1-p)^(n-1) p.

    Computed as exp((n-1) log1p(-p)) p, within a few ulps where
    (n-1) |log1p(-p)| is small: the power (1-p)^(n-1) would carry the
    rounding of 1 - p, n - 1 times (1.7e-11 relative at p = 1e-6, n = 585787).
    """
    require_int("draw index", n, 1)
    if not 0.0 < p <= 1.0:
        raise ParameterError(f"p must lie in (0, 1], got {p!r}")
    if n == 1:
        return p  # log1p(-1) is -inf at p = 1, and 0 * -inf is nan
    return math.exp((n - 1) * math.log1p(-p)) * p


def _gap(total: int, good: int, log_q: float, j: int) -> float:
    """gap(j) = log(Fail(j) / q^j), for 0 <= j <= bad: the Stirling series
    while 2j <= bad, then the shorter sum of logs of exact quotients (see The
    gap in the module docstring)."""
    bad = total - good
    if j < 2:
        return 0.0  # Fail(1) = q
    if j + j <= bad:
        # sum_{k>=2} j^k (1 - q^(k-1)) / (k(k-1) B^(k-1)), with j^k / B^(k-1)
        # = j t^(k-1): terms of one sign that shrink by t <= 1/2 or faster
        t = j / bad
        power, series, k = j * t, 0.0, 2
        while series + (term := power * -math.expm1((k - 1) * log_q) / (k * (k - 1))) != series:
            series += term  # the tail after a term is at most the term
            power *= t
            k += 1
        return (0.5 * math.log1p(j * good / (total * (bad - j))) - series
                + (_stirlerr(bad) - _stirlerr(bad - j))
                - (_stirlerr(total) - _stirlerr(total - j)))
    if j <= good:
        # terms log(1 - iK/(B(N-i))) <= 0 of exact quotients: nothing cancels
        return math.fsum(math.log(total * (bad - i) / (bad * (total - i))) for i in range(j))
    # Fail(j) = prod_{i<K} (N-j-i)/(N-i), each factor an exact quotient of at
    # most 3/4, less j log q, which cancels by a factor of at most ~12 here
    return math.fsum(math.log((total - j - i) / (total - i)) for i in range(good)) - j * log_q


def _tv_stats(params: UrnParams) -> tuple[float, float, int]:
    """(tv distance, max pointwise |pmf - geometric|, argmax n), from a
    bisection for the crossing and one peak search on each side of it, as
    the module docstring sets out."""
    total, good = params.total, params.good
    bad = total - good
    if not bad:
        return 0.0, 0.0, 1  # both laws are the point mass at 1
    log_q = _fail_constants(total, good)[1]  # refuses totals from 2^511 on
    p = good / total
    if good == 1:
        # the uniform law: P - G = (1 - q^(n-1))/N rises to n = N, and tv is
        # the candidate m = N, where Fail = 0
        tv, max_err = math.exp(total * log_q), -p * math.expm1(bad * log_q)
        return max(tv, max_err), max_err, total

    def ratio(j: int) -> float:  # log(P/G) at n = j + 1
        # -log1p(-j/N) as log1p(j/(N-j)): j/N would be rounded near j = N
        return _gap(total, good, log_q, j) + math.log1p(j / (total - j))

    def key(j: int) -> float:  # log(|P - G| / p) at n = j + 1; q^j may underflow
        d = math.expm1(ratio(j))
        return math.log(abs(d)) + j * log_q if d else -math.inf

    def peak(lo: int, hi: int) -> int:
        # the first top of key on lo..hi, where it rises and then falls: a
        # ternary search, whose two probes stay a third of the bracket apart,
        # so that rounding in a flat top costs a few ulps of the value; then
        # the first largest of the last bracket and its neighbours
        a, b = lo, hi
        while b - a > 2:
            third = (b - a) // 3
            if key(a + third) < key(b - third):
                a += third + 1
            else:
                b -= third + 1
        return max(range(max(lo, a - 1), min(hi, b + 1) + 1), key=key)

    # s = m* - 1, the last j with ratio(j) >= 0; ratio(1) > 0, and ratio < 0
    # from 2 + 4B/K on where that is at most N/2
    lo, hi = 1, 2 + 4 * bad // good
    if hi > bad or 2 * hi > total:
        hi = bad + 1  # P = 0 < G there
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ratio(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    s = lo
    tv = max(
        math.exp(m * log_q) if m > bad  # Fail(B + 1) = 0
        else -(math.expm1(_gap(total, good, log_q, m)) * math.exp(m * log_q))
        for m in range(s, min(s + 2, bad + 1) + 1)
    )
    # no |P - G| from j = J on passes P(2) - G(2), J of The searches
    edge = int(1 + math.log(2 * (total - 1)) / -log_q) + 2
    last = bad if 2 * edge > total else min(bad, edge)
    tops = [peak(1, s)] + ([peak(s + 1, last)] if s < last else [])
    j = max(tops, key=key)
    max_err = p * abs(math.expm1(ratio(j)) * math.exp(j * log_q))
    return max(tv, max_err), max_err, j + 1  # tv >= every |P - G|


def tv_distance(params: UrnParams) -> float:
    """Total-variation distance to the geometric law with p = good/total."""
    return _tv_stats(params)[0]


def convergence_table(
    p: Fraction, totals: Sequence[int]
) -> list[ConvergenceRecord]:
    """Convergence report along a sequence of urn sizes at fixed p.

    ``p`` must be a rational in (0, 1) and every total must make
    ``total * p`` a whole number of good objects, so the fixed-fraction
    hypothesis holds exactly along the sequence.
    """
    if not isinstance(p, Fraction):
        raise ParameterError(f"p must be a Fraction, got {p!r}")
    # p as str(p) writes it, each part through brief
    p_text = brief(p.numerator) + (f"/{brief(p.denominator)}" if p.denominator > 1 else "")
    if not 0 < p < 1:
        raise ParameterError(f"p must lie strictly between 0 and 1, got {p_text}")
    if not totals:
        raise ParameterError("totals must be non-empty")
    urns = []
    for total in totals:
        require_int("total", total, 1)
        good_times_den = total * p.numerator
        if good_times_den % p.denominator:
            raise ParameterError(
                f"total={brief(total)} is incompatible with p={p_text}: "
                f"{brief(total)} * {p_text} is not an integer"
            )
        urns.append(UrnParams(total=total, good=good_times_den // p.denominator))
    return [ConvergenceRecord(u.total, u.good, u.good / u.total, *_tv_stats(u))
            for u in urns]
