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

The scan
--------
Write N = total, K = good, B = N - K, p = K/N, q = B/N, j = n - 1, and
Fail(j) = P(X > j) = prod_{i<j} (B-i)/(N-i).  Each factor divided by q is
1 - iK/(B(N-i)), so the log ratio to the geometric law,

    gap(j) = log(Fail(j) / q^j) = sum_{i<j} log1p(-iK / (B(N-i))),

is a cumulative sum of terms <= 0, in which nothing cancels.  One scan over
j, in blocks, carries it and reads both distances off it:

    P(n) - G(n) = G(n) expm1(gap(j) + log1p(j/(N-j))),  G(n) = p exp(j log q),

(log1p(j/(N-j)) is -log1p(-j/N) without the rounding of j/N near j = N)
and the total variation below.  The ratio P(n)/G(n) is 1 at n = 1, and its
step to n + 1, N(N-K-n+1) / ((N-n)(N-K)), is >= 1 exactly when n <= N/K: it
rises, then falls, so P - G changes sign once, at the last m* with
P(m*) >= G(m*).  The cdf gap q^m - Fail(m) = sum_{n<=m} (P(n) - G(n)) thus
rises up to m* and falls after it, and

    tv = q^(m*) - Fail(m*) = max_m (q^m - Fail(m)) = max_m -q^m expm1(gap(m)),

with m = B + 1, where Fail = 0, among the candidates: no mass is summed.
This is the single-crossing argument of D. Freedman, "A remark on the
difference between sampling with and without replacement", JASA 72 (1977),
and P. Diaconis and D. Freedman, Ann. Probab. 8 (1980).  The positive and
the negative parts of P - G each sum to tv, so no |P(n) - G(n)| exceeds it,
and the reported tv is at least the reported largest one: for p > 2/3 only
P(2) - G(2) is positive, and the two distances are equal but rounded by
different formulas.

gap is not taken from Loader's form of log Fail (``floats._log_fail``) less
its j log q term: those terms are of size Kj/N and cancel down to gap,
which left 5e-11 to 1e-10 relative error at (10^12, 10^6) and no correct
digit at 2^100.

Stop rule.  Neither P nor G grows with n, and at n = j + 1 both are at most
q^j K/(N-j) (Fail(j) <= q^j, as every draw misses with chance (B-i)/(N-i)
<= q).  The scan stops at the first block start j that is past the
crossing (P < G at the last point scanned) and has q^j K/(N-j) below the
largest |P - G| found: no later point can raise either distance.

Guard.  The largest |P - G| is at least P(2) - G(2) = pq/(N-1).  For
j <= N/2, K/(N-j) <= 2p, so the stop bound is below pq/(N-1) once
q^(j-1) < 1/(2(N-1)), that is past J = 1 + ln(2(N-1)) / -log q.  And
gap(j) <= -sum_{i<j} iK/(BN) = -j(j-1)p/(2qN), while -log1p(-j/N) <= 2j/N,
so log(P/G) at n = j + 1 is at most (j/N)(2 - (j-1)p/(2q)), negative by far
more than rounding once j - 1 > 5q/p.  As -log q <= p/q, J - 2 >=
(q/p) ln(2(N-1)) - 1 > 5q/p for p <= 1/2 and N >= 1000; for p > 1/2 the
first block alone passes 5q/p.  So when J + LOG_FAIL_BLOCK <= N/2 (and
N >= 1000) the scan stops at a block start below J + LOG_FAIL_BLOCK, and
otherwise it may run to the end of the support.  Urns whose bound exceeds
``_SCAN_POINTS_LIMIT`` are refused with ``ResourceGuardError`` before any
point is scanned.  J is below the old scan's lower bound 60 ln 2 / -log q
for N below about 5e17.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

from ._record import FrozenRecord
from .errors import ParameterError, ResourceGuardError, brief, require_int
from .exact import UrnParams
from .floats import LOG_FAIL_BLOCK, _fail_constants

__all__ = [
    "ConvergenceRecord",
    "geometric_pmf",
    "tv_distance",
    "convergence_table",
]

# Largest bound on the scan, in points, that an urn may have (see Guard in
# the module docstring).  On a 2-core Xeon the scan costs 23-25 ns per point
# over 1.5e7-9e7 points and stops at 0.47-0.54 of its bound, so an urn at the
# limit takes about 2.5 s in process; (1e12, 1.5e5), bound 1.9e8, took 2.2 s.
_SCAN_POINTS_LIMIT = 2 * 10**8


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


def _require_scan_budget(params: UrnParams) -> None:
    """Refuse an urn whose scan may pass ``_SCAN_POINTS_LIMIT`` points: its
    support, unless the bound J + LOG_FAIL_BLOCK of the module docstring
    holds (it is at most N/2) and is smaller."""
    if params.support_size <= _SCAN_POINTS_LIMIT:
        return
    log_q = _fail_constants(params.total, params.good)[1]
    bound = 1 + math.log(2 * (params.total - 1)) / -log_q + LOG_FAIL_BLOCK
    if bound > _SCAN_POINTS_LIMIT or 2 * bound > params.total:
        raise ResourceGuardError(
            f"the convergence scan may need more than its limit of "
            f"{_SCAN_POINTS_LIMIT:.3g} points: p is too small for this total"
        )


def _tv_stats(params: UrnParams) -> tuple[float, float, int]:
    """(tv distance, max pointwise |pmf - geometric|, argmax n), from one
    scan of gap(j), j = n - 1, as the module docstring sets out.

    No point past the stop can raise either distance: max_err and at_n are
    those of the computed values over the whole support, and tv is the
    largest computed candidate over every m.
    """
    total, good = params.total, params.good
    bad = total - good
    if not bad:
        return 0.0, 0.0, 1  # both laws are the point mass at 1
    log_q = _fail_constants(total, good)[1]  # refuses totals from 2^511 on
    p, ratio = good / total, good / bad
    tv = max_err = gap = 0.0
    at_n, crossed, j0 = 1, False, 1
    k = np.arange(min(LOG_FAIL_BLOCK, bad), dtype=np.float64)
    x, y, geo = np.empty((3, k.size))
    while j0 <= bad:  # the block j = j0, j0 + 1, ..., at n = j + 1
        if crossed and math.exp(j0 * log_q) * good / (total - j0) < max_err:
            break
        count = min(LOG_FAIL_BLOCK, bad - j0 + 1)
        kc, g, d, c = k[:count], x[:count], y[:count], geo[:count]
        # gap(j) = gap(j0 - 1) + the terms at i = j0 - 1, ..., j - 1
        np.subtract(float(total - j0 + 1), kc, out=d)  # N - i
        np.add(kc, float(j0 - 1), out=g)  # i: exact below 2^53, far past any scan
        np.divide(g, d, out=g)
        np.multiply(g, -ratio, out=g)
        np.log1p(g, out=g)
        np.cumsum(g, out=g)
        np.add(g, gap, out=g)
        gap = float(g[-1])
        np.add(kc, float(j0), out=c)  # j
        np.subtract(float(total - j0), kc, out=d)  # N - j
        # -log1p(-j/N) as log1p(j/(N-j)): j/N would be rounded near j = N
        np.divide(c, d, out=d)
        np.log1p(d, out=d)
        np.add(g, d, out=d)
        np.expm1(d, out=d)  # P/G - 1 at n = j + 1
        crossed = d[-1] < 0.0
        np.multiply(c, log_q, out=c)
        np.exp(c, out=c)  # q^j
        np.multiply(d, c, out=d)  # (P - G) / p
        np.expm1(g, out=g)
        np.multiply(g, c, out=g)  # Fail(j) - q^j
        tv = max(tv, -float(g.min()))
        np.abs(d, out=d)
        i = int(d.argmax())
        if p * d[i] > max_err:
            max_err, at_n = p * float(d[i]), j0 + i + 1
        j0 += count
    if j0 > bad:  # the candidate m = B + 1, where Fail = 0
        tv = max(tv, math.exp((bad + 1) * log_q))
    return max(tv, max_err), max_err, at_n  # tv >= every |P - G|


def tv_distance(params: UrnParams) -> float:
    """Total-variation distance to the geometric law with p = good/total."""
    _require_scan_budget(params)
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
        _require_scan_budget(urns[-1])
    return [ConvergenceRecord(u.total, u.good, u.good / u.total, *_tv_stats(u))
            for u in urns]
