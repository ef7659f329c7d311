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

Every draw misses with chance (bad-i)/(total-i) <= q, so Fail(m) <= q^m, and
both laws put at most q^(n-1) on any n and at most q^(N-1) on all n >= N
together.  The scan runs over n = 1, 2, ... in blocks and stops before a
block that starts at N once 2 q^(N-1) is below the largest pointwise error
found so far and at most 2^-60 of the |urn - geometric| mass summed so far
(the factor 2 covers the rounding of q^(N-1)).  Its length therefore
follows ln(2^60/tv)/p, not the support size.  When the scan reaches the end
of the support instead, the geometric tail past it, q^(total-good+1), is
added in closed form.

Since the summed mass is at most 2, no scan stops before q^(N-1) <= 2^-60,
so it evaluates at least min(support, ceil(60 ln 2 / -log q)) points;
urns where that exceeds ``_SCAN_POINTS_LIMIT`` are refused with
``ResourceGuardError`` before any is scanned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import ParameterError, ResourceGuardError, require_int
from .exact import UrnParams
from .floats import LOG_FAIL_BLOCK, _workspace

__all__ = [
    "ConvergenceRecord",
    "geometric_pmf",
    "tv_distance",
    "convergence_table",
]

# Fewest points a scan needs before it can stop: q^(N-1) <= 2^-60.
_STOP_LOG = 60 * math.log(2)
# Largest such lower bound, in points, that the scan accepts.  On a 2-core
# Xeon the scan costs 33-37 ns per point over 5e7-5e8 points, and it runs
# 1.2-1.3 times its lower bound at tv from 2.7e-4 to 2.7e-6 (it takes
# about ln(2^60/tv) / -log q points), so an urn at the limit takes 8-10 s;
# (1e12, 1e5), bound 4.2e8, took 20 s.
_SCAN_POINTS_LIMIT = 2 * 10**8


@dataclass(frozen=True)
class ConvergenceRecord:
    """One row of a convergence report: distances at a single urn size."""

    total: int
    good: int
    p: float
    tv_distance: float
    max_pointwise_error: float
    at_n: int


def geometric_pmf(p: float, n: int) -> float:
    """Geometric law on 1, 2, ...: probability (1-p)^(n-1) p."""
    require_int("draw index", n, 1)
    if not 0.0 < p <= 1.0:
        raise ParameterError(f"p must lie in (0, 1], got {p!r}")
    return (1.0 - p) ** (n - 1) * p


def _require_scan_budget(params: UrnParams) -> None:
    """Refuse an urn whose scan needs more than ``_SCAN_POINTS_LIMIT`` points."""
    if params.support_size <= _SCAN_POINTS_LIMIT:
        return
    log_q = math.log1p(-params.good / params.total)
    # the scan needs at least ceil(_STOP_LOG / -log_q) points
    if -log_q * _SCAN_POINTS_LIMIT < _STOP_LOG:
        raise ResourceGuardError(
            f"the convergence scan would need more than its limit of "
            f"{_SCAN_POINTS_LIMIT:.3g} points: p is too small for this total"
        )


def _tv_stats(params: UrnParams) -> tuple[float, float, int]:
    """(tv distance, max pointwise |pmf - geometric|, argmax n).

    ``max_err`` and ``at_n`` are exact for the computed pmf values: no point
    past the stop can reach ``max_err``.  tv is within its rounding: the
    dropped mass is at most 2^-60 of it.
    """
    total, good = params.total, params.good
    size = params.support_size
    p = good / total
    if good == total:
        return 0.0, 0.0, 1  # both laws are the point mass at 1
    q = 1.0 - p
    abs_sums = []
    scanned = 0.0
    max_err = 0.0
    at_n = 1
    start = 1
    # the float layer's workspace: k = 0, 1, ... and its two scratch blocks,
    # which are free once pmf_float_range returns, so they are filled after it
    k, geom, diff = _workspace()
    while start <= size:
        rest = 2.0 * q ** (start - 1)  # bounds both laws' mass at n >= start
        if rest < max_err and rest <= 2.0**-60 * scanned:
            break
        count = min(LOG_FAIL_BLOCK, size - start + 1)
        urn = _kernels.pmf_float_range(total, good, start, count)
        g, d = geom[:count], diff[:count]
        np.add(k[:count], float(start - 1), out=g)  # n - 1: exact below 2^53, far past any scan
        np.power(q, g, out=g)
        np.multiply(g, p, out=g)
        np.subtract(urn, g, out=d)
        np.abs(d, out=d)
        abs_sums.append(float(d.sum()))
        scanned += abs_sums[-1]
        i = int(d.argmax())
        if d[i] > max_err:
            max_err = float(d[i])
            at_n = start + i
        start += count
    tail = q ** size if start > size else 0.0  # geometric mass past the support
    tv = 0.5 * (math.fsum(abs_sums) + tail)
    return min(1.0, tv), max_err, at_n


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
    if not 0 < p < 1:
        raise ParameterError(f"p must lie strictly between 0 and 1, got {p}")
    if not totals:
        raise ParameterError("totals must be non-empty")
    urns = []
    for total in totals:
        require_int("total", total, 1)
        good_times_den = total * p.numerator
        if good_times_den % p.denominator:
            raise ParameterError(
                f"total={total} is incompatible with p={p}: "
                f"{total} * {p} is not an integer"
            )
        urns.append(UrnParams(total=total, good=good_times_den // p.denominator))
        _require_scan_budget(urns[-1])
    records = []
    for params in urns:
        tv, max_err, at_n = _tv_stats(params)
        records.append(
            ConvergenceRecord(
                total=params.total,
                good=params.good,
                p=params.good / params.total,
                tv_distance=tv,
                max_pointwise_error=max_err,
                at_n=at_n,
            )
        )
    return records
