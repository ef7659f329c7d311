"""The scalar float layer, in pure Python: log Fail(m) in Loader's form, and
the pmf, cdf and moments built on it.

It imports no numpy, so ``urn converge`` and any other scalar caller run
without it; :mod:`urndist.floats` re-exports its public names and adds the
numpy block kernels.  The domain is total < 2^511 (``TOTAL_LIMIT``); other
totals raise ``ParameterError``.  The bounds below are verified for totals
up to 2^510 + 12345 (past 2^53 against loggamma references at 2*bits + 200
bits).  Log-probabilities are plain floats (<= 0, with -inf standing for
probability zero); exp(-inf) == 0.0 makes the out-of-support cases fall out
naturally.

Accuracy notes
--------------
``_log_fail`` is the backbone: the log of the hypergeometric probability of
no good object in m draws, in Loader's saddle-point form (C. Loader, "Fast
and Accurate Computation of Binomial Probabilities", 2000; R nmath
``dhyper.c``, ``dbinom.c``, ``stirlerr.c``, ``bd0.c``).  Stirling's
formula is applied to the four factorials of C(total-m, good)/C(total,
good) with its exact error terms (``stirlerr``), and the large logarithms
are regrouped so that no term is more than a few times the result in
size.  The relative error of the log is then a few ulps at every size:
below 1e-15 at totals of 1e9 and 1e12 against 60-digit references.

Stated bounds: 1e-13 relative on log-fail values however small, and
1e-10 relative on pmf and cdf values.  ``pmf_float`` rounds once, in its
final ``exp``, so that values deep in the subnormal range keep their
correctly rounded double; ``cdf_float`` uses ``-expm1(log_fail)``, whose
relative error is the absolute error of the log divided by the cdf, so a
small cdf is as accurate as the log-fail value behind it.
"""

from __future__ import annotations

import functools
import math

from .errors import ParameterError, require_int
from .exact import UrnParams

__all__ = ["log_fail", "pmf_float", "cdf_float", "mean_float", "variance_float"]

NEG_INF = float("-inf")

# stirlerr(n) = log(n!) - log(sqrt(2*pi*n) * (n/e)**n) for n = 0..500:
# correctly rounded for n = 0..15 (stirlerr(0) is a placeholder: no caller
# needs it), then the Stirling series to 5 terms, filled in below.
_STIRLERR_SMALL = (
    0.0,
    0.08106146679532726,
    0.0413406959554093,
    0.02767792568499834,
    0.020790672103765093,
    0.016644691189821193,
    0.013876128823070748,
    0.01189670994589177,
    0.010411265261972096,
    0.009255462182712733,
    0.00833056343336287,
    0.007573675487951841,
    0.00694284010720953,
    0.006408994188004207,
    0.0059513701127588475,
    0.005554733551962801,
)
# Coefficients of the Stirling series 1/(12n) - 1/(360n^3) + 1/(1260n^5) - ...
_S0 = 1 / 12
_S1 = 1 / 360
_S2 = 1 / 1260
_S3 = 1 / 1680
_S4 = 1 / 1188
_STIRLERR_SMALL += tuple(
    (_S0 - (_S1 - (_S2 - (_S3 - _S4 / n**2) / n**2) / n**2) / n**2) / n
    for n in range(16, 501)
)
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


def _stirlerr(n: int) -> float:
    """Error of Stirling's formula for log(n!), for integers n >= 0.

    The table up to 500, then the series to 2 terms, where the next term
    falls below 2e-16 absolute (R nmath ``stirlerr.c``).
    """
    if n <= 500:
        return _STIRLERR_SMALL[n]
    return (_S0 - _S1 / (n * n)) / n


# Totals from here on are refused: the Stirling series divides by n*n, which
# no longer converts to a double once n nears 2^512.
TOTAL_LIMIT = 1 << 511


@functools.lru_cache(maxsize=64)
def _fail_constants(total: int, good: int) -> tuple[float, float]:
    # the two terms of _log_fail that depend on the urn alone; every
    # log-fail evaluation passes through here, so it holds the domain check
    if total >= TOTAL_LIMIT:
        raise ParameterError(
            f"floating-point evaluation needs total < 2^511, got a total of "
            f"{total.bit_length()} bits"
        )
    bad = total - good
    st_const = _stirlerr(bad) - _stirlerr(total)
    if good + good < total:
        return st_const, math.log1p(-good / total)
    return st_const, math.log(bad / total)


def _log_fail(total: int, good: int, m: int) -> float:
    """log Fail(m) = log dhyper(0; good, bad, m), for 1 <= m <= bad.

    With a = bad - m and b = total - m, Stirling's formula with its exact
    error terms gives

        good*log(b/total) + m*log(bad/total) - (a + 1/2)*log(a*total/(bad*b))
        + stirlerr(bad) - stirlerr(total) - stirlerr(a) + stirlerr(b),

    Loader's saddle-point form of dhyper at zero (the bd0 terms written
    out).  No term exceeds a few times |log Fail(m)| in size, so the sum
    keeps a relative error of a few ulps wherever the three logarithms do.
    """
    bad = total - good
    st_const, log_p_bad = _fail_constants(total, good)
    b = total - m
    # log(b/total), without cancellation near m = total
    log_q = math.log1p(-m / total) if m + m < total else math.log(b / total)
    if m == bad:
        # a = 0: Fail(bad) = 1/C(total, good), R's x == n branch of dbinom_raw
        return (
            good * log_q
            + bad * log_p_bad
            + st_const
            + _stirlerr(good)
            + _HALF_LOG_2PI
            + 0.5 * math.log(bad * good / total)
        )
    a = bad - m
    # log(a*total/(bad*b)) = log(1 - r) with r = m*good/(bad*b)
    mg = m * good
    bad_b = bad * b
    if mg + mg < bad_b:
        log_ratio = math.log1p(-mg / bad_b)
    else:
        log_ratio = math.log(a * total / bad_b)
    return (
        good * log_q
        + m * log_p_bad
        - (a + 0.5) * log_ratio
        + st_const
        - _stirlerr(a)
        + _stirlerr(b)
    )


def log_fail(params: UrnParams, n: int) -> float:
    """log of the probability that the first ``n`` draws are all bad.

    Exactly 0.0 at n = 0 and -inf once n exceeds the number of bad objects.
    """
    require_int("draw count", n, 0)
    if n == 0:
        return 0.0
    total, good = params.total, params.good
    if n > total - good:
        return NEG_INF
    return _log_fail(total, good, n)


def pmf_float(params: UrnParams, n: int) -> float:
    """P(X = n) in doubles: exp(log_fail(n-1) + log(good/(total-n+1))).

    Rounded once, by the final exp, so that values deep in the subnormal
    range stay correctly rounded; n = 1 is the single division good/total.
    """
    require_int("draw index", n, 1)
    total, good = params.total, params.good
    if n == 1:
        return good / total
    if n > total - good + 1:
        return 0.0
    return math.exp(
        _log_fail(total, good, n - 1) + math.log(good / (total - n + 1))
    )


def cdf_float(params: UrnParams, n: int) -> float:
    """P(X <= n) in doubles, clamped to [0, 1].

    Computed as -expm1(log_fail(n)) rather than 1 - exp(...): when the fail
    probability is close to 1 the expm1 form keeps full relative accuracy
    in the small cdf value instead of cancelling it away.
    """
    require_int("draw count", n, 0)
    if n == 0:
        return 0.0
    total, good = params.total, params.good
    if n > total - good:
        return 1.0
    value = -math.expm1(_log_fail(total, good, n))
    return min(1.0, max(0.0, value))


def mean_float(params: UrnParams) -> float:
    """(total + 1) / (good + 1); exact integer division rounded once."""
    return (params.total + 1) / (params.good + 1)


def variance_float(params: UrnParams) -> float:
    """Closed-form variance; the integer ratio is rounded exactly once."""
    n, k = params.total, params.good
    return (k * (n - k) * (n + 1)) / ((k + 2) * (k + 1) ** 2)
