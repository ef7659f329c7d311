"""Floating-point evaluation layer for parameters beyond exact-arithmetic comfort.

Mirrors the closed forms of :mod:`urndist.exact` in IEEE doubles so that
the inverse sampler's cdf blocks, tail probabilities and convergence
studies stay cheap however large the urn.  (``urn table`` does not use this
layer: its float columns are its exact cells divided out.)  The domain is
total < 2^511 (``TOTAL_LIMIT``); other totals raise ``ParameterError``.
The bounds below are verified for totals up to 2^510 + 12345 (past 2^53
against loggamma references at 2*bits + 200 bits).  Log-probabilities are
represented as plain floats (<= 0, with -inf standing for probability
zero); exp(-inf) == 0.0 makes the out-of-support cases fall out naturally.

Accuracy notes
--------------
``log_fail`` is the backbone: the log of the hypergeometric probability of
no good object in m draws, in Loader's saddle-point form (C. Loader, "Fast
and Accurate Computation of Binomial Probabilities", 2000; R nmath
``dhyper.c``, ``dbinom.c``, ``stirlerr.c``, ``bd0.c``).  Stirling's
formula is applied to the four factorials of C(total-m, good)/C(total,
good) with its exact error terms (``stirlerr``), and the large logarithms
are regrouped so that no term is more than a few times the result in
size.  The relative error of the log is then a few ulps at every size:
below 1e-15 at totals of 1e9 and 1e12 against 60-digit references.  The
same formula serves scalars (``_log_fail``) and contiguous blocks of m in
numpy (``log_fail_block``, for cdf blocks and mass-function ranges).

Block workspace
---------------
A block is ``LOG_FAIL_BLOCK`` points, and its temporaries are written with
in-place ufuncs (``out=``), in the same operation order as the scalar
expressions, into a per-thread workspace of three such blocks (768 KiB,
allocated once per thread; m, a and b are rebuilt from the offsets k where
needed rather than kept).  So a block allocates no array of its size but
its result, and its values do not depend on the workspace.  The workspace
is the private scratch of ``_log_fail_into``, the one log-fail block
kernel: no other code reads or writes it, and every array this module
returns or yields is fresh, so ``list(cdf_blocks(...))`` keeps every block,
and threads never share scratch space.

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
import threading

import numpy as np

from .errors import ParameterError, require_int
from .exact import UrnParams

__all__ = [
    "log_fail",
    "log_fail_block",
    "cdf_blocks",
    "pmf_float",
    "cdf_float",
    "mean_float",
    "variance_float",
]

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
_STIRLERR_TABLE = np.array(_STIRLERR_SMALL)
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


# Points per log_fail_block call, so that a block's temporaries stay in
# cache.
LOG_FAIL_BLOCK = 1 << 15
_local = threading.local()


def _workspace() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """This thread's three blocks of LOG_FAIL_BLOCK doubles, (k, x, y): the
    read-only k = 0, 1, ..., then the two scratch blocks of
    ``_log_fail_into``, its only user (see Block workspace above)."""
    blocks = getattr(_local, "blocks", None)
    if blocks is None:
        k = np.arange(LOG_FAIL_BLOCK, dtype=np.float64)
        k.flags.writeable = False
        blocks = _local.blocks = (k, *np.empty((2, LOG_FAIL_BLOCK)))
    return blocks


def _stirlerr_block(x0: int, x: np.ndarray, out: np.ndarray) -> None:
    # _stirlerr at the descending block x = x0 - k into out: the 2-term
    # series above 500, then the table, as two contiguous slices
    i = min(max(x0 - 500, 0), x.size)
    o, v = out[:i], x[:i]  # (_S0 - _S1 / (x*x)) / x
    np.multiply(v, v, out=o)
    np.divide(_S1, o, out=o)
    np.subtract(_S0, o, out=o)
    np.divide(o, v, out=o)
    np.take(_STIRLERR_TABLE, x[i:].astype(np.intp), out=out[i:])


def _log_fail_into(total: int, good: int, m0: int, out: np.ndarray) -> None:
    # log_fail_block into out, at most LOG_FAIL_BLOCK points
    bad = total - good
    count = out.size
    if count and m0 + count - 1 == bad:
        out[-1] = _log_fail(total, good, bad)  # a = 0
        count -= 1
    if not count:
        return
    st_const, log_p_bad = _fail_constants(total, good)
    k, x, y = (w[:count] for w in _workspace())
    acc, t, g = out[:count], float(total), float(good)
    # m = m0 + k, a = bad - m and b = total - m are rebuilt from k where they
    # are needed, so that the block needs two scratch arrays
    m0f, a0f, b0f = float(m0), float(bad - m0), float(total - m0)
    # log_fail = g*log_q + m*log_p_bad - (a + 1/2)*log_ratio + st_const
    #            - stirlerr(a) + stirlerr(b), summed left to right in acc
    # log_q: log1p(-m/total) while 2m < total, then log(b/total)
    i = min(max((total - 1) // 2 - m0 + 1, 0), count)
    np.add(k[:i], m0f, out=x[:i])
    np.negative(x[:i], out=x[:i])
    np.divide(x[:i], t, out=x[:i])
    np.log1p(x[:i], out=x[:i])
    np.subtract(b0f, k[i:], out=x[i:])
    np.divide(x[i:], t, out=x[i:])
    np.log(x[i:], out=x[i:])
    np.multiply(x, g, out=acc)
    np.add(k, m0f, out=x)
    np.multiply(x, log_p_bad, out=x)
    np.add(acc, x, out=acc)
    # log_ratio: log1p(-m*good/(bad*b)) while 2*m*good < bad*b, then
    # log(a*total/(bad*b))
    j = min(max((bad * total - 1) // (2 * good + bad) - m0 + 1, 0), count)
    np.subtract(b0f, k, out=y)
    np.multiply(float(bad), y, out=y)
    np.add(k[:j], m0f, out=x[:j])
    np.multiply(x[:j], g, out=x[:j])
    np.negative(x[:j], out=x[:j])
    np.divide(x[:j], y[:j], out=x[:j])
    np.log1p(x[:j], out=x[:j])
    np.subtract(a0f, k[j:], out=x[j:])
    np.multiply(x[j:], t, out=x[j:])
    np.divide(x[j:], y[j:], out=x[j:])
    np.log(x[j:], out=x[j:])
    np.subtract(a0f, k, out=y)
    np.add(y, 0.5, out=y)
    np.multiply(y, x, out=y)
    np.subtract(acc, y, out=acc)
    np.add(acc, st_const, out=acc)
    np.subtract(a0f, k, out=y)
    _stirlerr_block(bad - m0, y, x)
    np.subtract(acc, x, out=acc)
    np.subtract(b0f, k, out=y)
    _stirlerr_block(total - m0, y, x)
    np.add(acc, x, out=acc)


def log_fail_block(total: int, good: int, m0: int, count: int) -> np.ndarray:
    """``_log_fail`` at m = m0..m0+count-1, in numpy, as a fresh array.

    Needs 1 <= m0 and m0+count-1 <= total-good; computed in blocks of
    LOG_FAIL_BLOCK points from m0.  m, a and b are exact offsets from the
    block start, so a and b stay exact where m is close to total, and each
    regime switch of ``_log_fail`` is a contiguous slice of the block.
    """
    out = np.empty(count, dtype=np.float64)
    for lo in range(0, count, LOG_FAIL_BLOCK):
        _log_fail_into(total, good, m0 + lo, out[lo : lo + LOG_FAIL_BLOCK])
    return out


def cdf_blocks(params: UrnParams):
    """Yield (n0, cdf at n0..n0+len-1) over the whole support.

    Blocks of LOG_FAIL_BLOCK points from n = 1, so every caller sees the
    same values; -expm1 of the log-fail block, and the last block ends in
    exactly 1.0.  Each yielded block is a fresh array.
    """
    size = params.support_size
    for n0 in range(1, size + 1, LOG_FAIL_BLOCK):
        block = np.ones(min(LOG_FAIL_BLOCK, size + 1 - n0))
        # log-fail needs n <= total-good; the cdf at n = total-good+1 is 1
        cdf = block[: min(block.size, size - n0)]
        _log_fail_into(params.total, params.good, n0, cdf)
        np.expm1(cdf, out=cdf)
        np.negative(cdf, out=cdf)
        yield n0, block


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
