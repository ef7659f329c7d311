"""Floating-point evaluation layer for parameters beyond exact-arithmetic comfort.

Mirrors the closed forms of :mod:`urndist.exact` in IEEE doubles so that
the inverse sampler's cdf blocks, tail probabilities and mass-function
ranges stay cheap however large the urn.  (``urn table`` does not use this
layer: its float columns are its exact cells divided out.)  The scalar half
-- Loader's log Fail(m), ``log_fail``, ``pmf_float``, ``cdf_float`` and the
moments, with the domain (total < 2^511) and the accuracy notes -- is the
numpy-free module :mod:`urndist._loader`, whose public names this module
re-exports.  This module adds the same formula over contiguous blocks of m
in numpy (``log_fail_block``, for cdf blocks and mass-function ranges).

Block workspace
---------------
A block is ``LOG_FAIL_BLOCK`` points, and its temporaries are written with
in-place ufuncs (``out=``), in the same operation order as the scalar
expressions of ``_loader._log_fail``, into a per-thread workspace of three
such blocks (768 KiB, allocated once per thread; m, a and b are rebuilt
from the offsets k where needed rather than kept).  So a block allocates no
array of its size but its result, and its values do not depend on the
workspace.  The workspace is the private scratch of ``_log_fail_into``, the
one log-fail block kernel: no other code reads or writes it, and every
array this module returns or yields is fresh, so ``list(cdf_blocks(...))``
keeps every block, and threads never share scratch space.
"""

from __future__ import annotations

import threading

import numpy as np

from ._loader import (  # noqa: F401  the scalar half, re-exported
    _S0, _S1, _STIRLERR_SMALL, TOTAL_LIMIT, _fail_constants, _log_fail, _stirlerr,
    cdf_float, log_fail, mean_float, pmf_float, variance_float,
)
from .exact import UrnParams

__all__ = ["log_fail", "log_fail_block", "cdf_blocks", "pmf_float", "cdf_float",
           "mean_float", "variance_float"]

_STIRLERR_TABLE = np.array(_STIRLERR_SMALL)
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
