"""Hot numeric kernels, in numpy.

Everything here is batch-oriented: drawing many variates or evaluating
the mass function over a block of support points.  The sampling kernels
are counter-based (see :mod:`urndist.rng`): variate t of a batch depends
only on the seed and its draw index draw0+t, so the streams do not depend
on batch sizes.  The mass-function kernel is built on the log-fail blocks
of :mod:`urndist.floats`.  It is the vector form of ``floats.pmf_float``,
kept for its tests and the benchmark's layer probe: no module of the
package calls it since the convergence scan works from the log ratio to
the geometric law (see :mod:`urndist.convergence`).
``inverse_cdf_table_batch`` is the inverse sampler's placement step: it
searches one cdf block for a run of sorted uniforms, and
``sampler._quantiles`` calls it once per block it scans.

The urn walk never forms the uniform: u = (w >> 11) * 2^-53 < p holds
exactly when the mixed word w is below thr = ceil(p * 2^53) << 11 (for
p < 1; at p = 1, the last step, every lane hits), so a step is the
SplitMix64 mix and an integer compare.  The thresholds are
``_hit_threshold(good / (total - s + 1))`` computed in Python, whose int
division rounds correctly at any total.  None of what follows changes a
variate.

The walk takes 2^16 draws ("lanes") at a time and advances the lanes in
its arrays a window of steps per pass: min(256, 2^16 // lanes) steps, at
least one, as one (steps, lanes) grid of at most 2^16 words, so that the
grid and its scratch stay in cache whether many lanes take one step or a
single lane takes 256.  The pass leaves out the mix's last xorshift,
w = z ^ (z >> 31): z >> 31 is below 2^33, so bits 63..33 of w are those
of z, and w < thr implies z <= thr | (2^33 - 1).  The words whose z
passes that test, about a share p + 2^-31 of them, are the only ones
whose xorshift is finished and compared with thr (for p > 1 - 2^-31,
every word's).

A lane can hit at several steps of one window, and its first hit is the
one at its least step: ``np.minimum.at`` writes each lane's least hit row
into a per-lane array, a value that does not depend on the order in which
the hits are applied, and the hit whose row equals it is kept.  A
one-step window has at most one hit per lane and skips this.  Lanes that
finish stay in the arrays, their later hits ignored, and the arrays are
compacted only once 1/8 of their lanes are done.
"""

from __future__ import annotations

import math

import numpy as np

from .floats import LOG_FAIL_BLOCK, log_fail_block
from .rng import GOLDEN_GAMMA, MASK64, U53

__all__ = [
    "urn_walk_batch",
    "inverse_cdf_table_batch",
    "uniform_block",
    "pmf_float_range",
]

_GAMMA_U = np.uint64(GOLDEN_GAMMA)
_MUL1_U = np.uint64(0xBF58476D1CE4E5B9)
_MUL2_U = np.uint64(0x94D049BB133111EB)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)
# the urn walk takes _LANE_BLOCK lanes at a time, in windows of up to
# _WINDOW_STEPS steps whose grid holds <= _LANE_BLOCK words, and compacts its
# lanes once 1/_COMPACT_EVERY of them are done
_LANE_BLOCK = 1 << 16
_WINDOW_STEPS = 256
_COMPACT_EVERY = 8
# the low bits of a word that the finalizer's last xorshift can change
_LOW33 = (1 << 33) - 1


def _premix64_np(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer without its last xorshift, over ``z`` in
    place, returning ``z``; ``t`` is scratch space of the same shape."""
    for shift, mul in ((_U30, _MUL1_U), (_U27, _MUL2_U)):
        np.right_shift(z, shift, out=t)
        np.bitwise_xor(z, t, out=z)
        np.multiply(z, mul, out=z)
    return z


def _mix64_np(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over ``z`` in place, returning ``z``."""
    t = np.empty_like(z)
    _premix64_np(z, t)
    np.right_shift(z, _U31, out=t)
    np.bitwise_xor(z, t, out=z)
    return z


def _hit_threshold(p: float) -> int:
    """Word threshold of the urn walk's hit test, for 0 <= p < 1.

    u = (w >> 11) * 2^-53 and p * 2^53 are exact, so u < p exactly when
    w >> 11 < ceil(p * 2^53), that is when w < ceil(p * 2^53) << 11, which
    is below 2^64 because p <= 1 - 2^-53.
    """
    return math.ceil(p / U53) << 11  # p / 2^-53 = p * 2^53, exactly


def _draw_roots_np(seed: int, draw0: int, count: int) -> np.ndarray:
    # rng.draw_root at draw0..draw0+count-1, in place, wrapping mod 2^64
    z = np.arange(count, dtype=np.uint64)
    z += np.uint64((draw0 + 1) & MASK64)
    z *= _GAMMA_U
    z += np.uint64(seed & MASK64)
    return _mix64_np(z)


def uniform_block(seed: int, draw0: int, count: int) -> np.ndarray:
    """One uniform in [0, 1) per draw index draw0..draw0+count-1 (step 0)."""
    words = _draw_roots_np(seed, draw0, count)
    words += _GAMMA_U  # step 0 of each substream: root + 1 * GOLDEN_GAMMA
    _mix64_np(words)
    return (words >> _U11).astype(np.float64) * U53


def _walk(total: int, good: int, roots: np.ndarray, out: np.ndarray) -> None:
    """Walk the lanes of ``roots`` (at most ``_LANE_BLOCK``) one window of
    steps per pass; ``out[i]`` gets the step of lane i's first hit."""
    lanes = np.arange(roots.size)  # the out index of each lane in the arrays
    done = np.zeros(roots.size, dtype=bool)
    z = np.empty(_LANE_BLOCK, dtype=np.uint64)  # a window's words before the last xorshift
    t = np.empty_like(z)
    first = np.full(_LANE_BLOCK, _WINDOW_STEPS)  # per lane: its least hit row in a window
    finished, step = 0, 1
    while lanes.size:
        thr = []  # the window's steps, stopping at a p that rounds to 1
        for s in range(step, step + max(1, min(_WINDOW_STEPS, _LANE_BLOCK // lanes.size))):
            p_step = good / (total - s + 1)
            if p_step >= 1.0:
                break
            thr.append(_hit_threshold(p_step))
        if not thr:  # every live lane hits at this step
            out[lanes[~done]] = step
            return
        width, thr = len(thr), np.array(thr, dtype=np.uint64)
        zw, tw = (b[: width * lanes.size].reshape(width, lanes.size) for b in (z, t))
        offsets = np.arange(step, step + width, dtype=np.uint64) * _GAMMA_U
        np.add(roots, offsets[:, None], out=zw)
        _premix64_np(zw, tw)
        # candidates: every hit's pre-final word is <= thr | 2^33 - 1
        idx = np.flatnonzero(zw <= (thr | np.uint64(_LOW33))[:, None])
        if idx.size:
            w = z[idx]
            w ^= w >> _U31
            rows = idx // lanes.size
            cols = idx - rows * lanes.size
            hit = w < thr[rows]  # the candidates that hit
            rows, cols = rows[hit], cols[hit]
            if width > 1:  # keep each lane's first hit: the least row among its hits
                np.minimum.at(first, cols, rows)
                keep = first[cols] == rows
                first[cols] = _WINDOW_STEPS
                rows, cols = rows[keep], cols[keep]
            new = ~done[cols]  # a done lane's later hits are ignored
            rows, cols = rows[new], cols[new]
            out[lanes[cols]] = step + rows
            done[cols] = True
            finished += cols.size
            if finished * _COMPACT_EVERY >= lanes.size:
                roots, lanes = roots[~done], lanes[~done]
                done, finished = np.zeros(lanes.size, dtype=bool), 0
        step += width


def urn_walk_batch(total: int, good: int, seed: int, draw0: int, count: int) -> np.ndarray:
    """Simulate ``count`` shrinking-urn walks; element t is the first-success
    draw index of substream draw0+t.  The walks are made ``_LANE_BLOCK`` at
    a time, so a call's scratch does not grow with ``count``."""
    out = np.empty(count, dtype=np.int64)
    for lo in range(0, count, _LANE_BLOCK):
        n = min(_LANE_BLOCK, count - lo)
        _walk(total, good, _draw_roots_np(seed, draw0 + lo, n), out[lo : lo + n])
    return out


def inverse_cdf_table_batch(cdf_block: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Place uniforms on one block of a cdf: for each u, the number of block
    entries <= u (``sampler._quantiles`` adds the block's first n)."""
    return np.searchsorted(cdf_block, u, side="right")


def pmf_float_range(total: int, good: int, n_start: int, count: int) -> np.ndarray:
    """Float mass function at n_start..n_start+count-1, within 1..total-good+1.

    exp(log_fail(n-1) + log(good/(total-n+1))) from the log-fail block
    kernel, a block at a time, as ``floats.pmf_float`` computes it; n = 1 is
    good/total.
    """
    out = np.empty(count, dtype=np.float64)
    first = int(count > 0 and n_start == 1)
    out[:first] = good / total  # n = 1 has no log-fail term
    k = np.arange(min(LOG_FAIL_BLOCK, count), dtype=np.float64)
    for lo in range(first, count, LOG_FAIL_BLOCK):
        m0, size = n_start + lo - 1, min(LOG_FAIL_BLOCK, count - lo)
        lf = log_fail_block(total, good, m0, size)  # checks the domain first
        # total-n+1 at n = m0+1+k, as an offset from the block start: exact
        # past 2^53
        out[lo : lo + size] = np.exp(lf + np.log(good / (float(total - m0) - k[:size])))
    return out
