"""Hot numeric kernels, in numpy.

Everything here is batch-oriented: drawing many variates or evaluating
the mass function over a block of support points.  The sampling kernels
are counter-based (see :mod:`urndist.rng`): variate t of a batch depends
only on the seed and its draw index draw0+t, so the streams do not depend
on batch sizes.  The mass-function kernel is built on the log-fail block
kernel of :mod:`urndist.floats` and computes each block in that module's
per-thread workspace; the array it returns is fresh.
``inverse_cdf_table_batch`` is the inverse sampler's placement step: it
searches one cdf block for a run of sorted uniforms, and
``sampler._quantiles`` calls it once per block it scans.

The urn walk never forms the uniform: u = (w >> 11) * 2^-53 < p holds
exactly when the mixed word w is below thr = ceil(p * 2^53) << 11 (for
p < 1; at p = 1, the last step, every lane hits), so a step is the
SplitMix64 mix and an integer compare.  It has two phases, and none of
what follows changes a variate.

While more than 2^12 draws ("lanes") are live, it advances them all one
step per pass, mixing blocks of 2^16 lanes so that a block's words and
scratch stay in cache.  The pass leaves out the mix's last xorshift,
w = z ^ (z >> 31): z >> 31 is below 2^33, so bits 63..33 of w are those
of z, and w < thr implies z <= thr | (2^33 - 1).  The lanes whose z
passes that test, about a share p + 2^-31 of them, are the only ones
whose xorshift is finished and compared with thr (for p > 1 - 2^-31,
every lane's).  Lanes that finish stay in the arrays, their later hits
ignored, and the arrays are compacted only once 1/8 of the live lanes
are done.

The few lanes left are walked a window of up to 256 steps at a time: one
(lanes, steps) grid of full words, at most 2^16 of them, compared with the
steps' thresholds, where ``argmax`` takes each lane's first hit; the lanes
that hit are dropped after each window.  The thresholds are those of the
one-step pass, ``_hit_threshold(good / (total - s + 1))`` computed in
Python, whose int division rounds correctly at any total.  This is what
keeps the fixed cost per step small for the tail of a walk, where few
lanes are live, and for a single long walk.
"""

from __future__ import annotations

import math

import numpy as np

from .floats import LOG_FAIL_BLOCK, _log_fail_into, _workspace
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
# the urn walk compacts its lanes once 1/_COMPACT_EVERY of them are done,
# and mixes them in blocks of _LANE_BLOCK that stay in cache
_COMPACT_EVERY = 8
_LANE_BLOCK = 1 << 16
# the low bits of a word that the finalizer's last xorshift can change
_LOW33 = (1 << 33) - 1
# at most _WINDOW_LANES live lanes are walked a window of up to
# _WINDOW_STEPS steps at a time, a window's grid holding <= _LANE_BLOCK words
_WINDOW_LANES = 1 << 12
_WINDOW_STEPS = 256


def _premix64_np(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer without its last xorshift, over ``z`` in
    place, returning ``z``; ``t`` is scratch space of the same shape."""
    for shift, mul in ((_U30, _MUL1_U), (_U27, _MUL2_U)):
        np.right_shift(z, shift, out=t)
        np.bitwise_xor(z, t, out=z)
        np.multiply(z, mul, out=z)
    return z


def _mix64_np(z: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer over ``z`` in place, returning ``z``; ``t`` is
    scratch space of the same shape, allocated when not given."""
    t = np.empty_like(z) if t is None else t
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


def _lane_blocks(roots: np.ndarray, z: np.ndarray, t: np.ndarray):
    # per block of _LANE_BLOCK lanes: its roots and words, and a view of the
    # scratch buffer t that every block shares
    blocks = []
    for lo in range(0, roots.size, _LANE_BLOCK):
        n = min(_LANE_BLOCK, roots.size - lo)
        blocks.append((roots[lo : lo + n], z[lo : lo + n], t[:n]))
    return blocks


def _walk_steps(total: int, good: int, roots: np.ndarray, lanes: np.ndarray, out: np.ndarray):
    """Advance every live lane one step per pass, until at most
    ``_WINDOW_LANES`` are live; returns their roots, out indices and next step."""
    hit, done = np.empty(lanes.size, dtype=bool), np.zeros(lanes.size, dtype=bool)
    z = np.empty(lanes.size, dtype=np.uint64)  # a step's words before the last xorshift
    t = np.empty(min(lanes.size, _LANE_BLOCK), dtype=np.uint64)
    blocks = _lane_blocks(roots, z, t)
    finished = 0
    step = 1
    while True:
        p_step = good / (total - step + 1)
        if p_step >= 1.0:  # the last step, or a step whose p rounds to 1
            out[lanes[~done]] = step
            return roots[:0], lanes[:0], step
        thr = _hit_threshold(p_step)
        # fold the step offset in python ints: numpy scalar uint64 would warn
        offset = np.uint64((step * GOLDEN_GAMMA) & MASK64)
        cap = np.uint64(thr | _LOW33)  # every hit's pre-final word is <= cap
        for roots_b, z_b, t_b in blocks:
            np.add(roots_b, offset, out=z_b)
            _premix64_np(z_b, t_b)
        idx = np.flatnonzero(np.less_equal(z, cap, out=hit))
        if idx.size:
            if finished:
                idx = idx[~done[idx]]
            w = z[idx]
            w ^= w >> _U31
            idx = idx[w < np.uint64(thr)]  # the candidates that hit
            out[lanes[idx]] = step
            done[idx] = True
            finished += idx.size
            if finished * _COMPACT_EVERY >= lanes.size:
                keep = ~done
                roots, lanes = roots[keep], lanes[keep]
                if lanes.size <= _WINDOW_LANES:
                    return roots, lanes, step + 1
                hit, done, z = hit[: lanes.size], done[: lanes.size], z[: lanes.size]
                done[:] = False
                blocks = _lane_blocks(roots, z, t)
                finished = 0
        step += 1


def _walk_windows(
    total: int, good: int, roots: np.ndarray, lanes: np.ndarray, step: int, out: np.ndarray
) -> None:
    """Finish the live lanes a window of steps at a time: one (lanes, steps)
    grid of words per window, each lane's first hit taken by ``argmax``."""
    z = np.empty(_LANE_BLOCK, dtype=np.uint64)
    t = np.empty_like(z)
    while lanes.size:
        thr = []  # steps up to the window's size, stopping at a p that rounds to 1
        for s in range(step, step + min(_WINDOW_STEPS, _LANE_BLOCK // lanes.size)):
            p_step = good / (total - s + 1)
            if p_step >= 1.0:
                break
            thr.append(_hit_threshold(p_step))
        if not thr:  # every live lane hits at this step
            out[lanes] = step
            return
        size = lanes.size * len(thr)
        zw, tw = (b[:size].reshape(lanes.size, len(thr)) for b in (z, t))
        offsets = np.arange(len(thr), dtype=np.uint64) * _GAMMA_U
        offsets += np.uint64((step * GOLDEN_GAMMA) & MASK64)
        np.add(roots[:, None], offsets, out=zw)
        hits = _mix64_np(zw, tw) < np.array(thr, dtype=np.uint64)
        first = hits.argmax(axis=1)  # 0 also for a lane with no hit
        hit = hits[np.arange(lanes.size), first]
        out[lanes[hit]] = step + first[hit]
        roots, lanes = roots[~hit], lanes[~hit]
        step += len(thr)


def urn_walk_batch(
    total: int, good: int, seed: int, draw0: int, count: int
) -> np.ndarray:
    """Simulate ``count`` shrinking-urn walks; element t is the first-success
    draw index of substream draw0+t."""
    out = np.empty(count, dtype=np.int64)
    roots = _draw_roots_np(seed, draw0, count)
    lanes, step = np.arange(count), 1  # the out index of each live lane
    if count > _WINDOW_LANES:
        roots, lanes, step = _walk_steps(total, good, roots, lanes, out)
    _walk_windows(total, good, roots, lanes, step, out)
    return out


def inverse_cdf_table_batch(cdf_block: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Place uniforms on one block of a cdf: for each u, the number of block
    entries <= u (``sampler._quantiles`` adds the block's first n)."""
    return np.searchsorted(cdf_block, u, side="right")


def pmf_float_range(total: int, good: int, n_start: int, count: int) -> np.ndarray:
    """Float mass function at n_start..n_start+count-1, within 1..total-good+1.

    exp(log_fail(n-1) + log(good/(total-n+1))) from the log-fail block
    kernel, as ``floats.pmf_float`` computes it; n = 1 is good/total.  The
    blocks are computed in the thread's workspace; the result is fresh.
    """
    out = np.empty(count, dtype=np.float64)
    first = int(count > 0 and n_start == 1)
    out[:first] = good / total  # n = 1 has no log-fail term
    k, ratio = _workspace()[:2]  # block 1 is free once _log_fail_into returns
    for lo in range(first, count, LOG_FAIL_BLOCK):
        m0, size = n_start + lo - 1, min(LOG_FAIL_BLOCK, count - lo)
        lf, r = out[lo : lo + size], ratio[:size]
        _log_fail_into(total, good, m0, lf)  # checks the domain first
        np.subtract(float(total - m0), k[:size], out=r)  # total-n+1, n = m0+1+k
        np.divide(good, r, out=r)
        np.log(r, out=r)
        np.add(lf, r, out=lf)
        np.exp(lf, out=lf)
    return out
