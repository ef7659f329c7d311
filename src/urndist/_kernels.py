"""Hot numeric kernels: jitted numba sampling kernels with numpy fallbacks.

Everything here is batch-oriented: drawing many variates or evaluating
log-fail and the mass function over a block of support points.  The
sampling kernels have two interchangeable implementations,

* ``numba``: scalar loops compiled with ``@njit`` (the default when numba
  imports cleanly), and
* ``numpy``: vectorized array code with no compilation step.

Select one explicitly with the environment variable ``URN_BACKEND=numba``
or ``URN_BACKEND=numpy``; unset means numba-if-available.  The sampling
kernels are counter-based (see :mod:`urndist.rng`), so both backends emit
bit-identical sample streams.  The mass-function kernel has one
implementation, built on ``floats.log_fail_block``; both backends serve it.

The numpy urn walk advances every live draw ("lane") one step per pass.
It never forms the uniform: u = (w >> 11) * 2^-53 < p holds exactly when
the mixed word w is below ceil(p * 2^53) << 11 (for p < 1; at p = 1, the
last step, every lane hits), so each step is the SplitMix64 mix and one
integer compare, written into preallocated buffers.  A step runs over
blocks of 2^15 lanes, so that its scratch buffers stay in cache.  Lanes
that finish stay in the arrays, their later hits ignored, and the arrays
are compacted only once 1/8 of the live lanes are done.  None of this
changes a variate.

``benchmarks/bench_backends.py`` times the two implementations side by
side.
"""

from __future__ import annotations

import math
import os
import warnings

import numpy as np

from .floats import LOG_FAIL_BLOCK, log_fail_block
from .rng import GOLDEN_GAMMA, MASK64, U53

__all__ = [
    "active_backend",
    "available_backends",
    "urn_walk_batch",
    "inverse_cdf_table_batch",
    "uniform_block",
    "pmf_float_range",
    "IMPLEMENTATIONS",
]

_GAMMA_U = np.uint64(GOLDEN_GAMMA)
_MUL1_U = np.uint64(0xBF58476D1CE4E5B9)
_MUL2_U = np.uint64(0x94D049BB133111EB)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)
_U1 = np.uint64(1)
# the urn walk compacts its lanes once 1/_COMPACT_EVERY of them are done,
# and mixes them in blocks of _LANE_BLOCK whose buffers stay in cache
_COMPACT_EVERY = 8
_LANE_BLOCK = 1 << 15

# ---------------------------------------------------------------------------
# numpy implementations
# ---------------------------------------------------------------------------

def _mix64_np(z: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer over ``z`` in place, returning ``z``; ``t`` is
    scratch space of the same shape, allocated when not given."""
    t = np.empty_like(z) if t is None else t
    for shift, mul in ((_U30, _MUL1_U), (_U27, _MUL2_U)):
        np.right_shift(z, shift, out=t)
        np.bitwise_xor(z, t, out=z)
        np.multiply(z, mul, out=z)
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
    d = np.arange(draw0, draw0 + count, dtype=np.uint64)
    return _mix64_np(np.uint64(seed & MASK64) + (d + _U1) * _GAMMA_U)


def _uniform_block_numpy(seed: int, draw0: int, count: int) -> np.ndarray:
    words = _mix64_np(_draw_roots_np(seed, draw0, count) + _U1 * _GAMMA_U)
    return (words >> _U11).astype(np.float64) * U53


def _lane_blocks(roots: np.ndarray, hit: np.ndarray, z: np.ndarray, t: np.ndarray):
    # per block of _LANE_BLOCK lanes: its roots and hit flags, and views of
    # the scratch buffers z and t that every block shares
    blocks = []
    for lo in range(0, roots.size, _LANE_BLOCK):
        n = min(_LANE_BLOCK, roots.size - lo)
        blocks.append((roots[lo : lo + n], hit[lo : lo + n], z[:n], t[:n]))
    return blocks


def _urn_walk_batch_numpy(
    total: int, good: int, seed: int, draw0: int, count: int
) -> np.ndarray:
    out = np.empty(count, dtype=np.int64)
    roots = _draw_roots_np(seed, draw0, count)
    lanes = np.arange(count)  # out index of each live lane
    hit, done = np.empty(count, dtype=bool), np.zeros(count, dtype=bool)
    z = np.empty(min(count, _LANE_BLOCK), dtype=np.uint64)
    t = np.empty_like(z)
    blocks = _lane_blocks(roots, hit, z, t)
    finished = 0
    step = 1
    while True:
        p_step = good / (total - step + 1)
        if p_step >= 1.0:  # the last step, or a step whose p rounds to 1
            out[lanes[~done]] = step
            return out
        thr = np.uint64(_hit_threshold(p_step))
        # fold the step offset in python ints: numpy scalar uint64 would warn
        offset = np.uint64((step * GOLDEN_GAMMA) & MASK64)
        for roots_b, hit_b, z_b, t_b in blocks:
            np.add(roots_b, offset, out=z_b)
            np.less(_mix64_np(z_b, t_b), thr, out=hit_b)
        idx = np.flatnonzero(hit)
        if idx.size:
            if finished:
                idx = idx[~done[idx]]
            out[lanes[idx]] = step
            done[idx] = True
            finished += idx.size
            if finished * _COMPACT_EVERY >= lanes.size:
                keep = ~done
                roots, lanes = roots[keep], lanes[keep]
                if not lanes.size:
                    return out
                hit, done = hit[: lanes.size], done[: lanes.size]
                done[:] = False
                blocks = _lane_blocks(roots, hit, z, t)
                finished = 0
        step += 1


def _inverse_cdf_table_batch_numpy(
    cdf_table: np.ndarray, seed: int, draw0: int, count: int
) -> np.ndarray:
    u = _uniform_block_numpy(seed, draw0, count)
    # first index with cdf_table[idx] > u; last entry is exactly 1.0 > u
    return np.searchsorted(cdf_table, u, side="right").astype(np.int64) + 1


def _pmf_float_range_numpy(
    total: int, good: int, n_start: int, count: int
) -> np.ndarray:
    out = np.empty(count, dtype=np.float64)
    first = int(count > 0 and n_start == 1)
    out[:first] = good / total  # n = 1 has no log-fail term
    for lo in range(first, count, LOG_FAIL_BLOCK):
        m0, size = n_start + lo - 1, min(LOG_FAIL_BLOCK, count - lo)
        ratio = good / (float(total - m0) - np.arange(size, dtype=np.float64))
        lf = log_fail_block(total, good, m0, size)
        np.exp(lf + np.log(ratio), out=out[lo : lo + size])
    return out


_NUMPY_IMPLS = {
    "uniform_block": _uniform_block_numpy,
    "urn_walk_batch": _urn_walk_batch_numpy,
    "inverse_cdf_table_batch": _inverse_cdf_table_batch_numpy,
    "pmf_float_range": _pmf_float_range_numpy,
}


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    _HAVE_NUMBA = False

if _HAVE_NUMBA:

    @njit(cache=True)
    def _mix64_nb(z):
        z = (z ^ (z >> _U30)) * _MUL1_U
        z = (z ^ (z >> _U27)) * _MUL2_U
        return z ^ (z >> _U31)

    @njit(cache=True)
    def _uniform_block_nb(seed, draw0, count):
        out = np.empty(count, dtype=np.float64)
        for t in range(count):
            root = _mix64_nb(seed + (draw0 + np.uint64(t) + _U1) * _GAMMA_U)
            word = _mix64_nb(root + _U1 * _GAMMA_U)
            out[t] = np.float64(word >> _U11) * U53
        return out

    @njit(cache=True)
    def _urn_walk_batch_nb(total, good, seed, draw0, count):
        out = np.empty(count, dtype=np.int64)
        for t in range(count):
            root = _mix64_nb(seed + (draw0 + np.uint64(t) + _U1) * _GAMMA_U)
            step = 1
            while True:
                word = _mix64_nb(root + np.uint64(step) * _GAMMA_U)
                u = np.float64(word >> _U11) * U53
                if u < good / (total - step + 1):
                    out[t] = step
                    break
                step += 1
        return out

    @njit(cache=True)
    def _inverse_cdf_table_batch_nb(cdf_table, seed, draw0, count):
        out = np.empty(count, dtype=np.int64)
        size = cdf_table.size
        for t in range(count):
            root = _mix64_nb(seed + (draw0 + np.uint64(t) + _U1) * _GAMMA_U)
            word = _mix64_nb(root + _U1 * _GAMMA_U)
            u = np.float64(word >> _U11) * U53
            lo = 0
            hi = size
            while lo < hi:  # leftmost index with cdf_table[idx] > u
                mid = (lo + hi) // 2
                if cdf_table[mid] > u:
                    hi = mid
                else:
                    lo = mid + 1
            out[t] = lo + 1
        return out

    def _as_u64(value: int) -> np.uint64:
        return np.uint64(value & MASK64)

    _NUMBA_IMPLS = {
        "uniform_block": lambda seed, draw0, count: _uniform_block_nb(
            _as_u64(seed), _as_u64(draw0), count
        ),
        "urn_walk_batch": lambda total, good, seed, draw0, count: _urn_walk_batch_nb(
            total, good, _as_u64(seed), _as_u64(draw0), count
        ),
        "inverse_cdf_table_batch": lambda table, seed, draw0, count: (
            _inverse_cdf_table_batch_nb(table, _as_u64(seed), _as_u64(draw0), count)
        ),
        "pmf_float_range": _pmf_float_range_numpy,
    }
else:
    _NUMBA_IMPLS = {}

IMPLEMENTATIONS: dict[str, dict] = {"numpy": _NUMPY_IMPLS}
if _HAVE_NUMBA:
    IMPLEMENTATIONS["numba"] = _NUMBA_IMPLS


def _select_backend() -> str:
    requested = os.environ.get("URN_BACKEND", "").strip().lower()
    if requested and requested not in ("numba", "numpy"):
        warnings.warn(
            f"URN_BACKEND={requested!r} is not one of 'numba'/'numpy'; "
            "falling back to automatic selection",
            RuntimeWarning,
            stacklevel=2,
        )
        requested = ""
    if requested == "numba" and not _HAVE_NUMBA:
        warnings.warn(
            "URN_BACKEND=numba requested but numba is not importable; "
            "using the numpy backend",
            RuntimeWarning,
            stacklevel=2,
        )
        requested = "numpy"
    if requested:
        return requested
    return "numba" if _HAVE_NUMBA else "numpy"


_BACKEND = _select_backend()
_ACTIVE = IMPLEMENTATIONS[_BACKEND]


def active_backend() -> str:
    """Name of the implementation set serving the public kernel functions."""
    return _BACKEND


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(IMPLEMENTATIONS))


def uniform_block(seed: int, draw0: int, count: int) -> np.ndarray:
    """One uniform in [0, 1) per draw index draw0..draw0+count-1 (step 0)."""
    return _ACTIVE["uniform_block"](seed, draw0, count)


def urn_walk_batch(
    total: int, good: int, seed: int, draw0: int, count: int
) -> np.ndarray:
    """Simulate ``count`` shrinking-urn walks; element t is the first-success
    draw index of substream draw0+t."""
    return _ACTIVE["urn_walk_batch"](total, good, seed, draw0, count)


def inverse_cdf_table_batch(
    cdf_table: np.ndarray, seed: int, draw0: int, count: int
) -> np.ndarray:
    """Invert a tabulated cdf at one uniform per draw: smallest n with
    cdf_table[n-1] > u.  The table must end in exactly 1.0."""
    return _ACTIVE["inverse_cdf_table_batch"](cdf_table, seed, draw0, count)


def pmf_float_range(total: int, good: int, n_start: int, count: int) -> np.ndarray:
    """Float mass function at n_start..n_start+count-1, within 1..total-good+1.

    exp(log_fail(n-1) + log(good/(total-n+1))) from ``log_fail_block``, as
    ``floats.pmf_float`` computes it; n = 1 is good/total.
    """
    return _ACTIVE["pmf_float_range"](total, good, n_start, count)
