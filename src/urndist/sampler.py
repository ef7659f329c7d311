"""Random variate generation by two independent methods.

``sample_urn_walk`` simulates the urn draw by draw: at step k, after k-1
failures, the success chance is good/(total-k+1).  ``sample_inverse_cdf``
inverts the floating-point cdf at a uniform instead, by sequential search
(Devroye 1986, ch. II.2): the uniforms are sorted and placed on the cdf
one ``floats.cdf_blocks`` block at a time, and the scan stops at the block
of the largest quantile, so a call's memory is O(count + block) at every
support size.  The two methods share nothing but the uniform stream, which
makes them useful as cross-checks of each other and of the closed forms.

A batch call holds its ``count`` draws at once.  Because the streams do not
depend on batch sizes, a caller that wants memory flat in the number of
draws calls a batch sampler once per chunk with the same state, as
``urn sample`` does with chunks of 2^16 draws; the inverse sampler then
scans its cdf blocks once per chunk.

Both consume one substream per variate from the counter-based generator in
:mod:`urndist.rng`, so results depend only on (seed, draw_index, method) -
not on batch sizes or platform.  A ``SamplerState`` is single-owner: it
mutates as draws are consumed.  Use
:meth:`urndist.rng.SamplerState.spawn` to fan out to parallel workers.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import ParameterError, ResourceGuardError, require_int
from .exact import UrnParams
from .floats import cdf_blocks
from .rng import SamplerState

__all__ = [
    "inverse_cdf",
    "sample_urn_walk",
    "sample_urn_walk_batch",
    "sample_inverse_cdf",
    "sample_inverse_cdf_batch",
]


def _require_count(count: int) -> None:
    require_int("count", count, 1)
    if count > np.iinfo(np.intp).max // 8:  # numpy's size limit for 8-byte values
        raise ResourceGuardError(f"count {count} exceeds the largest array numpy can hold")


def sample_urn_walk_batch(
    params: UrnParams, state: SamplerState, count: int
) -> np.ndarray:
    """Draw ``count`` variates by direct simulation of the shrinking urn."""
    _require_count(count)
    draw0 = state.take(count)
    return _kernels.urn_walk_batch(
        params.total, params.good, state.seed, draw0, count
    )


def sample_urn_walk(params: UrnParams, state: SamplerState) -> int:
    """One variate by direct simulation; always in 1..total-good+1."""
    return int(sample_urn_walk_batch(params, state, 1)[0])


def _quantiles(params: UrnParams, u: np.ndarray) -> np.ndarray:
    # smallest n with cdf(n) > u, for each u, written over the sorted u
    # through an int64 view block by block, then scattered into draw order
    order = np.argsort(u)
    u.sort()
    placed = u.view(np.int64)
    lo = 0
    for n0, block in cdf_blocks(params):
        # u[:lo] already holds quantiles, so search only the rest
        hi = lo + int(np.searchsorted(u[lo:], block[-1], side="left"))
        placed[lo:hi] = _kernels.inverse_cdf_table_batch(block, u[lo:hi]) + n0
        lo = hi
        if lo == u.size:
            break
    out = np.empty_like(placed)
    out[order] = placed
    return out


def inverse_cdf(params: UrnParams, u: float) -> int:
    """Smallest n with cdf(n) > u, for u in [0, 1).

    The quantile map of the inversion sampler, placed on the same cdf
    blocks, so the two agree by construction.
    """
    if not 0.0 <= u < 1.0:
        raise ParameterError(f"u must lie in [0, 1), got {u!r}")
    return int(_quantiles(params, np.array([u]))[0])


def sample_inverse_cdf_batch(
    params: UrnParams, state: SamplerState, count: int
) -> np.ndarray:
    """Draw ``count`` variates by cdf inversion: ``inverse_cdf`` at one
    uniform per draw, with the cdf blocks scanned once for all draws."""
    _require_count(count)
    draw0 = state.take(count)
    return _quantiles(params, _kernels.uniform_block(state.seed, draw0, count))


def sample_inverse_cdf(params: UrnParams, state: SamplerState) -> int:
    """One variate by cdf inversion; always in 1..total-good+1."""
    return int(sample_inverse_cdf_batch(params, state, 1)[0])
