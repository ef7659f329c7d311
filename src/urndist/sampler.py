"""Random variate generation by two independent methods.

``sample_urn_walk`` simulates the urn draw by draw: at step k, after k-1
failures, the success chance is good/(total-k+1).  ``sample_inverse_cdf``
inverts the floating-point cdf at a uniform instead.  The two methods
share nothing but the uniform stream, which makes them useful as
cross-checks of each other and of the closed forms.

Both consume one substream per variate from the counter-based generator in
:mod:`urndist.rng`, so results depend only on (seed, draw_index, method) -
not on batch sizes or platform.  A ``SamplerState`` is single-owner: it
mutates as draws are consumed.  Use
:meth:`urndist.rng.SamplerState.spawn` to fan out to parallel workers.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import ParameterError
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

# Above this support size the batch inverse sampler stops tabulating the cdf
# and scans it up to the largest quantile instead, so memory follows count.
_TABLE_LIMIT = 1 << 22


def _require_count(count: int) -> None:
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ParameterError(f"count must be a positive integer, got {count!r}")


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
    # smallest n with cdf(n) > u, for each u: the sorted u are placed block
    # by block, and the scan stops at the block of the largest quantile
    order = np.argsort(u)
    sorted_u = u[order]
    out = np.empty(u.size, dtype=np.int64)
    lo = 0
    for n0, block in cdf_blocks(params):
        hi = int(np.searchsorted(sorted_u, block[-1], side="left"))
        out[order[lo:hi]] = n0 + np.searchsorted(block, sorted_u[lo:hi], side="right")
        lo = hi
        if lo == u.size:
            break
    return out


def inverse_cdf(params: UrnParams, u: float) -> int:
    """Smallest n with cdf(n) > u, for u in [0, 1).

    The quantile map of the inversion sampler.  It scans the cdf in the
    blocks of the sampler's table, so the two agree by construction.
    """
    if not 0.0 <= u < 1.0:
        raise ParameterError(f"u must lie in [0, 1), got {u!r}")
    return int(_quantiles(params, np.array([u]))[0])


def _cdf_table(params: UrnParams) -> np.ndarray:
    return np.concatenate([block for _, block in cdf_blocks(params)])


def sample_inverse_cdf_batch(
    params: UrnParams, state: SamplerState, count: int
) -> np.ndarray:
    """Draw ``count`` variates by cdf inversion.

    For tabulatable supports the cdf is evaluated once and inverted by
    binary search per draw; otherwise the cdf blocks are scanned once for
    all draws, up to the largest quantile.
    """
    _require_count(count)
    draw0 = state.take(count)
    if params.support_size <= _TABLE_LIMIT:
        table = _cdf_table(params)
        return _kernels.inverse_cdf_table_batch(table, state.seed, draw0, count)
    return _quantiles(params, _kernels.uniform_block(state.seed, draw0, count))


def sample_inverse_cdf(params: UrnParams, state: SamplerState) -> int:
    """One variate by cdf inversion; always in 1..total-good+1."""
    u = _kernels.uniform_block(state.seed, state.take(1), 1)
    return int(_quantiles(params, u)[0])
