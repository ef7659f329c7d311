"""Ground-truth engines that validate the closed forms from first principles.

``enumerate_pmf`` rebuilds the distribution by brute force: place the good
objects on every one of the C(total, good) equally likely position subsets
and record where the first good one sits.  It shares no formula with
:mod:`urndist.exact`, which is exactly why agreement between the two is
meaningful.  ``mc_estimate`` is the statistical smoke layer on top of the
urn-walk sampler.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from ._record import FrozenRecord
from .errors import ResourceGuardError, brief, require_int
from .exact import PmfTable, UrnParams

# numpy and the samplers are imported by ``mc_estimate``, their one user, so
# that the exact self-check loads no float layer; the annotations name
# SamplerState as text (PEP 563)

__all__ = ["ENUMERATION_LIMIT", "EmpiricalPmf", "enumerate_pmf", "mc_estimate"]

# C(total, good) subsets get enumerated; past this total the walk over
# subsets stops being interactive.  Purely a resource guard.
ENUMERATION_LIMIT = 20


class EmpiricalPmf(FrozenRecord):
    """Tally of sampled outcomes: counts[i] draws landed on outcome i+1."""

    __slots__ = ("params", "counts", "trials")

    def __init__(self, params: UrnParams, counts: tuple[int, ...], trials: int) -> None:
        super().__init__(params, counts, trials)

    def frequency(self, n: int) -> float:
        return self.counts[n - 1] / self.trials

    def mean(self) -> float:
        return (
            sum(n * c for n, c in enumerate(self.counts, start=1)) / self.trials
        )


def enumerate_pmf(params: UrnParams) -> PmfTable:
    """Exact mass function by exhaustive enumeration of good-object placements.

    The first success happens on draw n exactly when the minimum of the
    good positions is n, so each subset contributes to one support point:
    the table is the subset counts over their number C(total, good).
    Refuses totals above ``ENUMERATION_LIMIT``.
    """
    if params.total > ENUMERATION_LIMIT:
        raise ResourceGuardError(
            f"enumeration over C({brief(params.total)}, {brief(params.good)}) placements "
            f"refused (total > {ENUMERATION_LIMIT})"
        )
    counts = [0] * params.support_size
    for subset in combinations(range(1, params.total + 1), params.good):
        counts[subset[0] - 1] += 1  # combinations are emitted sorted
    return PmfTable(
        params=params,
        numerators=tuple(counts),
        denominator=comb(params.total, params.good),
    )


def mc_estimate(
    params: UrnParams, trials: int, state: SamplerState
) -> EmpiricalPmf:
    """Monte Carlo tally of the urn-walk sampler; deterministic given seed."""
    import numpy as np

    from .sampler import sample_urn_walk_batch

    require_int("trials", trials, 1)
    samples = sample_urn_walk_batch(params, state, trials)
    counts = np.bincount(samples, minlength=params.support_size + 1)[1:]
    return EmpiricalPmf(
        params=params,
        counts=tuple(int(c) for c in counts),
        trials=trials,
    )
