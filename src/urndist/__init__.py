"""urndist: the draws-until-first-success law of an urn sampled without
replacement.

Exact rational layer, numerically stable float layer, two independent
samplers, convergence diagnostics against the geometric limit, and
brute-force oracles for self-verification.
"""

from .convergence import (
    ConvergenceRecord,
    convergence_table,
    geometric_pmf,
    tv_distance,
)
from .errors import ParameterError, ResourceGuardError, UrnError
from .exact import (
    PmfTable,
    UrnParams,
    binomial,
    cdf,
    fail_probability,
    mean,
    median,
    mode,
    pmf,
    pmf_table,
    sum_binom_closed,
    sum_binom_from_closed,
    sum_j_binom_closed,
    support,
    variance,
)
from .floats import cdf_float, log_fail, mean_float, pmf_float, variance_float
from .oracle import ENUMERATION_LIMIT, EmpiricalPmf, enumerate_pmf, mc_estimate
from .rng import SamplerState
from .sampler import (
    inverse_cdf,
    sample_inverse_cdf,
    sample_inverse_cdf_batch,
    sample_urn_walk,
    sample_urn_walk_batch,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceRecord",
    "EmpiricalPmf",
    "ENUMERATION_LIMIT",
    "ParameterError",
    "PmfTable",
    "ResourceGuardError",
    "SamplerState",
    "UrnError",
    "UrnParams",
    "binomial",
    "cdf",
    "cdf_float",
    "convergence_table",
    "enumerate_pmf",
    "fail_probability",
    "geometric_pmf",
    "inverse_cdf",
    "log_fail",
    "mc_estimate",
    "mean",
    "mean_float",
    "median",
    "mode",
    "pmf",
    "pmf_float",
    "pmf_table",
    "sample_inverse_cdf",
    "sample_inverse_cdf_batch",
    "sample_urn_walk",
    "sample_urn_walk_batch",
    "sum_binom_closed",
    "sum_binom_from_closed",
    "sum_j_binom_closed",
    "support",
    "tv_distance",
    "variance",
    "variance_float",
]
