"""urndist: the draws-until-first-success law of an urn sampled without
replacement.

Exact rational layer, numerically stable float layer, two independent
samplers, convergence diagnostics against the geometric limit, and
brute-force oracles for self-verification.  Each public name is imported
from its submodule on first access, so ``import urndist`` loads no numpy.
"""

import importlib

# public name -> the submodule that defines it, imported on first access
_SUBMODULE = {name: module for module, names in {
    "convergence": "ConvergenceRecord convergence_table geometric_pmf tv_distance",
    "errors": "ParameterError ResourceGuardError UrnError",
    "exact": "PmfTable UrnParams binomial cdf fail_probability mean median mode pmf "
             "pmf_table sum_binom_closed sum_binom_from_closed sum_j_binom_closed "
             "support variance",
    "floats": "cdf_float log_fail mean_float pmf_float variance_float",
    "oracle": "ENUMERATION_LIMIT EmpiricalPmf enumerate_pmf mc_estimate",
    "rng": "SamplerState",
    "sampler": "inverse_cdf sample_inverse_cdf sample_inverse_cdf_batch sample_urn_walk "
               "sample_urn_walk_batch",
}.items() for name in names.split()}
__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_SUBMODULE[name]}", __name__)
    globals()[name] = value = getattr(module, name)
    return value


__version__ = "0.1.0"
