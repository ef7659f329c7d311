"""Acceptance battery: every verification criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N ...: PASS/FAIL` line (visible
with `pytest -s` or in the captured output of a failure).  Exact-layer
criteria tolerate nothing: comparisons are rational equality.  Float-layer
criteria pin their tolerances inline.

Fixed sampling seeds used by the statistical criteria: 42 (urn walk) and
43 (cdf inversion).
"""

import math
from fractions import Fraction

import pytest
from scipy import stats

from urndist import (
    SamplerState,
    UrnParams,
    binomial,
    cdf,
    cdf_float,
    convergence_table,
    enumerate_pmf,
    geometric_pmf,
    mean,
    mean_float,
    median,
    mode,
    pmf,
    pmf_float,
    pmf_table,
    sample_inverse_cdf_batch,
    sample_urn_walk_batch,
    sum_binom_closed,
    sum_binom_from_closed,
    sum_j_binom_closed,
    support,
    variance,
    variance_float,
)
from urndist.exact import binomial_numerators

DESK_MAX_TOTAL = 200
LEMMA_MAX = 300
FLOAT_REL_TOL = 1e-10
URN_SEED = 42
INVERSE_SEED = 43


def _report(num: int, label: str, failures: list) -> None:
    verdict = "PASS" if not failures else f"FAIL ({len(failures)} problems)"
    print(f"[acceptance] criterion {num} ({label}): {verdict}")
    assert not failures, f"criterion {num} ({label}):\n" + "\n".join(
        str(f) for f in failures[:10]
    )


@pytest.fixture(scope="module")
def desk_sweep():
    """One pass over every (total, good) pair with total <= 200.

    Collects, per criterion, the pairs that violate it; the per-criterion
    tests below just assert their slice is empty.
    """
    out = {
        "mean": [],
        "variance": [],
        "normalization_cdf": [],
        "shape_mode": [],
        "median": [],
    }
    for total in range(1, DESK_MAX_TOTAL + 1):
        for good in range(1, total + 1):
            params = UrnParams(total, good)
            table = pmf_table(params)
            # the sums are integers over the table's denominator
            nums, full = table.numerators, table.denominator

            s0 = s1 = s2 = 0
            prefix_ok = True
            scan_median = None
            shape_ok = True
            for n, a in enumerate(nums, start=1):
                s0 += a
                s1 += n * a
                s2 += n * n * a
                c = cdf(params, n)
                if c.numerator * full != s0 * c.denominator:
                    prefix_ok = False
                if scan_median is None and 2 * s0 >= full:
                    scan_median = n
                if n > 1:
                    prev = nums[n - 2]
                    if good == 1:
                        shape_ok = shape_ok and a == prev
                    else:
                        shape_ok = shape_ok and a < prev
            if good == 1:
                shape_ok = shape_ok and nums[0] * total == full

            moment_mean = Fraction(s1, full)
            if moment_mean != mean(params):
                out["mean"].append(f"total={total} good={good}: sum n*P(n) = {moment_mean}")
            # s2/D - (s1/D)^2 over D^2
            moment_var = Fraction(s2 * full - s1 * s1, full * full)
            if moment_var != variance(params):
                out["variance"].append(
                    f"total={total} good={good}: moment gives {moment_var}"
                )
            if s0 != full or not prefix_ok or cdf(params, params.support_size) != 1:
                out["normalization_cdf"].append(f"total={total} good={good}")

            expected_mode = range(1, 2) if good > 1 else support(params)
            if not shape_ok or mode(params) != expected_mode:
                out["shape_mode"].append(f"total={total} good={good}")

            m = median(params)
            full = binomial(total, good)
            binom_ok = 2 * binomial(total - m, good) <= full and (
                m == 1 or 2 * binomial(total - m + 1, good) > full
            )
            if not binom_ok or m != scan_median:
                out["median"].append(
                    f"total={total} good={good}: median() = {m} scan = {scan_median}"
                )
    return out


def test_criterion_1_closed_form_mean(desk_sweep):
    _report(1, "closed-form mean, exact, total <= 200", desk_sweep["mean"])


def test_criterion_2_closed_form_variance(desk_sweep):
    failures = list(desk_sweep["variance"])
    # single-good specialization: the uniform variance (total^2 - 1) / 12
    for total in range(1, DESK_MAX_TOTAL + 1):
        if variance(UrnParams(total, 1)) != Fraction(total * total - 1, 12):
            failures.append(f"uniform specialization broken at total={total}")
    _report(2, "closed-form variance, exact, total <= 200", failures)


def test_criterion_3_normalization_and_cdf(desk_sweep):
    _report(
        3,
        "pmf sums to 1 and cdf equals prefix sums, total <= 200",
        desk_sweep["normalization_cdf"],
    )


def test_criterion_4_oracle_equivalence():
    failures = []
    for total in range(1, 13):
        for good in range(1, total + 1):
            params = UrnParams(total, good)
            if enumerate_pmf(params).probabilities != pmf_table(params).probabilities:
                failures.append(f"total={total} good={good}")
    _report(4, "enumeration equals closed-form pmf, total <= 12", failures)


def test_criterion_5_summation_lemmas():
    failures = []
    for k in range(0, LEMMA_MAX + 1):
        prefix = {k - 1: 0}
        weighted = {k - 1: 0}
        for j in range(k, LEMMA_MAX + 1):
            term = binomial(j, k)
            prefix[j] = prefix[j - 1] + term
            weighted[j] = weighted[j - 1] + j * term
        for n in range(k, LEMMA_MAX + 1):
            if sum_binom_closed(k, n) != prefix[n]:
                failures.append(f"running sum k={k} n={n}")
            if sum_j_binom_closed(k, n) != weighted[n]:
                failures.append(f"weighted sum k={k} n={n}")
            for x in range(k, n + 1):
                if sum_binom_from_closed(x, k, n) != prefix[n] - prefix[x - 1]:
                    failures.append(f"partial sum k={k} x={x} n={n}")
        if failures:
            break
    _report(5, "summation identities vs direct sums, bounds <= 300", failures)


def test_criterion_6_mode_median_structure(desk_sweep):
    failures = desk_sweep["shape_mode"] + desk_sweep["median"]
    _report(6, "pmf shape, mode and median characterizations", failures)


def test_criterion_7_float_accuracy():
    failures = []

    def check_pair(params):
        exact_mean = mean(params)
        if abs(mean_float(params) - exact_mean) > FLOAT_REL_TOL * exact_mean:
            failures.append(f"mean {params}")
        exact_var = variance(params)
        if exact_var == 0:
            if variance_float(params) != 0.0:
                failures.append(f"variance {params}")
        elif abs(variance_float(params) - exact_var) > FLOAT_REL_TOL * exact_var:
            failures.append(f"variance {params}")

    def check_pointwise(params):
        # P(n) = a/D and cdf(n) = (D - b)/D; int true division rounds
        # correctly, as float(Fraction) does
        full = binomial(params.total, params.good)
        for n, (a, b) in enumerate(binomial_numerators(params), start=1):
            ref = a / full
            if abs(pmf_float(params, n) - ref) > FLOAT_REL_TOL * ref:
                failures.append(f"pmf {params} n={n}")
            ref_cdf = (full - b) / full
            if abs(cdf_float(params, n) - ref_cdf) > FLOAT_REL_TOL * ref_cdf:
                failures.append(f"cdf {params} n={n}")

    for total in range(1, 2001):
        for good in range(1, total + 1):
            check_pair(UrnParams(total, good))
    for total in range(1, DESK_MAX_TOTAL + 1):
        for good in range(1, total + 1):
            check_pointwise(UrnParams(total, good))
    for total in (512, 1024, 2000):
        for good in range(1, total + 1):
            check_pointwise(UrnParams(total, good))

    _report(
        7,
        "float layer within 1e-10 relative of exact (mean/variance on all "
        "pairs to 2000; pmf/cdf on the full grid to 200 plus every pair at "
        "totals 512, 1024, 2000)",
        failures,
    )


def test_criterion_8_sampler_fidelity():
    failures = []
    params = UrnParams(10, 3)
    trials = 10**5
    expected = [float(p) * trials for p in pmf_table(params).probabilities]
    exact_mean = float(mean(params))  # 2.75
    band = 4 * math.sqrt(float(variance(params)) / trials)  # Var = 231/80

    for label, sampler, seed in (
        ("urn walk", sample_urn_walk_batch, URN_SEED),
        ("cdf inversion", sample_inverse_cdf_batch, INVERSE_SEED),
    ):
        values = sampler(params, SamplerState(seed=seed), trials)
        observed = [int((values == n).sum()) for n in support(params)]
        result = stats.chisquare(observed, expected)
        if result.pvalue <= 0.001:
            failures.append(f"{label}: chi-square p = {result.pvalue}")
        if abs(values.mean() - exact_mean) >= band:
            failures.append(f"{label}: mean {values.mean()} outside {band}")
    _report(8, "sampler chi-square at alpha=0.001 and 4-sigma mean band", failures)


GROWTH_TOTALS = [10**2, 10**3, 10**4, 10**5]


def test_criterion_9_convergence_to_geometric():
    failures = []
    records = convergence_table(Fraction(1, 10), GROWTH_TOTALS)
    tvs = [r.tv_distance for r in records]
    if not all(a > b for a, b in zip(tvs, tvs[1:])):
        failures.append(f"tv distances not strictly decreasing: {tvs}")
    for n in range(2, 11):
        errors = [
            abs(pmf_float(UrnParams(total, total // 10), n) - geometric_pmf(0.1, n))
            for total in GROWTH_TOTALS
        ]
        if not all(a > b for a, b in zip(errors, errors[1:])):
            failures.append(f"pointwise error at n={n} not decreasing: {errors}")
    _report(
        9, "tv and pointwise errors (n >= 2) strictly decreasing", failures
    )


def test_criterion_9_pointwise_error_at_first_support_point():
    """The approximation error at n = 1 is exactly zero at every urn size.

    The first draw succeeds with probability good/total in the urn and p in
    the geometric law, and good/total = p at every size on the growth path,
    so the error there already equals its limit 0: convergence at n = 1
    holds trivially, and a strict decrease cannot.  Both float evaluations
    reduce to one correctly rounded 1/10, so their difference is exactly
    0.0; a drift of one ulp in either function fails this test.
    """
    failures = []
    for total in GROWTH_TOTALS:
        params = UrnParams(total, total // 10)
        if pmf(params, 1) != Fraction(1, 10):
            failures.append(f"exact pmf at n=1, total={total}: {pmf(params, 1)}")
        error = pmf_float(params, 1) - geometric_pmf(0.1, 1)
        if error != 0.0:
            failures.append(f"float pmf error at n=1, total={total}: {error!r}")
    _report(9, "pointwise error at n = 1 exactly zero", failures)
