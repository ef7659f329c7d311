"""Float-layer accuracy against the exact layer and high-precision references."""

import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from urndist import (
    ParameterError,
    UrnParams,
    cdf,
    cdf_float,
    log_fail,
    mean,
    mean_float,
    pmf,
    pmf_float,
    support,
    variance,
    variance_float,
)
from urndist import floats

BIG = UrnParams(total=10**9, good=10**6)


def rel_err(approx: float, exact: Fraction) -> float:
    if exact == 0:
        return abs(approx)
    return abs(approx - float(exact)) / abs(float(exact))


class TestLogFail:
    def test_example_value(self):
        got = log_fail(UrnParams(10, 3), 2)
        assert abs(got - math.log(7 / 15)) < 1e-12

    def test_beyond_bad_is_neg_inf(self):
        assert log_fail(UrnParams(10, 3), 9) == float("-inf")

    def test_zero_draws_huge_urn(self):
        assert log_fail(BIG, 0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            log_fail(UrnParams(10, 3), -1)

    def test_against_mpmath_small_n_huge_urn(self):
        # the small-cdf regime: log of a product of a handful of ratios
        mpmath.mp.dps = 60
        for n in (1, 2, 5, 17, 100, 1000):
            expected = mpmath.fsum(
                mpmath.log1p(mpmath.mpf(-(10**6)) / (10**9 - j)) for j in range(n)
            )
            got = log_fail(BIG, n)
            assert abs(got - float(expected)) <= 1e-13 * abs(float(expected))

    def test_against_exact_moderate(self):
        mpmath.mp.dps = 60
        for total in (57, 200, 999):
            for good in (1, 2, 31, 32, 33, 50, total):
                if good > total:
                    continue
                params = UrnParams(total, good)
                assert log_fail(params, 0) == 0.0
                for n in range(1, total - good + 1):
                    ratio = Fraction(
                        math.comb(total - n, good), math.comb(total, good)
                    )
                    want = float(
                        mpmath.log(mpmath.mpf(ratio.numerator))
                        - mpmath.log(mpmath.mpf(ratio.denominator))
                    )
                    assert log_fail(params, n) == pytest.approx(
                        want, rel=1e-11, abs=1e-13
                    )


class TestPmfFloat:
    def test_examples(self):
        assert rel_err(pmf_float(UrnParams(10, 3), 2), Fraction(7, 30)) < 1e-12
        assert abs(pmf_float(UrnParams(5, 1), 4) - 0.2) < 1e-12
        assert pmf_float(UrnParams(10, 3), 20) == 0.0

    def test_first_draw_is_exact_ratio(self):
        # pmf(1) = good/total with a single correctly rounded division
        assert pmf_float(UrnParams(10**5, 10**4), 1) == 10**4 / 10**5

    def test_below_one_rejected(self):
        with pytest.raises(ParameterError):
            pmf_float(UrnParams(10, 3), 0)

    def test_sums_to_one_large_supports(self):
        for total, good in ((10**5, 10), (10**5, 10**4), (12345, 17)):
            params = UrnParams(total, good)
            acc = math.fsum(pmf_float(params, n) for n in support(params))
            assert abs(acc - 1.0) < 1e-8


class TestCdfFloat:
    def test_examples(self):
        assert rel_err(cdf_float(UrnParams(10, 3), 2), Fraction(8, 15)) < 1e-12
        assert cdf_float(UrnParams(10, 3), 0) == 0.0
        assert cdf_float(UrnParams(10, 3), 8) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            cdf_float(UrnParams(10, 3), -2)

    def test_small_cdf_keeps_relative_accuracy(self):
        # huge urn, tiny head probabilities: the expm1 formulation matters
        mpmath.mp.dps = 60
        for n in (1, 2, 10, 200):
            lf = mpmath.fsum(
                mpmath.log1p(mpmath.mpf(-(10**6)) / (10**9 - j)) for j in range(n)
            )
            want = float(-mpmath.expm1(lf))
            got = cdf_float(BIG, n)
            assert got == pytest.approx(want, rel=1e-12)

    def test_monotone_desk_scale(self):
        for total in (13, 64, 200, 1999):
            for good in (1, 2, 7, 33, total // 2, total):
                if good < 1 or good > total:
                    continue
                params = UrnParams(total, good)
                values = [cdf_float(params, n) for n in range(0, total - good + 2)]
                assert all(a <= b for a, b in zip(values, values[1:]))
                assert all(0.0 <= v <= 1.0 for v in values)

    def test_monotone_huge_urn_windows(self):
        for good in (1, 17, 32, 10**6):
            params = UrnParams(10**9, good)
            head = [cdf_float(params, n) for n in range(0, 3000)]
            assert all(a <= b for a, b in zip(head, head[1:]))

    def test_cdf_blocks_cover_the_support_on_the_block_grid(self):
        for total, good in ((5, 5), (70000, 3), (2 * floats.LOG_FAIL_BLOCK + 1, 2)):
            params = UrnParams(total, good)
            blocks = list(floats.cdf_blocks(params))
            assert [n0 for n0, _ in blocks] == list(
                range(1, params.support_size + 1, floats.LOG_FAIL_BLOCK)
            )
            assert sum(block.size for _, block in blocks) == params.support_size
            assert blocks[-1][1][-1] == 1.0
            for n0, block in blocks:
                for i in (0, block.size // 2, block.size - 1):
                    assert block[i] == pytest.approx(cdf_float(params, n0 + i), rel=1e-12)


class TestStirlerr:
    """The error term of Stirling's formula: the table up to 500, the series
    above, and the block form that reads both."""

    def test_within_2e_16_of_loggamma(self):
        # the measured worst case is 1.08e-16 absolute, at n = 16
        with mpmath.workdps(40):
            for n in (*range(1, 1201), 10**4, 10**6, 10**9):
                want = (
                    mpmath.loggamma(n + 1)
                    - (n + mpmath.mpf(0.5)) * mpmath.log(n)
                    + n
                    - mpmath.log(2 * mpmath.pi) / 2
                )
                assert abs(floats._stirlerr(n) - want) <= 2e-16, n

    def test_block_equals_scalar(self):
        # a descending block from 1100 to 0 runs through the series and the
        # whole table
        x = np.arange(1100, -1, -1, dtype=np.float64)
        out = np.empty_like(x)
        floats._stirlerr_block(1100, x, out)
        want = np.array([floats._stirlerr(n) for n in range(1100, -1, -1)])
        assert np.array_equal(out.view(np.int64), want.view(np.int64))


class TestDomain:
    # below 2^511 every term of the saddle-point form converts to a double
    @pytest.mark.parametrize(
        "good", [1, 3, 2**510, 2**511 - 6], ids=["1", "3", "2^510", "2^511-6"]
    )
    def test_finite_below_the_limit(self, good):
        total = floats.TOTAL_LIMIT - 1
        params = UrnParams(total, good)
        assert math.isfinite(log_fail(params, 1))
        assert math.isfinite(log_fail(params, total - good))
        assert all(map(math.isfinite, floats.log_fail_block(total, good, 1, 5)))
        last = floats.log_fail_block(total, good, total - good - 4, 5)
        assert all(map(math.isfinite, last))

    @pytest.mark.parametrize(
        "total", [2**511, 2**512 - 1, 10**400], ids=["2^511", "2^512-1", "10^400"]
    )
    def test_refused_from_the_limit(self, total):
        params = UrnParams(total, 3)
        with pytest.raises(ParameterError, match="2\\^511"):
            log_fail(params, 1)
        with pytest.raises(ParameterError):
            cdf_float(params, 2)
        with pytest.raises(ParameterError):
            pmf_float(params, 2)
        with pytest.raises(ParameterError):
            floats.log_fail_block(total, 3, 1, 5)
        with pytest.raises(ParameterError):
            floats.log_fail_block(total, total - 4, 4, 1)  # the m = bad route


class TestWholeDomain:
    """The stated bounds against loggamma references up to 2^510 + 12345."""

    @pytest.mark.parametrize("e", [60, 80, 120, 200, 300, 400, 510])
    def test_within_the_stated_bounds(self, e):
        total = 2**e + 12345
        # the lgamma terms are ~total*bits while log Fail(1) at good = 1 is
        # ~1/total, so the reference needs about 2*bits digits and a margin
        lgamma = lambda x: mpmath.loggamma(mpmath.mpf(x) + 1)  # noqa: E731
        with mpmath.workprec(2 * total.bit_length() + 200):
            for good in (1, 3, 1000, total >> 20, total // 4, total // 2 + 7):
                bad = total - good
                params = UrnParams(total, good)
                const = lgamma(total - good) - lgamma(total)
                # m = 1, 2, bad/2, bad/2 + 1, bad - 1, bad: both ends and the middle
                for m0 in (1, bad // 2, bad - 1):
                    block = floats.log_fail_block(total, good, m0, 2)
                    for m, got_block in zip((m0, m0 + 1), block.tolist()):
                        lf = const + lgamma(total - m) - lgamma(bad - m)
                        want = float(lf)
                        for got in (log_fail(params, m), got_block):
                            assert abs(got - want) <= 1e-13 * abs(want), (good, m, got)
                        for got, ref in (
                            (pmf_float(params, m + 1), mpmath.exp(lf) * good / (total - m)),
                            (cdf_float(params, m), -mpmath.expm1(lf)),
                        ):
                            if ref >= sys.float_info.min:
                                assert got == pytest.approx(float(ref), rel=1e-10, abs=0)


class TestMomentFloats:
    def test_mean_example(self):
        assert abs(mean_float(UrnParams(10, 3)) - 2.75) < 1e-15

    def test_variance_uniform(self):
        assert rel_err(variance_float(UrnParams(9, 1)), Fraction(20, 3)) < 1e-12

    def test_variance_degenerate(self):
        assert variance_float(UrnParams(6, 6)) == 0.0

    def test_huge_urn_values_finite(self):
        assert mean_float(BIG) == pytest.approx((10**9 + 1) / (10**6 + 1), rel=1e-15)
        assert math.isfinite(variance_float(BIG))


class TestAgreementSweep:
    """Small-scale mirror of the full float-accuracy acceptance criterion."""

    def test_pmf_cdf_mean_variance_against_exact(self):
        for total in range(1, 121):
            for good in range(1, total + 1):
                params = UrnParams(total, good)
                assert rel_err(mean_float(params), mean(params)) < 1e-10
                if variance(params) == 0:
                    assert variance_float(params) == 0.0
                else:
                    assert rel_err(variance_float(params), variance(params)) < 1e-10
                for n in support(params):
                    assert rel_err(pmf_float(params, n), pmf(params, n)) < 1e-10
                    assert rel_err(cdf_float(params, n), cdf(params, n)) < 1e-10
