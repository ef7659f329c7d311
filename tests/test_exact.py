"""Exact-layer unit tests: every closed form against an independent route."""

import math
from fractions import Fraction

import pytest

from urndist import (
    ParameterError,
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
from urndist.exact import binomial_numerators


class TestUrnParams:
    def test_valid_construction(self):
        p = UrnParams(total=10, good=3)
        assert (p.total, p.good) == (10, 3)
        assert p.support_size == 8

    @pytest.mark.parametrize("total,good", [(10, 0), (5, -1), (3, 4), (0, 0), (-2, 1)])
    def test_invalid_rejected(self, total, good):
        with pytest.raises(ParameterError):
            UrnParams(total=total, good=good)

    @pytest.mark.parametrize("total,good", [(10.0, 3), (10, 3.0), (True, True), ("10", 3)])
    def test_non_integers_rejected(self, total, good):
        with pytest.raises(ParameterError):
            UrnParams(total=total, good=good)

    def test_immutable(self):
        p = UrnParams(total=10, good=3)
        with pytest.raises(AttributeError):
            p.total = 11


class TestBinomial:
    def test_small_direct_count(self):
        assert binomial(5, 2) == 10

    def test_empty_choice(self):
        assert binomial(7, 0) == 1

    def test_k_beyond_n_is_zero(self):
        assert binomial(3, 5) == 0
        assert binomial(3, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ParameterError):
            binomial(-1, 0)

    def test_pascal_rule_holds(self):
        for n in range(1, 40):
            for k in range(0, n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


class TestFailProbability:
    def test_zero_draws_is_certain(self):
        assert fail_probability(UrnParams(10, 3), 0) == 1

    def test_beyond_bad_count_is_impossible(self):
        assert fail_probability(UrnParams(10, 3), 8) == 0
        assert fail_probability(UrnParams(10, 3), 100) == 0

    def test_matches_telescoping_product(self):
        # oracle: product of per-step failure chances, in exact arithmetic
        p = UrnParams(10, 3)
        product = Fraction(7, 10) * Fraction(6, 9)
        assert product == Fraction(7, 15)
        assert fail_probability(p, 2) == product

    def test_product_agreement_sweep(self):
        for total in range(1, 41):
            for good in range(1, total + 1):
                params = UrnParams(total, good)
                running = Fraction(1)
                for n in range(1, total - good + 1):
                    running *= Fraction(total - good - n + 1, total - n + 1)
                    assert fail_probability(params, n) == running

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            fail_probability(UrnParams(10, 3), -1)


class TestPmf:
    def test_first_draw(self):
        assert pmf(UrnParams(10, 3), 1) == Fraction(3, 10)

    def test_second_draw(self):
        assert pmf(UrnParams(10, 3), 2) == Fraction(7, 10) * Fraction(3, 9)

    def test_single_good_is_uniform(self):
        assert pmf(UrnParams(5, 1), 3) == Fraction(1, 5)

    def test_all_good_certain_first(self):
        assert pmf(UrnParams(4, 4), 1) == 1

    def test_out_of_support_is_zero(self):
        assert pmf(UrnParams(10, 3), 9) == 0
        assert pmf(UrnParams(10, 3), 1000) == 0

    def test_below_one_rejected(self):
        with pytest.raises(ParameterError):
            pmf(UrnParams(10, 3), 0)


class TestCdf:
    def test_zero_draws(self):
        assert cdf(UrnParams(10, 3), 0) == 0

    def test_support_end_and_beyond(self):
        assert cdf(UrnParams(10, 3), 8) == 1
        assert cdf(UrnParams(10, 3), 50) == 1

    def test_matches_pmf_prefix_sum(self):
        # oracle: add the pmf values up independently
        p = UrnParams(10, 3)
        assert pmf(p, 1) + pmf(p, 2) == Fraction(8, 15)
        assert cdf(p, 2) == Fraction(8, 15)

    def test_prefix_sum_sweep(self):
        for total in range(1, 31):
            for good in range(1, total + 1):
                params = UrnParams(total, good)
                acc = Fraction(0)
                for n in range(1, total - good + 2):
                    acc += pmf(params, n)
                    assert cdf(params, n) == acc

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            cdf(UrnParams(10, 3), -1)


class TestMoments:
    def test_mean_example(self):
        assert mean(UrnParams(10, 3)) == Fraction(11, 4)

    def test_mean_degenerate(self):
        assert mean(UrnParams(7, 7)) == 1

    def test_mean_uniform_midpoint(self):
        assert mean(UrnParams(9, 1)) == 5

    def test_variance_example(self):
        assert variance(UrnParams(10, 3)) == Fraction(231, 80)

    def test_variance_uniform_case(self):
        # single good object: the classic (total^2 - 1) / 12
        assert variance(UrnParams(9, 1)) == Fraction(9**2 - 1, 12)

    def test_variance_degenerate(self):
        assert variance(UrnParams(6, 6)) == 0

    def test_moments_match_direct_summation(self):
        for total in range(1, 31):
            for good in range(1, total + 1):
                params = UrnParams(total, good)
                s1 = sum(n * pmf(params, n) for n in support(params))
                s2 = sum(n * n * pmf(params, n) for n in support(params))
                assert s1 == mean(params)
                assert s2 - s1 * s1 == variance(params)


class TestMedian:
    def test_example(self):
        # C(9,3)=84 > 60 = C(10,3)/2 and C(8,3)=56 <= 60
        assert median(UrnParams(10, 3)) == 2

    def test_degenerate(self):
        assert median(UrnParams(5, 5)) == 1

    def test_uniform_four(self):
        assert median(UrnParams(4, 1)) == 2

    def test_matches_cdf_scan(self):
        for total in range(1, 41):
            for good in range(1, total + 1):
                params = UrnParams(total, good)
                by_scan = next(
                    n for n in support(params) if cdf(params, n) >= Fraction(1, 2)
                )
                assert median(params) == by_scan

    def test_matches_linear_scan(self):
        # oracle: step m one at a time until 2 C(total-m, good) <= C(total, good)
        for total in range(1, 81):
            for good in range(1, total + 1):
                full = binomial(total, good)
                m = 1
                while 2 * binomial(total - m, good) > full:
                    m += 1
                assert median(UrnParams(total, good)) == m

    @pytest.mark.parametrize(
        "total,good,expected",
        [(10**7, 1, 5000000), (10**7, 2, 2928933), (10**6, 3, 206300)],
    )
    def test_large_urns(self, total, good, expected):
        assert median(UrnParams(total, good)) == expected

    @pytest.mark.parametrize("total,good,past_good", [(10**6, 100, True), (1000, 500, False)])
    def test_full_permutation_built_once(self, monkeypatch, total, good, past_good):
        # perm(total, good) does not depend on the probe: at most one build,
        # and none when the median is at or below good
        calls = []
        real = math.perm

        def counting(n, k=None):
            calls.append((n, k))
            return real(n, k)

        monkeypatch.setattr(math, "perm", counting)
        assert (median(UrnParams(total, good)) > good) == past_good
        assert calls.count((total, good)) == int(past_good)


class TestMode:
    def test_several_good(self):
        assert mode(UrnParams(10, 3)) == range(1, 2)

    def test_single_good_ties_everywhere(self):
        assert mode(UrnParams(6, 1)) == range(1, 7)

    def test_single_point_support(self):
        assert mode(UrnParams(2, 2)) == range(1, 2)

    def test_matches_argmax_of_table(self):
        for total in range(1, 31):
            for good in range(1, total + 1):
                params = UrnParams(total, good)
                probs = pmf_table(params).probabilities
                top = max(probs)
                argmax = frozenset(
                    n for n, p in enumerate(probs, start=1) if p == top
                )
                assert frozenset(mode(params)) == argmax


class TestSupport:
    @pytest.mark.parametrize(
        "total,good,expected",
        [(10, 3, range(1, 9)), (5, 5, range(1, 2)), (2, 1, range(1, 3))],
    )
    def test_interval(self, total, good, expected):
        assert support(UrnParams(total, good)) == expected


class TestPmfTable:
    def test_sums_to_one_and_positive(self):
        for total in range(1, 41):
            for good in range(1, total + 1):
                table = pmf_table(UrnParams(total, good))
                assert table.total_mass() == 1
                assert all(p > 0 for p in table.probabilities)

    def test_matches_pointwise_pmf(self):
        for total in range(1, 26):
            for good in range(1, total + 1):
                params = UrnParams(total, good)
                table = pmf_table(params)
                for n in support(params):
                    assert table.probability(n) == pmf(params, n)

    def test_shape(self):
        for total in range(2, 31):
            flat = pmf_table(UrnParams(total, 1)).probabilities
            assert all(p == Fraction(1, total) for p in flat)
            for good in range(2, total + 1):
                probs = pmf_table(UrnParams(total, good)).probabilities
                assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_lookup_outside_support(self):
        table = pmf_table(UrnParams(5, 2))
        assert table.probability(0) == 0
        assert table.probability(99) == 0

    def test_is_value_type(self):
        table = pmf_table(UrnParams(5, 2))
        assert isinstance(table, PmfTable)
        with pytest.raises(AttributeError):
            table.probabilities = ()


class TestBinomialNumerators:
    def test_matches_math_comb(self):
        for total in range(1, 41):
            for good in range(1, total + 1):
                got = list(binomial_numerators(UrnParams(total, good)))
                assert got == [
                    (math.comb(total - n, good - 1), math.comb(total - n, good))
                    for n in range(1, total - good + 2)
                ]


class TestSumIdentities:
    def test_running_sum_examples(self):
        assert sum_binom_closed(2, 4) == 10  # 1 + 3 + 6
        assert sum_binom_closed(0, 3) == 4  # four ones
        assert sum_binom_closed(3, 3) == 1

    def test_partial_sum_examples(self):
        assert sum_binom_from_closed(2, 2, 4) == 10  # reduces to the full sum
        assert sum_binom_from_closed(3, 2, 4) == 9  # 3 + 6
        assert sum_binom_from_closed(5, 1, 5) == 5  # single term C(5,1)

    def test_weighted_sum_examples(self):
        assert sum_j_binom_closed(1, 3) == 14  # 1*1 + 2*2 + 3*3
        assert sum_j_binom_closed(2, 2) == 2  # single term 2*C(2,2)
        assert sum_j_binom_closed(2, 4) == 35  # 2*1 + 3*3 + 4*6

    def test_against_direct_summation(self):
        limit = 60
        for k in range(0, limit + 1):
            for n in range(k, limit + 1):
                direct = sum(binomial(j, k) for j in range(k, n + 1))
                weighted = sum(j * binomial(j, k) for j in range(k, n + 1))
                assert sum_binom_closed(k, n) == direct
                assert sum_j_binom_closed(k, n) == weighted
                for x in range(k, n + 1):
                    partial = sum(binomial(j, k) for j in range(x, n + 1))
                    assert sum_binom_from_closed(x, k, n) == partial

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            sum_binom_closed(3, 2)
        with pytest.raises(ParameterError):
            sum_binom_closed(-1, 2)
        with pytest.raises(ParameterError):
            sum_binom_from_closed(1, 2, 4)  # x < k
        with pytest.raises(ParameterError):
            sum_binom_from_closed(5, 2, 4)  # x > n
        with pytest.raises(ParameterError):
            sum_j_binom_closed(4, 3)


class TestRationalRepresentation:
    def test_lowest_terms_and_positive_denominator(self):
        for total in range(1, 21):
            for good in range(1, total + 1):
                for n in support(UrnParams(total, good)):
                    value = pmf(UrnParams(total, good), n)
                    import math

                    assert value.denominator > 0
                    assert math.gcd(value.numerator, value.denominator) == 1

    def test_equality_is_structural(self):
        assert Fraction(7, 15) == fail_probability(UrnParams(10, 3), 2)
        assert Fraction(14, 30) == fail_probability(UrnParams(10, 3), 2)
