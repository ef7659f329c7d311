"""Brute-force oracles: enumeration equality and Monte Carlo consistency."""

import math
from fractions import Fraction

import pytest

from urndist import (
    ENUMERATION_LIMIT,
    ParameterError,
    ResourceGuardError,
    SamplerState,
    UrnParams,
    enumerate_pmf,
    mc_estimate,
    mean,
    pmf_table,
    variance,
)


class TestEnumeratePmf:
    def test_uniform_three(self):
        table = enumerate_pmf(UrnParams(3, 1))
        assert table.probabilities == (
            Fraction(1, 3),
            Fraction(1, 3),
            Fraction(1, 3),
        )

    def test_two_of_three(self):
        # subsets {1,2} and {1,3} start at 1; {2,3} starts at 2
        table = enumerate_pmf(UrnParams(3, 2))
        assert table.probabilities == (Fraction(2, 3), Fraction(1, 3))

    def test_degenerate(self):
        assert enumerate_pmf(UrnParams(2, 2)).probabilities == (Fraction(1),)

    def test_guard_and_force(self):
        with pytest.raises(ResourceGuardError):
            enumerate_pmf(UrnParams(ENUMERATION_LIMIT + 1, 1))

    def test_equals_closed_form_sweep(self):
        for total in range(1, 10):
            for good in range(1, total + 1):
                params = UrnParams(total, good)
                assert (
                    enumerate_pmf(params).probabilities
                    == pmf_table(params).probabilities
                )

    def test_derived_moments_match_closed_forms(self):
        for total in range(1, 10):
            for good in range(1, total + 1):
                params = UrnParams(total, good)
                table = enumerate_pmf(params)
                assert table.mean() == mean(params)
                assert table.variance() == variance(params)


class TestMcEstimate:
    def test_degenerate_all_first(self):
        result = mc_estimate(UrnParams(5, 5), 100, SamplerState(seed=3))
        assert result.counts == (100,)
        assert result.trials == 100

    def test_counts_sum_to_trials(self):
        result = mc_estimate(UrnParams(10, 3), 5000, SamplerState(seed=11))
        assert sum(result.counts) == 5000
        assert len(result.counts) == 8

    def test_deterministic_given_seed(self):
        a = mc_estimate(UrnParams(10, 3), 2000, SamplerState(seed=123))
        b = mc_estimate(UrnParams(10, 3), 2000, SamplerState(seed=123))
        assert a.counts == b.counts

    def test_empirical_mean_within_band(self):
        params = UrnParams(10, 3)
        trials = 10**6
        result = mc_estimate(params, trials, SamplerState(seed=20240601))
        band = 4 * math.sqrt(float(variance(params)) / trials)
        assert abs(result.mean() - float(mean(params))) < band

    def test_uniform_bins_within_band(self):
        params = UrnParams(4, 1)
        trials = 10**5
        result = mc_estimate(params, trials, SamplerState(seed=777))
        band = 4 * math.sqrt(0.25 * 0.75 / trials)
        for n in range(1, 5):
            assert abs(result.frequency(n) - 0.25) < band

    def test_trials_validated(self):
        with pytest.raises(ParameterError):
            mc_estimate(UrnParams(5, 2), 0, SamplerState(seed=1))
