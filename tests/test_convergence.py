"""Convergence diagnostics against brute-force references."""

import math
import time
from fractions import Fraction

import mpmath
import pytest

from urndist import (
    ConvergenceRecord,
    ParameterError,
    UrnParams,
    convergence_table,
    geometric_pmf,
    pmf_float,
    pmf_table,
    tv_distance,
)
from urndist import convergence
from urndist._loader import _fail_constants
from urndist.convergence import _gap, _tv_stats


class TestGeometricPmf:
    def test_certain_success(self):
        assert geometric_pmf(1.0, 1) == 1.0

    def test_half(self):
        assert geometric_pmf(0.5, 3) == 0.125

    def test_head_value(self):
        assert geometric_pmf(0.1, 1) == 0.1

    @pytest.mark.parametrize("p, n", [(1e-6, 1001), (1e-6, 20001), (1e-4, 3001)])
    def test_within_an_ulp_of_the_exact_value(self, p, n):
        # (1 - p)**(n - 1) * p carries the rounding of 1 - p into the power:
        # 136, 2662 and 181 ulps off here
        want = float((1 - Fraction(p)) ** (n - 1) * Fraction(p))
        assert abs(geometric_pmf(p, n) - want) <= math.ulp(want)

    def test_domain_errors(self):
        for bad_p in (0.0, -0.5, 1.5):
            with pytest.raises(ParameterError):
                geometric_pmf(bad_p, 1)
        with pytest.raises(ParameterError):
            geometric_pmf(0.5, 0)


class TestTvDistance:
    def test_point_mass_coincides(self):
        assert tv_distance(UrnParams(5, 5)) == 0.0

    def test_matches_brute_force(self):
        # oracle: exact pmf to float, pointwise |difference|, closed tail
        params = UrnParams(10, 1)
        p = 1 / 10
        table = pmf_table(params)
        brute = 0.5 * (
            math.fsum(
                abs(float(table.probability(n)) - geometric_pmf(p, n))
                for n in range(1, 11)
            )
            + (1 - p) ** 10
        )
        assert tv_distance(params) == pytest.approx(brute, rel=1e-9)
        assert 0.0 < tv_distance(params) < 1.0

    @pytest.mark.parametrize(
        "total,good", [(17, 4), (100, 10), (1000, 3), (64, 64), (2, 1)]
    )
    def test_valid_metric_value(self, total, good):
        assert 0.0 <= tv_distance(UrnParams(total, good)) <= 1.0

    def test_strictly_decreasing_along_growth(self):
        distances = [
            tv_distance(UrnParams(total, total // 10))
            for total in (50, 500, 5000)
        ]
        assert distances[0] > distances[1] > distances[2]


class TestConvergenceTable:
    def test_single_row_plumbing(self):
        records = convergence_table(Fraction(1, 10), [100])
        assert len(records) == 1
        record = records[0]
        assert isinstance(record, ConvergenceRecord)
        assert (record.total, record.good) == (100, 10)
        assert record.p == pytest.approx(0.1)
        assert record.at_n in range(1, 92)
        assert record.max_pointwise_error >= 0.0

    def test_rows_keep_given_order_and_decrease(self):
        records = convergence_table(Fraction(1, 10), [10000, 100, 1000])
        assert [r.total for r in records] == [10000, 100, 1000]
        by_total = {r.total: r.tv_distance for r in records}
        assert by_total[100] > by_total[1000] > by_total[10000]

    def test_smallest_case(self):
        records = convergence_table(Fraction(1, 2), [2])
        assert (records[0].total, records[0].good) == (2, 1)

    def test_indivisible_total_is_named(self):
        with pytest.raises(ParameterError, match="total=100"):
            convergence_table(Fraction(1, 3), [100])

    def test_unreduced_fraction_is_normalized(self):
        # 2/20 reduces to 1/10, so 30 is compatible
        records = convergence_table(Fraction(2, 20), [30])
        assert records[0].good == 3

    def test_p_domain(self):
        with pytest.raises(ParameterError):
            convergence_table(Fraction(0), [10])
        with pytest.raises(ParameterError):
            convergence_table(Fraction(1), [10])
        with pytest.raises(ParameterError):
            convergence_table(0.1, [10])

    def test_empty_totals_rejected(self):
        with pytest.raises(ParameterError):
            convergence_table(Fraction(1, 10), [])


class TestPointwiseLimit:
    def test_head_errors_shrink_with_growth(self):
        # for n >= 2 the single-point errors decay roughly like 1/total
        p = 0.1
        for n in range(2, 11):
            errors = [
                abs(
                    pmf_float(UrnParams(total, total // 10), n)
                    - geometric_pmf(p, n)
                )
                for total in (100, 1000, 10000)
            ]
            assert errors[0] > errors[1] > errors[2]

    def test_first_point_coincides_exactly(self):
        # both laws put exactly good/total = p on n = 1
        for total in (100, 1000, 10000):
            assert pmf_float(UrnParams(total, total // 10), 1) == 0.1


def _first_order_limits(p):
    """(c, e): the limits of N*tv and N*max_err at fixed p as N grows.

    To first order in 1/N, log((bad-i)/(total-i)) = log q - i*p/(q*N), so
    N*(pmf(n) - geom(n)) tends to g(j) = p q^j j (1 - a (j-1)) with j = n-1
    and a = p/(2q).  g is positive up to n* = 2 + 2q/p and negative past it,
    and its sum over all j is q/p - q/p = 0 (from the sums of j q^j and
    j(j-1) q^j), so c = sum |g|/2 = -(sum of g from M = floor(n*) on).
    With the tails sum_{j>=M} j q^j = q^M (M/p + q/p^2) and
    sum_{j>=M} j(j-1) q^j = q^M (M(M-1)/p + 2Mq/p^2 + 2q^2/p^3), that is
    c = p M (M-1) q^(M-1) / 2.  e is |g| at an integer next to a root of
    g'(j) = 0, the quadratic -a L j^2 + (L + a L - 2a) j + (1 + a) with
    L = log q.  None of urndist's formulas enter.
    """
    q = 1.0 - p
    a = p / (2.0 * q)
    big_m = math.floor(2.0 + 2.0 * q / p)
    c = p * big_m * (big_m - 1) * q ** (big_m - 1) / 2.0
    log_q = math.log(q)
    qa, qb, qc = -a * log_q, log_q + a * log_q - 2.0 * a, 1.0 + a
    root = math.sqrt(qb * qb - 4.0 * qa * qc)
    js = [
        j
        for r in ((-qb - root) / (2.0 * qa), (-qb + root) / (2.0 * qa))
        for j in (math.floor(r), math.ceil(r))
        if j >= 0
    ]
    e = max(abs(p * q**j * j * (1.0 - a * (j - 1))) for j in js)
    return c, e


class TestFirstOrderRate:
    """N*tv -> c(p) and N*max_err -> e(p), within 1/(pN) relative."""

    @pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(3, 7), Fraction(1, 10),
                                   Fraction(1, 100)])
    def test_closed_forms_equal_the_series(self, p):
        q = 1.0 - float(p)
        a = float(p) / (2.0 * q)
        terms = [float(p) * q**j * j * (1.0 - a * (j - 1)) for j in range(int(1000 / p))]
        c, e = _first_order_limits(float(p))
        assert c == pytest.approx(0.5 * math.fsum(map(abs, terms)), rel=1e-12)
        assert e == max(map(abs, terms))

    @pytest.mark.parametrize(
        "p, totals",
        [
            (Fraction(1, 2), [20, 2000, 200000]),
            (Fraction(3, 7), [35, 7000, 700000]),
            (Fraction(1, 10), [100, 10**4, 10**6]),
            (Fraction(1, 100), [1000, 10**5]),
            (Fraction(1, 10**4), [10**5, 10**6, 10**7]),
        ],
    )
    def test_n_times_distance_tends_to_its_limit(self, p, totals):
        # measured gaps: 0.33-0.53/(pN) for p <= 1/2
        c, e = _first_order_limits(float(p))
        for r in convergence_table(p, totals):
            pn = float(p) * r.total
            assert pn >= 10
            assert abs(r.total * r.tv_distance / c - 1.0) <= 1.0 / pn, r
            assert abs(r.total * r.max_pointwise_error / e - 1.0) <= 1.0 / pn, r


def _full_scan(total, good, bits=256):
    """Reference: a scan of the support with both laws in fixed point at
    2^-bits, stepped by integer products that truncate, so each value is
    within j * 2^-bits at j = n - 1.

    Returns (tv, (|d|, n) of the largest and the second largest |P - G|).
    tv is max_m (q^m - Fail(m)), with m = bad + 1 (Fail = 0) when the whole
    support is scanned; the scan stops once it is past the crossing and
    q^j K/(N-j), which bounds P and G from n = j + 1 on, is below half the
    second largest |d|.
    """
    one = 1 << bits
    bad = total - good
    fail, geo = one, one  # Fail(j) and q^j
    tv, top, crossed = 0, [(0, 1), (0, 1)], False
    for j in range(bad + 1):
        d = fail * good // (total - j) - geo * good // total
        tv = max(tv, geo - fail)
        crossed = crossed or d < 0
        top = sorted([*top, (abs(d), j + 1)], key=lambda e: -e[0])[:2]
        if crossed and geo * good // (total - j) < top[1][0] // 2:
            break
        fail = fail * (bad - j) // (total - j)
        geo = geo * bad // total
    else:
        tv = max(tv, geo)
    return tv / one, [(value / one, n) for value, n in top]


class TestBoundedScan:
    @pytest.mark.parametrize(
        "total,good",
        [
            # the stop fires before the end of the support
            (123457, 1234),
            (200000, 200),
            (1000000, 100),
            (100000, 10),
            # the scan reaches the end of the support
            (1000000, 1),
            (1000000, 3),
            (2000, 1000),
            (2, 1),
        ],
    )
    def test_matches_full_scan(self, total, good):
        tv, max_err, at_n = _tv_stats(UrnParams(total, good))
        ref_tv, ((ref_err, ref_at), (second, _)) = _full_scan(total, good)
        assert tv == pytest.approx(ref_tv, rel=1e-12, abs=0)
        assert max_err == pytest.approx(ref_err, rel=1e-12, abs=0)
        if ref_err - second > 1e-9 * ref_err:
            assert at_n == ref_at


# urn: (m*, at_n, the n of the second largest |P - G|), from full mpmath scans
# at 60-100 digits that stepped Fail(j) and q^j over the support until the
# stop bound fell below half the second largest |P - G|
_MPMATH_URNS = {
    (10**6, 100): (19933, 5874, 5875),
    (10**7, 1000): (19993, 5860, 5861),
    (10**8, 10**4): (19999, 5859, 5858),
    (10**12, 10**6): (1999999, 585787, 585788),
    (10**7, 10**6): (19, 7, 6),
    (10**5, 5 * 10**4): (3, 2, 3),
    (2**100, 2**99): (3, 2, 3),
    (10**12, 999999 * 10**6): (2, 2, 3),
    (3 * 10**18, 10**18): (5, 3, 2),
}


# urns whose scan was refused, as too long: (m*, at_n, the n of the second
# largest |P - G|), from a bisection for m* and peak searches of |P - G| on
# either side of it, in mpmath at 400 digits
_MPMATH_SEARCHED_URNS = {
    (10**12, 10**3): (1999333111, 585944808, 585944807),
    (10**15, 1): (10**15, 10**15, 10**15 - 1),
    (10**18, 10**5): (19999933333111, 5857880205472, 5857880205473),
}


def _mpmath_values(total, good, m_star, ns):
    """tv = q^m* - Fail(m*) and |P(n) - G(n)| at each n, at 100 digits."""
    with mpmath.workdps(100):
        bad = mpmath.mpf(total - good)

        def log_fail(m):  # log C(total - m, good) / C(total, good)
            return (mpmath.loggamma(total - m + 1) + mpmath.loggamma(bad + 1)
                    - mpmath.loggamma(bad - m + 1) - mpmath.loggamma(total + 1))

        q = bad / total
        tv = q**m_star - (mpmath.exp(log_fail(m_star)) if m_star <= total - good else 0)
        errs = [abs(mpmath.exp(log_fail(n - 1)) * good / (total - n + 1)
                    - q ** (n - 1) * good / total) for n in ns]
        return float(tv), [float(e) for e in errs]


class TestMpmathReferences:
    @pytest.mark.parametrize("total, good", list(_MPMATH_URNS))
    def test_distances_within_1e12(self, total, good):
        m_star, ref_at, second_at = _MPMATH_URNS[(total, good)]
        ref_tv, (ref_err, second) = _mpmath_values(total, good, m_star, [ref_at, second_at])
        tv, max_err, at_n = _tv_stats(UrnParams(total, good))
        assert tv == pytest.approx(ref_tv, rel=1e-12, abs=0)
        assert max_err == pytest.approx(ref_err, rel=1e-12, abs=0)
        if ref_err - second > 1e-9 * ref_err:
            assert at_n == ref_at
        else:
            # (10^6, 100), (10^12, 10^6), and (3e18, 1e18), where n = 2 and
            # 3 tie to first order
            assert at_n in (ref_at, second_at)

    @pytest.mark.parametrize("total, good", list(_MPMATH_SEARCHED_URNS))
    def test_unscanned_urns_within_1e12(self, total, good):
        m_star, ref_at, second_at = _MPMATH_SEARCHED_URNS[(total, good)]
        tv, max_err, at_n = _tv_stats(UrnParams(total, good))
        ref_tv, (ref_err, second, at_err) = _mpmath_values(
            total, good, m_star, [ref_at, second_at, at_n])
        assert tv == pytest.approx(ref_tv, rel=1e-12, abs=0)
        assert max_err == pytest.approx(ref_err, rel=1e-12, abs=0)
        # the tops are flat to 1e-15 or better, so at_n is any point of the
        # top: |P - G| there is the largest within 1e-12
        assert ref_err - second < 1e-15 * ref_err
        assert at_err == pytest.approx(ref_err, rel=1e-12, abs=0)


def _mpmath_gap(total, good, j):
    """log(Fail(j) / q^j) from loggamma at twice the digits of total."""
    with mpmath.workdps(2 * len(str(total)) + 60):
        bad = mpmath.mpf(total - good)
        log_fail = (mpmath.loggamma(total - j + 1) + mpmath.loggamma(bad + 1)
                    - mpmath.loggamma(bad - j + 1) - mpmath.loggamma(total + 1))
        return float(log_fail - j * mpmath.log(bad / total))


def _mpmath_scan(total, good):
    """(tv, [(|P - G|, n) of the largest and the second largest]) over the
    whole support, Fail(j) and q^j stepped as products in mpmath."""
    with mpmath.workdps(2 * len(str(total)) + 60):
        bad = total - good
        q = mpmath.mpf(bad) / total
        fail, geo, tv, errs = mpmath.mpf(1), mpmath.mpf(1), 0, []
        for j in range(bad + 1):
            errs.append((abs(fail * good / (total - j) - geo * good / total), j + 1))
            tv = max(tv, geo - fail)
            fail, geo = fail * (bad - j) / (total - j), geo * q
        tv = max(tv, geo)  # m = bad + 1, where Fail = 0
        errs.sort(key=lambda e: -e[0])
        return float(tv), [(float(e), n) for e, n in errs[:2]]


class TestSearch:
    """The gap, the bisection for the crossing and the peak searches."""

    @pytest.mark.parametrize(
        "total, good, j",
        [
            # the series, from j/B small to j/B = 1/2
            (10**6, 100, 5873),
            (10**12, 10**6, 1999998),
            (10**18, 10**5, 5857880205472),
            (10**6, 100, 499950),
            (2**100, 2**99, 40),
            # past B/2: prod_{i<K} (N-j-i)/(N-i) less j log q, from exact
            # quotients where log1p(-j/N) would carry the rounding of j/N
            # (5.6e-8 relative at (10^15, 1))
            (10**15, 1, 10**15 - 2),
            (10**15, 3, 10**15 - 3),
            (10**15, 3, 10**15 - 10**6),
            (1000, 3, 996),
            # past B/2 with j <= K: the sum of log(N(B-i)/(B(N-i)))
            (10**6, 10**6 - 4, 3),
            (2**510, 2**510 - 7, 7),
        ],
        ids=["1e6-100-series", "1e12-1e6-series", "1e18-1e5-series", "1e6-100-half",
             "2^100-series", "1e15-1-near-N", "1e15-3-at-B", "1e15-3-near-N", "1000-3-at-B",
             "1e6-bad-4-sum", "2^510-bad-7-sum"],
    )
    def test_gap_matches_mpmath(self, total, good, j):
        got = _gap(total, good, _fail_constants(total, good)[1], j)
        assert got == pytest.approx(_mpmath_gap(total, good, j), rel=1e-14, abs=0)

    @pytest.mark.parametrize(
        "total, good", [(2**510, 2**510 - 7), (2**510 + 12345, 2**510 - 60)],
        ids=["2^510-bad-7", "2^510+12345-bad-12405"],
    )
    def test_far_tails_where_q_to_the_j_underflows(self, total, good):
        # G(n) = p q^(n-1) underflows from n = 4 on, inside the searched
        # range; the searches compare log|P - G|, so no tie of zeros misleads
        assert math.exp(3 * _fail_constants(total, good)[1]) == 0.0
        tv, max_err, at_n = _tv_stats(UrnParams(total, good))
        ref_tv, ((ref_err, ref_at), (_, second_at)) = _mpmath_scan(total, good)
        assert tv == pytest.approx(ref_tv, rel=1e-12, abs=0)
        assert max_err == pytest.approx(ref_err, rel=1e-12, abs=0)
        # n = 2 and 3 tie to first order at p near 1
        assert {ref_at, second_at} == {2, 3} and at_n in (2, 3)

    @pytest.mark.parametrize("total", [*range(2, 40), 1000])
    def test_uniform_urn_argmax_is_the_last_draw(self, total):
        # at K = 1, |P - G| = (1 - q^(n-1))/N rises over the whole support,
        # and at_n is its closed form N, the full scan's first argmax
        tv, max_err, at_n = _tv_stats(UrnParams(total, 1))
        ref_tv, ((ref_err, ref_at), _) = _full_scan(total, 1)
        assert at_n == ref_at == total
        assert tv == pytest.approx(ref_tv, rel=1e-12, abs=0)
        assert max_err == pytest.approx(ref_err, rel=1e-12, abs=0)

    @pytest.mark.parametrize("total", [10**15, 2**510], ids=["10^15", "2^510"])
    def test_uniform_urn_at_a_flat_top(self, total):
        # neighbouring |P - G| differ by ~0.58/N relative, below rounding
        assert _tv_stats(UrnParams(total, 1))[2] == total

    @pytest.mark.parametrize(
        "total, good",
        [(10**6, 100), (10**12, 10**6), (10**17, 10**6), (10**18, 10**5), (10**15, 3),
         (2**510, 3), (2**510, 700), (10**18, 5 * 10**17), (10**6, 10**6 - 4)],
        ids=["1e6-100", "1e12-1e6", "1e17-1e6", "1e18-1e5", "1e15-3", "2^510-3",
             "2^510-700", "1e18-5e17", "1e6-bad-4"],
    )
    def test_work_grows_with_log_total_not_with_1_over_p(self, monkeypatch, total, good):
        real, calls = convergence._gap, []

        def counting(total, good, log_q, j):
            calls.append(j)
            return real(total, good, log_q, j)

        monkeypatch.setattr(convergence, "_gap", counting)
        _tv_stats(UrnParams(total, good))
        assert 0 < len(calls) <= 10 * total.bit_length()
        # past B/2 gap is a sum of min(j, K) logs: the searches go there only
        # where that is short
        assert max((min(j, good) for j in calls if 2 * j > total - good), default=0) <= 700

    def test_tiny_p_reported_within_1s(self):
        start = time.perf_counter()
        records = convergence_table(Fraction(1, 10**11), [10**11, 10**17])
        assert time.perf_counter() - start < 1.0
        assert [(r.good, r.at_n) for r in records[:1]] == [(1, 10**11)]
        assert records[1].good == 10**6

    def test_large_p_at_any_total(self):
        # the crossing bracket ends at 2 + 4B/K = 6, and every point past
        # J = 1 + ln(2(N-1))/ln 2 is below P(2) - G(2)
        records = convergence_table(Fraction(1, 2), [10**18])
        assert records[0].at_n == 2
        assert records[0].max_pointwise_error == pytest.approx(0.25 / (10**18 - 1), rel=1e-15)
