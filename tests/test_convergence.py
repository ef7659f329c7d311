"""Convergence diagnostics against brute-force references."""

import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import urndist

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
from urndist.convergence import _tv_stats
from urndist.errors import ResourceGuardError
from urndist.floats import LOG_FAIL_BLOCK


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


def _scanned_points(monkeypatch):
    """Record the points of each block of the scan: it takes one cumulative
    sum of gap terms per block."""
    points = []
    real = np.cumsum

    def counting(a, *args, **kwargs):
        points.append(a.size)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "cumsum", counting)
    return points


def _scan_bound(total, good):
    """J + LOG_FAIL_BLOCK of the convergence module's guard."""
    return 1 + math.log(2 * (total - 1)) / -math.log1p(-good / total) + LOG_FAIL_BLOCK


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

    def test_stop_bounds_the_work(self, monkeypatch):
        points = _scanned_points(monkeypatch)
        for total, good in ((10**6, 100), (10**7, 1000), (10**8, 10**4), (10**12, 10**6)):
            points.clear()
            _tv_stats(UrnParams(total, good))
            assert 0 < sum(points) < _scan_bound(total, good), (total, good)
        # the stop fires at the third and the fourth block start; the
        # mass-based stop that came before needed at least 415,889 points at
        # (10^6, 100), and a scan to the geometric underflow point at
        # (10^7, 1000) would take 7,999,602
        for (total, good), blocks in (((10**6, 100), 2), ((10**7, 1000), 3)):
            points.clear()
            _tv_stats(UrnParams(total, good))
            assert points == [LOG_FAIL_BLOCK] * blocks

    def test_short_support_is_scanned_to_its_end(self, monkeypatch):
        points = _scanned_points(monkeypatch)
        # P - G > 0 on the whole support when good = 1: no crossing to stop at
        _tv_stats(UrnParams(1000000, 1))
        assert sum(points) == 1000000 - 1


class TestScanGuard:
    def test_tiny_p_refused_before_the_scan(self, monkeypatch):
        def no_scan(params):
            raise AssertionError("scanned")

        monkeypatch.setattr(convergence, "_tv_stats", no_scan)
        with pytest.raises(ResourceGuardError):
            convergence_table(Fraction(1, 10**11), [10**17])
        with pytest.raises(ResourceGuardError):  # a later total is refused first
            convergence_table(Fraction(1, 10**11), [10**11, 10**17])
        with pytest.raises(ResourceGuardError):
            tv_distance(UrnParams(10**17, 10**6))

    def test_guard_follows_the_stop_rule_bound(self):
        limit = convergence._SCAN_POINTS_LIMIT
        good = 10**6
        # neighbouring totals whose bounds lie 12 and 19 points either side of it
        for total, refused in ((good * 6618361, True), (good * 6618360, False)):
            assert (_scan_bound(total, good) > limit) == refused
            params = UrnParams(total, good)
            if refused:
                with pytest.raises(ResourceGuardError):
                    convergence._require_scan_budget(params)
            else:
                convergence._require_scan_budget(params)
        # a support within the limit is always scanned, however small p is
        convergence._require_scan_budget(UrnParams(limit, 1))
        with pytest.raises(ResourceGuardError):
            convergence._require_scan_budget(UrnParams(limit + 1, 1))
        # the bound holds only up to N/2: past it the support counts
        assert _scan_bound(3 * 10**8, 35) < limit < 2 * _scan_bound(3 * 10**8, 35)
        with pytest.raises(ResourceGuardError):
            convergence._require_scan_budget(UrnParams(3 * 10**8, 35))
        convergence._require_scan_budget(UrnParams(3 * 10**8, 50))

    def test_large_p_scans_one_block_at_any_total(self, monkeypatch):
        points = _scanned_points(monkeypatch)
        records = convergence_table(Fraction(1, 2), [10**18])
        assert points == [LOG_FAIL_BLOCK]
        assert records[0].at_n == 2


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


def _mpmath_values(total, good, m_star, ns):
    """tv = q^m* - Fail(m*) and |P(n) - G(n)| at each n, at 100 digits."""
    with mpmath.workdps(100):
        bad = mpmath.mpf(total - good)

        def log_fail(m):  # log C(total - m, good) / C(total, good)
            return (mpmath.loggamma(total - m + 1) + mpmath.loggamma(bad + 1)
                    - mpmath.loggamma(bad - m + 1) - mpmath.loggamma(total + 1))

        q = bad / total
        tv = q**m_star - mpmath.exp(log_fail(m_star))
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


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt is Linux's")
def test_block_scan_does_not_fault_per_block():
    # Minor page faults of the benchmark's convergence scan in a fresh
    # process: 29,520 when every block temporary was a new 256 KiB mapping,
    # about 860 with the per-thread workspace (glibc malloc, x86-64 Linux).
    code = textwrap.dedent(
        """
        import resource
        from fractions import Fraction
        from urndist import convergence_table
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        convergence_table(Fraction(1, 10000), [10**6, 10**7])
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
    )
    root = os.path.dirname(os.path.dirname(urndist.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=root),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert int(out.stdout) < 5000
