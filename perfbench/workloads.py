"""The benchmark's workloads and the checks on their output.

Each workload is one ``urn`` subcommand with fixed parameters.  Its check
reads the command's stdout and returns a list of problems (empty when the
output is right).  The checks never call ``urndist``: they recompute the
law from ``math.comb`` ratios and from the product form of the fail
probability,

    Fail(m) = C(total-m, good) / C(total, good) = prod_{j<good} (1 - m/(total-j)),
    P(X = n) = Fail(n-1) * good / (total-n+1),

so a bug shared by the program and its own formulas still shows.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Relative accuracy the float layer is meant to meet on pmf/cdf values.
FLOAT_RTOL = 1e-10
# Fixed thresholds of the sample checks: |z| of the sample mean, and the
# chi-square statistic in standard deviations of its law above df.
MEAN_Z_MAX = 6.0
CHI2_SIGMAS = 8.0
CHI2_BINS = 32
# Pointwise agreement asked of the converge report, relative to the
# geometric pmf.  The float layer's four-term lgamma difference is off by
# up to ~1e-6 relative at total 1e8, so FLOAT_RTOL cannot be asked here;
# 1e-5 still catches a changed digit in any reported distance.
CONVERGE_RTOL = 1e-5
CONVERGE_POINTS = 8
TABLE_SAMPLED_ROWS = 16


def _lines(out: bytes) -> list[bytes]:
    lines = out.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    return lines


def _cdf_float_exact(total: int, good: int, n: int) -> float:
    """P(X <= n) rounded once from the exact integer ratio."""
    full = math.comb(total, good)
    return (full - math.comb(total - n, good)) / full


def _log_fail(total: int, good: int, m: int) -> float:
    j = np.arange(good, dtype=np.float64)
    return math.fsum(np.log1p(-m / (total - j)))


@dataclass(frozen=True)
class Table:
    """``urn table``: one row per support point, exact and float columns."""

    total: int
    good: int

    @property
    def support(self) -> int:
        return self.total - self.good + 1

    @property
    def items(self) -> int:
        return self.support

    def argv(self, seed: int) -> list[str]:
        return ["table", "--n", str(self.total), "--k", str(self.good)]

    def check(self, out: bytes, seed: int) -> list[str]:
        lines = _lines(out)
        if not lines or lines[0] != b"n,pmf_exact,pmf_float,cdf_exact,cdf_float":
            return ["table: missing or wrong header"]
        rows = [line.split(b",") for line in lines[1:]]
        if len(rows) != self.support:
            return [f"table: {len(rows)} rows, support has {self.support}"]
        if any(len(r) != 5 for r in rows):
            return ["table: a row does not have 5 fields"]
        if [r[0] for r in rows] != [b"%d" % n for n in range(1, self.support + 1)]:
            return ["table: n column is not 1..support"]
        try:
            pf = np.array([float(r[2]) for r in rows])
            cf = np.array([float(r[4]) for r in rows])
        except ValueError as exc:
            return [f"table: unparsable float: {exc}"]
        problems = []
        # Every row: P(n+1)/P(n) = (total-n-good+1)/(total-n).
        n = np.arange(1, self.support, dtype=np.float64)
        want = (self.total - n - self.good + 1) / (self.total - n)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio_err = np.abs(pf[1:] / pf[:-1] / want - 1.0)
        if not (pf > 0).all() or not (ratio_err <= 2 * FLOAT_RTOL + 1e-15).all():
            problems.append("table: pmf_float breaks the ratio recurrence")
        if not ((cf >= 0) & (cf <= 1)).all() or (np.diff(cf) < 0).any() or cf[-1] != 1.0:
            problems.append("table: cdf_float is not a cdf")
        picks = {1, self.support}
        rng = random.Random(seed)
        picks.update(rng.sample(range(1, self.support + 1), min(TABLE_SAMPLED_ROWS, self.support)))
        for n in sorted(picks):
            _, pe, pfl, ce, cfl = rows[n - 1]
            try:
                got_pe = Fraction(pe.decode())
                got_ce = Fraction(ce.decode())
            except ValueError:
                problems.append(f"table: unparsable exact value at n={n}")
                continue
            full = math.comb(self.total, self.good)
            want_pe = Fraction(math.comb(self.total - n, self.good - 1), full)
            want_ce = 1 - Fraction(math.comb(self.total - n, self.good), full)
            if got_pe != want_pe or got_ce != want_ce:
                problems.append(f"table: exact value wrong at n={n}")
            if abs(float(pfl) - float(want_pe)) > FLOAT_RTOL * float(want_pe):
                problems.append(f"table: pmf_float off at n={n}")
            if abs(float(cfl) - float(want_ce)) > FLOAT_RTOL * float(want_ce):
                problems.append(f"table: cdf_float off at n={n}")
        return problems


@dataclass(frozen=True)
class Sample:
    """``urn sample``: ``count`` draws by one of the two methods."""

    total: int
    good: int
    count: int
    method: str

    @property
    def support(self) -> int:
        return self.total - self.good + 1

    @property
    def items(self) -> int:
        return self.count

    def argv(self, seed: int) -> list[str]:
        return [
            "sample", "--n", str(self.total), "--k", str(self.good),
            "--count", str(self.count), "--method", self.method, "--seed", str(seed),
        ]

    def _bins(self) -> tuple[list[int], list[float]]:
        """Right edges of roughly equiprobable bins and their probabilities."""
        edges = []
        for i in range(1, CHI2_BINS):
            lo, hi = 1, self.support  # smallest n with cdf(n) >= i/CHI2_BINS
            while lo < hi:
                mid = (lo + hi) // 2
                if _cdf_float_exact(self.total, self.good, mid) * CHI2_BINS >= i:
                    hi = mid
                else:
                    lo = mid + 1
            edges.append(lo)
        edges = sorted(set(edges) | {self.support})
        probs = np.diff([0.0] + [_cdf_float_exact(self.total, self.good, e) for e in edges])
        # Merge neighbours until each bin expects at least 5 draws.
        merged_edges, merged_probs, acc = [], [], 0.0
        for edge, prob in zip(edges, probs):
            acc += prob
            if acc * self.count >= 5:
                merged_edges.append(edge)
                merged_probs.append(acc)
                acc = 0.0
        if acc:
            merged_edges[-1] = edges[-1]
            merged_probs[-1] += acc
        return merged_edges, merged_probs

    def check(self, out: bytes, seed: int) -> list[str]:
        lines = _lines(out)
        if not lines or lines[0] != b"value":
            return ["sample: missing or wrong header"]
        try:
            x = np.array(list(map(int, lines[1:])), dtype=np.int64)
        except ValueError as exc:
            return [f"sample: unparsable value: {exc}"]
        if x.size != self.count:
            return [f"sample: {x.size} values, asked for {self.count}"]
        if x.min() < 1 or x.max() > self.support:
            return [f"sample: value outside 1..{self.support}"]
        problems = []
        # Hockey stick: E[X] = sum_m Fail(m) = C(total+1, good+1) / C(total, good).
        mu = math.comb(self.total + 1, self.good + 1) / math.comb(self.total, self.good)
        sd = float(x.std())
        if sd > 0 and abs(float(x.mean()) - mu) > MEAN_Z_MAX * sd / math.sqrt(x.size):
            problems.append(f"sample: mean {x.mean():.6g} is far from {mu:.6g}")
        edges, probs = self._bins()
        observed = np.bincount(np.searchsorted(edges, x, side="left"), minlength=len(edges))
        expected = np.asarray(probs) * x.size
        df = len(edges) - 1
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        if df > 0 and chi2 > df + CHI2_SIGMAS * math.sqrt(2 * df):
            problems.append(f"sample: chi-square {chi2:.1f} on {df} df")
        return problems


@dataclass(frozen=True)
class Converge:
    """``urn converge``: distance to the geometric law at fixed p = p_num/p_den."""

    p_num: int
    p_den: int
    totals: tuple[int, ...]

    def _scan_length(self, total: int) -> int:
        # Support points up to where the geometric pmf underflows
        # (q^(n-1) < e^-800), which is where the report stops its scan.
        good = total * self.p_num // self.p_den
        return min(total - good + 1, int(800.0 / -math.log1p(-good / total)) + 3)

    @property
    def items(self) -> int:
        return sum(self._scan_length(t) for t in self.totals)

    def argv(self, seed: int) -> list[str]:
        return [
            "converge", "--p-num", str(self.p_num), "--p-den", str(self.p_den),
            "--ns", ",".join(map(str, self.totals)),
        ]

    def check(self, out: bytes, seed: int) -> list[str]:
        lines = _lines(out)
        if not lines or lines[0] != b"N,K,p,tv_distance,max_pointwise_error,at_n":
            return ["converge: missing or wrong header"]
        if len(lines) - 1 != len(self.totals):
            return [f"converge: {len(lines) - 1} rows for {len(self.totals)} sizes"]
        problems = []
        rng = random.Random(seed)
        for line, total in zip(lines[1:], self.totals):
            try:
                n_s, k_s, p_s, tv_s, err_s, at_s = line.split(b",")
                row_total, good, at_n = int(n_s), int(k_s), int(at_s)
                p, tv, err = float(p_s), float(tv_s), float(err_s)
            except ValueError:
                problems.append(f"converge: unparsable row for N={total}")
                continue
            if (row_total, good) != (total, total * self.p_num // self.p_den) or p != good / total:
                problems.append(f"converge: wrong N, K or p for N={total}")
                continue
            support = total - good + 1
            if not (0 <= tv <= 1 and err >= 0 and 1 <= at_n <= support):
                problems.append(f"converge: value out of range for N={total}")
                continue
            log_q = math.log1p(-p)

            def geom(n: int) -> float:
                return math.exp((n - 1) * log_q) * p

            def point_err(n: int) -> float:
                urn = math.exp(_log_fail(total, good, n - 1)) * good / (total - n + 1)
                return abs(urn - geom(n))

            if abs(point_err(at_n) - err) > CONVERGE_RTOL * geom(at_n):
                problems.append(f"converge: max_pointwise_error wrong for N={total}")
            limit = self._scan_length(total)
            for _ in range(CONVERGE_POINTS):
                n = min(limit, int(math.exp(rng.uniform(0.0, math.log(limit)))))
                if point_err(n) > err + CONVERGE_RTOL * geom(n):
                    problems.append(f"converge: error at n={n} exceeds the max for N={total}")
                # |P(X <= n) - G(n)| is a lower bound on the tv distance.
                cdf_gap = abs(math.exp(_log_fail(total, good, n)) - math.exp(n * log_q))
                if cdf_gap > tv * (1 + CONVERGE_RTOL):
                    problems.append(f"converge: tv_distance below a cdf gap at n={n}, N={total}")
        return problems


# Each operation takes 1-1.5 s on a 2-core Xeon, so a 27 s run holds about
# eighteen cold operations to take the median of.
WORKLOADS = {
    "table": Table(total=50_000, good=10),
    "sample-walk": Sample(total=10_000, good=40, count=250_000, method="urn"),
    "sample-inverse": Sample(total=250_000, good=40, count=250_000, method="inverse"),
    "converge": Converge(p_num=1, p_den=10_000, totals=(10**6, 10**7)),
}

WHY = {
    "table": "exact Fraction tables, scalar floats in the log1p regime and big-rational "
    "formatting; kernels, sampler and rng idle",
    "sample-walk": "6.1e7 urn-walk kernel steps plus integer writes; exact and floats idle",
    "sample-inverse": "cdf table from 250k scalar cdf_float calls in the lgamma regime, "
    "then inverse-cdf kernel; floats and sampler via other callers than table and sample-walk",
    "converge": "9M support points through the vector pmf kernel and convergence, "
    "the only workload on either",
}

# The same commands at sizes that run in well under a second each.
TINY = {
    "table": Table(total=200, good=10),
    "sample-walk": Sample(total=100, good=4, count=2000, method="urn"),
    "sample-inverse": Sample(total=1000, good=4, count=2000, method="inverse"),
    "converge": Converge(p_num=1, p_den=10, totals=(100, 1000)),
}
