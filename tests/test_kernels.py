"""The numpy log-fail block kernel against the scalar float layer."""

import numpy as np
import pytest

from urndist import UrnParams, cdf_float, log_fail, pmf_float
from urndist._kernels import pmf_float_range
from urndist.floats import LOG_FAIL_BLOCK, cdf_blocks, log_fail_block

TOTALS = (2000, 10**9, 10**12, 2**53 + 12345)
GOODS = (1, 5, 7, 32, 33, 10**6)
# measured worst case 8.4e-16 against the scalar form, which is itself a
# few ulps from 60-digit references
RTOL = 2e-15


def _compared(count: int) -> np.ndarray:
    # both ends of the block and seeded points between them
    rng = np.random.default_rng(count)
    ends = np.r_[0:min(count, 1500), max(0, count - 1500):count]
    return np.unique(np.r_[ends, rng.integers(0, count, 500)])


def _first_and_last_block(total: int, good: int):
    bad = total - good
    count = min(LOG_FAIL_BLOCK, bad)
    return (1, count), (bad - count + 1, count)


@pytest.mark.parametrize(
    "total, good", [(t, g) for t in TOTALS for g in GOODS if g < t]
)
def test_log_fail_block_matches_scalar(total, good):
    params = UrnParams(total=total, good=good)
    for m0, count in _first_and_last_block(total, good):
        block = log_fail_block(total, good, m0, count)
        for k in _compared(count):
            want = log_fail(params, m0 + int(k))
            assert block[k] == pytest.approx(want, rel=RTOL, abs=0), (m0, k)


@pytest.mark.parametrize("total", TOTALS)
def test_log_fail_block_ends_at_all_bad_drawn(total):
    # m = bad is the a = 0 branch; it ends the support's last block
    good = 33
    params = UrnParams(total=total, good=good)
    bad = total - good
    assert log_fail_block(total, good, bad - 9, 10)[-1] == log_fail(params, bad)
    assert log_fail_block(total, good, bad, 1)[0] == log_fail(params, bad)


def test_pmf_range_at_first_draw_is_good_over_total():
    for total, good in ((2000, 5), (10**9, 33), (2**53 + 12345, 10**6)):
        assert pmf_float_range(total, good, 1, 4)[0] == good / total


@pytest.mark.parametrize("total, good", [(10**9, 33), (2000, 1), (10**6, 1000)])
def test_pmf_range_across_a_block_boundary(total, good):
    # (2000, 1) ends at the last support point instead
    start = 12345 if total > 10**5 else 17
    count = min(LOG_FAIL_BLOCK + 500, total - good + 2 - start)
    params = UrnParams(total=total, good=good)
    got = pmf_float_range(total, good, start, count)
    for k in _compared(count):
        want = pmf_float(params, start + int(k))
        # exp turns the log's absolute error into relative error
        assert got[k] == pytest.approx(want, rel=1e-13, abs=0), k


def test_pmf_range_within_1e_12_at_the_converge_urn():
    total, good = 10**7, 1000
    params = UrnParams(total=total, good=good)
    rng = np.random.default_rng(2024)
    for n in rng.integers(2, 4 * 10**6, 200):  # pmf stays a normal double
        got = pmf_float_range(total, good, int(n), 3)
        for k in range(3):
            want = pmf_float(params, int(n) + k)
            assert abs(got[k] - want) <= 1e-12 * want, int(n) + k


@pytest.mark.parametrize("total, good", [(2000, 33), (2000, 1), (100000, 3)])
def test_cdf_table_matches_cdf_float(total, good):
    params = UrnParams(total=total, good=good)
    table = np.concatenate([block for _, block in cdf_blocks(params)])
    assert table.size == params.support_size
    want = np.array([cdf_float(params, n) for n in range(1, table.size + 1)])
    np.testing.assert_allclose(table, want, rtol=RTOL, atol=0)
    assert table[-1] == 1.0
