"""The numpy log-fail block kernel against the scalar float layer."""

import hashlib
import itertools
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from urndist import UrnParams, cdf_float, convergence_table, log_fail, pmf_float
from urndist._kernels import pmf_float_range
from urndist.floats import LOG_FAIL_BLOCK, _log_fail, _stirlerr, cdf_blocks, log_fail_block

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


# urns for the workspace tests: small, one block past the first, huge and
# past 2^53
WORKSPACE_URNS = ((2000, 33), (70000, 3), (10**12, 10**6), (2**53 + 12345, 3))


def _block_results(total, good, between=lambda: None):
    """Every block-kernel output at the first block, across the first block
    boundary and at the m = bad endpoint; ``between`` runs between the
    steps of ``cdf_blocks``."""
    bad = total - good
    size = bad + 1
    block = LOG_FAIL_BLOCK
    cross = min(block - 40, bad - 80)  # 80 points over the first boundary
    results = {
        "lf first": log_fail_block(total, good, 1, min(block, bad)),
        "lf cross": log_fail_block(total, good, cross, 80),
        "lf end": log_fail_block(total, good, bad - min(block, bad) + 1, min(block, bad)),
        "lf two blocks": log_fail_block(total, good, 2, min(block + 100, bad - 1)),
        "pmf first": pmf_float_range(total, good, 1, min(block, size)),
        "pmf cross": pmf_float_range(total, good, cross, min(block + 100, size - cross + 1)),
        "pmf end": pmf_float_range(total, good, size - 99, 100),
    }
    blocks = []
    for n0, cdf in itertools.islice(cdf_blocks(UrnParams(total, good)), 3):
        blocks.append(cdf)
        between()
    results["cdf"] = np.concatenate(blocks)
    return results


def _in_fresh_thread(fn, *args):
    # a new thread starts with a new workspace
    box = []
    thread = threading.Thread(target=lambda: box.append(fn(*args)))
    thread.start()
    thread.join()
    return box[0]


def test_workspace_carries_no_state_between_calls():
    first = {urn: _in_fresh_thread(_block_results, *urn) for urn in WORKSPACE_URNS}
    for urn in WORKSPACE_URNS:
        others = [other for other in WORKSPACE_URNS if other != urn]
        for other in others:  # dirty the workspace with the other urns
            _block_results(*other)
        # and between the steps of the generator
        def between():
            for total, good in others:
                pmf_float_range(total, good, 2, 1000)
        again = _block_results(*urn, between=between)
        assert first[urn].keys() == again.keys()
        for name, values in first[urn].items():
            assert np.array_equal(values.view(np.int64), again[name].view(np.int64)), (
                urn, name)


def test_returned_and_yielded_arrays_are_fresh():
    total, good = 70000, 3  # three cdf blocks
    blocks = [cdf for _, cdf in cdf_blocks(UrnParams(total, good))]
    pmf = [pmf_float_range(total, good, n0, 100) for n0 in (1, 2)]
    lf = [log_fail_block(total, good, m0, 100) for m0 in (1, 2)]
    assert len(blocks) == 3
    for x, y in itertools.combinations(blocks + pmf + lf, 2):
        assert not np.shares_memory(x, y)
    # the first block is not overwritten by the later ones
    assert np.array_equal(blocks[0], _block_results(total, good)["cdf"][:LOG_FAIL_BLOCK])


def test_threads_get_their_own_workspace():
    # more threads than cores, switching every microsecond: a shared
    # workspace would mix one urn's blocks into another's results
    urns = WORKSPACE_URNS[:2] * 3
    want = {urn: _block_results(*urn) for urn in set(urns)}
    mismatches, finished = [], []

    def work(urn):
        for _ in range(3):
            got = _block_results(*urn)
            if any(not np.array_equal(got[k], want[urn][k]) for k in got):
                mismatches.append(urn)
        finished.append(urn)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(urn,)) for urn in urns]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(finished) == len(urns)
    assert not mismatches


# urns for the bit pin: a = bad - m or b = total - m runs across the ends of
# the Stirling table's regimes (15/16 and 500/501) inside one block, totals at
# and past 2^53, and the top of the domain
BITS_URNS = (
    (600, 3),
    (2000, 33),
    (70000, 3),
    (70000, 69000),
    (10**9, 10**6),
    (2**53, 3),
    (2**53 + 12345, 3),
    (2**53 + 12345, 2**52),
    (2**511 - 1, 2**510),
)
BITS_REPORTS = (
    (Fraction(1, 10), (10, 100, 1000, 10**4, 10**5)),
    (Fraction(1, 2), (2, 1000, 2**20)),
    (Fraction(1, 1000), (1000, 10**6)),
    (Fraction(7, 9), (9, 900, 9 * 10**5)),
)
# sha256 of the float layer's bits over these urns and reports
FLOAT_BITS_SHA256 = "8e69f11943c5ad79da68b17adf474ad54457c7878aa50db19bbccc1fa8bd1d03"


def _float_bits_digest() -> str:
    digest = hashlib.sha256()

    def put(values):
        digest.update(np.asarray(values, dtype=np.float64).view(np.int64).tobytes())

    put([_stirlerr(n) for n in (*range(3000), 10**4, 10**6, 10**9, 2**53, 2**200, 2**510)])
    for total, good in BITS_URNS:
        bad = total - good
        count = min(LOG_FAIL_BLOCK, bad)
        for m0 in (1, bad - count + 1):
            put(log_fail_block(total, good, m0, count))
            put(pmf_float_range(total, good, m0 + 1, count))
        put(pmf_float_range(total, good, 1, min(LOG_FAIL_BLOCK, bad + 1)))
        # blocks that start on either side of a regime end, in a and in b
        for cut in (14, 15, 16, 17, 499, 500, 501, 502):
            for m0 in (bad - cut, total - cut):
                if 1 <= m0 <= bad:
                    put(log_fail_block(total, good, m0, min(600, bad - m0 + 1)))
        ms = sorted({*range(1, min(bad, 700) + 1), *range(max(1, bad - 700), bad + 1)})
        put([_log_fail(total, good, m) for m in ms])
        blocks = cdf_blocks(UrnParams(total, good))
        for n0, cdf in blocks if bad < 4 * LOG_FAIL_BLOCK else itertools.islice(blocks, 2):
            digest.update(n0.to_bytes(64, "little"))
            put(cdf)
    for p, totals in BITS_REPORTS:
        for r in convergence_table(p, totals):
            put([r.tv_distance, r.max_pointwise_error])
            digest.update(r.at_n.to_bytes(8, "little"))
    return digest.hexdigest()


def test_float_layer_bits_are_pinned():
    # every value of the float layer, bit for bit: a change of the kernels'
    # order of operations or of a series shows here
    assert _float_bits_digest() == FLOAT_BITS_SHA256
