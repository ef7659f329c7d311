"""Sampler behavior: distributional fidelity, reproducibility, kernel parity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from urndist import (
    ParameterError,
    ResourceGuardError,
    SamplerState,
    UrnParams,
    inverse_cdf,
    mean,
    pmf_table,
    sample_inverse_cdf,
    sample_inverse_cdf_batch,
    sample_urn_walk,
    sample_urn_walk_batch,
    variance,
)
from urndist import _kernels
from urndist.floats import LOG_FAIL_BLOCK, cdf_blocks
from urndist.rng import GOLDEN_GAMMA, MASK64, U53, draw_root, step_uniform


def reference_urn_walk(total: int, good: int, seed: int, draw: int) -> int:
    """Readable scalar re-implementation used as the kernel oracle."""
    root = draw_root(seed, draw)
    step = 1
    while True:
        if step_uniform(root, step - 1) < good / (total - step + 1):
            return step
        step += 1


# Mean reference-walk steps per example of the property test: one example
# takes at most ~0.3 s of scalar walks.
_PROPERTY_STEPS = 2**18


@st.composite
def walk_batches(draw):
    """Arguments of ``urn_walk_batch``: good near 1, near total or a share of
    it; draw0 near 0 or near 2^64; a count of 1 to 2^16 + 3 whose walks take
    about ``_PROPERTY_STEPS`` reference steps at most."""
    kind = draw(st.sampled_from(["few good", "few bad", "share"]))
    if kind == "few good":  # long walks, nearly uniform on 1..total-good+1
        good = draw(st.integers(1, 4))
        total = good + draw(st.integers(0, 4000))
    else:  # a total of 1 to 60 bits
        bits = draw(st.integers(1, 60))
        total = draw(st.integers(2 ** (bits - 1), 2**bits))
    if kind == "few bad":  # p near 1; it rounds to 1 past 2^53
        good = max(1, total - draw(st.integers(0, 64)))
    elif kind == "share":  # p near 1/m: walks of ~m steps, several hits per window
        good = max(1, total // draw(st.integers(2, 300)))
    mean = (total + 1) // (good + 1) + 1
    top = min(2**16 + 3, max(1, _PROPERTY_STEPS // mean))
    count = draw(st.one_of(st.integers(1, top), st.just(top)))
    draw0 = draw(st.integers(0, 2**17))
    if draw(st.booleans()):
        draw0 = MASK64 - draw0
    return total, good, draw(st.integers(0, MASK64)), draw0, count


def _unxorshift(word: int, shift: int) -> int:
    # the z with z ^ (z >> shift) == word
    z = word
    for _ in range(64 // shift):
        z = word ^ (z >> shift)
    return z


def _unpremix(word: int) -> int:
    # inverse of the SplitMix64 finalizer's first two rounds
    z = _unxorshift(word * pow(0x94D049BB133111EB, -1, 1 << 64) & MASK64, 27)
    return _unxorshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & MASK64, 30)


def _seed_with_step1_word(word: int) -> int:
    """A seed whose draw 0 mixes ``word`` at walk step 1: word is
    mix64(root + GOLDEN_GAMMA) and root is mix64(seed + GOLDEN_GAMMA)."""
    root = (_unpremix(_unxorshift(word, 31)) - GOLDEN_GAMMA) & MASK64
    return (_unpremix(_unxorshift(root, 31)) - GOLDEN_GAMMA) & MASK64


class TestUrnWalk:
    def test_all_good_always_first(self):
        state = SamplerState(seed=999)
        assert all(sample_urn_walk(UrnParams(3, 3), state) == 1 for _ in range(50))

    # the kernel walks _kernels._LANE_BLOCK (2^16) lanes at a time, each pass
    # a window of min(256, 2^16 // lanes) steps, at least one: one step while
    # more than 2^15 lanes are in its arrays, 256 steps once 256 or fewer are
    @pytest.mark.parametrize(
        "total, good, seed, draw0, count",
        [
            (37, 5, 99, 0, 2**15 + 4321),  # short windows, compaction
            (37, 5, 99, 0, 2**16 + 4321),  # a full block, then 4321 lanes
            (12, 2, 2**63 + 12345, 7, 20000),  # reaches the p = 1 last step
            (5, 5, 3, 11, 50),  # good == total: every draw is 1
            (50, 1, 2**64 - 1, 2**40, 3000),  # good = 1: uniform on 1..50
            (50, 1, 2**64 - 1, 2**40, 9000),  # the same, 7-step windows first
            (2**54 + 3, 2**53, 8, 1, 2000),  # total > 2^53, p near 1/2
            (2**53 + 12345, 2**46, 3, 0, 64),  # total > 2^53, ~128-step walks
            (2**60, 2**60 - 7, 8, 0, 100),  # p rounds to 1 at step 1
            (2**60, 2**60 - 7, 8, 0, 9000),  # the same, more lanes
            (10, 3, 12345, 7, 500),  # many short walks from draw 7
            (10, 3, 12345, 2**64 - 1, 500),  # draw indices wrap mod 2^64
            (10, 3, 12345, 2**64 - 1, 9000),  # the same, more lanes
            (10**4, 40, 7, 0, 1),  # 1 to 64 lanes: 256-step windows
            (10**4, 40, 7, 3, 7),
            (10**4, 40, 7, 11, 64),
            (1000, 700, 5, 0, 64),  # lanes hit at several steps of one window
            (37, 5, 6, 0, 2**16),  # one full block: one step per pass first
            (37, 5, 6, 0, 2**16 + 1),  # a full block, then a 1-lane block
            (10, 3, 12345, 2**64 - 1, 2**16 + 5),  # blocks across the wrap
        ],
    )
    def test_numpy_kernel_matches_reference_walk(
        self, total, good, seed, draw0, count
    ):
        got = _kernels.urn_walk_batch(total, good, seed, draw0, count)
        want = [reference_urn_walk(total, good, seed, draw0 + t) for t in range(count)]
        assert got.tolist() == want

    @pytest.mark.parametrize("compact_every", [1, 2, 10**6])
    def test_compaction_rule_does_not_change_stream(self, monkeypatch, compact_every):
        # 1 keeps finished lanes to the last step; 10**6 compacts on any hit
        want = _kernels.urn_walk_batch(12, 2, 5, 0, 20000)
        monkeypatch.setattr(_kernels, "_COMPACT_EVERY", compact_every)
        assert np.array_equal(_kernels.urn_walk_batch(12, 2, 5, 0, 20000), want)

    # p = 0.7, and p = 1 - 2^-40 > 1 - 2^-31, where every word is a candidate
    @pytest.mark.parametrize("total, good", [(1000, 700), (2**40, 2**40 - 1)])
    def test_prefilter_confirms_words_at_the_threshold(self, total, good):
        # step-1 words whose top 31 bits equal the threshold's, where only the
        # finalizer's last xorshift decides the hit, and words just outside
        thr = _kernels._hit_threshold(good / total)
        top, low = thr >> 33 << 33, (1 << 33) - 1
        lows = np.random.default_rng(good).integers(0, low, 32).tolist()
        words = [top | x for x in [0, low, (thr & low) - 1, thr & low, (thr & low) + 1, *lows]]
        words = [w for w in words + [top - 1, top + low + 1] if 0 <= w <= MASK64]
        # hits that the pre-final word, compared with thr, would miss
        assert any(w < thr < _unxorshift(w, 31) for w in words)
        for word in words:
            seed = _seed_with_step1_word(word)
            assert step_uniform(draw_root(seed, 0), 0) == (word >> 11) * U53
            want = reference_urn_walk(total, good, seed, 0)
            assert (want == 1) == (word < thr), hex(word)
            # draw 0 alone (a 256-step window) and in a full block (one step
            # per pass)
            for count in (1, _kernels._LANE_BLOCK):
                assert _kernels.urn_walk_batch(total, good, seed, 0, count)[0] == want

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(walk_batches())
    def test_kernel_matches_reference_walk_property(self, args):
        total, good, seed, draw0, count = args
        got = _kernels.urn_walk_batch(total, good, seed, draw0, count)
        want = [reference_urn_walk(total, good, seed, draw0 + t) for t in range(count)]
        assert got.tolist() == want

    def test_walk_reaches_the_certain_last_step(self):
        got = _kernels.urn_walk_batch(12, 2, 2**63 + 12345, 7, 20000)
        assert got.max() == 11

    @pytest.mark.parametrize("p", [2.0**-70, 0.3, 1.0 - 2.0**-53])
    def test_hit_threshold_is_exact(self, p):
        thr = _kernels._hit_threshold(p)
        assert 0 < thr < 2**64
        assert ((thr - 1) >> 11) * U53 < p
        assert not (thr >> 11) * U53 < p
        words = np.array([thr - 1, thr], dtype=np.uint64)
        assert (words < np.uint64(thr)).tolist() == [True, False]

    def test_two_outcomes_balanced(self):
        state = SamplerState(seed=2718)
        values = sample_urn_walk_batch(UrnParams(2, 1), state, 20000)
        freq_one = np.mean(values == 1)
        # 4-sigma band around 1/2 at 20000 trials
        assert abs(freq_one - 0.5) < 4 * math.sqrt(0.25 / 20000)

    def test_empirical_mean_in_band(self):
        params = UrnParams(10, 3)
        state = SamplerState(seed=31415)
        values = sample_urn_walk_batch(params, state, 10**6)
        band = 4 * math.sqrt(float(variance(params)) / 10**6)
        assert abs(values.mean() - float(mean(params))) < band

    def test_range(self):
        for total, good in ((10, 3), (7, 1), (9, 9), (50, 2)):
            state = SamplerState(seed=5)
            values = sample_urn_walk_batch(UrnParams(total, good), state, 5000)
            assert values.min() >= 1
            assert values.max() <= total - good + 1


class TestInverseCdf:
    def test_quantile_examples(self):
        # uniform on 1..4: cdf steps 0.25 / 0.5 / 0.75 / 1.0
        assert inverse_cdf(UrnParams(4, 1), 0.6) == 3
        assert inverse_cdf(UrnParams(10, 3), 0.0) == 1
        assert inverse_cdf(UrnParams(5, 5), 0.999) == 1

    def test_quantile_u_domain(self):
        with pytest.raises(ParameterError):
            inverse_cdf(UrnParams(4, 1), 1.0)
        with pytest.raises(ParameterError):
            inverse_cdf(UrnParams(4, 1), -0.1)

    def test_degenerate_always_one(self):
        state = SamplerState(seed=8)
        assert all(
            sample_inverse_cdf(UrnParams(5, 5), state) == 1 for _ in range(20)
        )

    def test_scalar_equals_batch(self):
        params = UrnParams(10, 3)
        scalar_state = SamplerState(seed=77)
        batch_state = SamplerState(seed=77)
        scalar = [sample_inverse_cdf(params, scalar_state) for _ in range(200)]
        batch = sample_inverse_cdf_batch(params, batch_state, 200)
        assert scalar == batch.tolist()

    def test_mass_split_matches_pmf(self):
        # each support point receives exactly the mass between cdf steps;
        # check by pushing a fine deterministic grid of u through the map
        params = UrnParams(6, 2)
        table = pmf_table(params)
        grid = 20000
        hits = np.bincount(
            [inverse_cdf(params, u / grid) for u in range(grid)],
            minlength=params.support_size + 1,
        )[1:]
        for n, p in enumerate(table.probabilities, start=1):
            assert abs(hits[n - 1] / grid - float(p)) <= 2 / grid

    def test_quantile_agrees_with_table_lookup(self):
        # support of ~33k points spans two cdf blocks
        params = UrnParams(LOG_FAIL_BLOCK + 400, 3)
        table = np.concatenate([block for _, block in cdf_blocks(params)])
        assert params.support_size > LOG_FAIL_BLOCK
        assert table[-1] == 1.0 and np.all(np.diff(table) >= 0.0)
        rng = np.random.default_rng(11)
        near_end = table[table < 1.0][-200:]
        on_entries = rng.choice(table[:-1], 300)
        grid = np.r_[np.linspace(0.0, 1.0, 1501)[:-1], near_end, on_entries]
        looked_up = np.searchsorted(table, grid, side="right") + 1
        assert [inverse_cdf(params, float(u)) for u in grid] == looked_up.tolist()

    # the block-by-block placement against one search of the whole cdf: two
    # blocks, the second with little mass, and four of nearly equal mass
    @pytest.mark.parametrize(
        "total, good", [(LOG_FAIL_BLOCK + 400, 3), (4 * LOG_FAIL_BLOCK - 100, 1)]
    )
    def test_batch_draws_equal_whole_table_search(self, total, good):
        params = UrnParams(total, good)
        table = np.concatenate([block for _, block in cdf_blocks(params)])
        want = np.searchsorted(table, _kernels.uniform_block(3, 0, 4000), side="right") + 1
        got = sample_inverse_cdf_batch(params, SamplerState(seed=3), 4000)
        assert np.array_equal(got, want)

    def test_range(self):
        for total, good in ((10, 3), (7, 1), (9, 9)):
            state = SamplerState(seed=6)
            values = sample_inverse_cdf_batch(UrnParams(total, good), state, 3000)
            assert values.min() >= 1
            assert values.max() <= total - good + 1


class TestReproducibility:
    def test_same_seed_same_stream(self):
        params = UrnParams(10, 3)
        a = sample_urn_walk_batch(params, SamplerState(seed=42), 1000)
        b = sample_urn_walk_batch(params, SamplerState(seed=42), 1000)
        assert np.array_equal(a, b)

    def test_batch_sizing_does_not_change_stream(self):
        params = UrnParams(10, 3)
        one = sample_urn_walk_batch(params, SamplerState(seed=4), 1000)
        state = SamplerState(seed=4)
        two = np.concatenate(
            [sample_urn_walk_batch(params, state, 400),
             sample_urn_walk_batch(params, state, 600)]
        )
        assert np.array_equal(one, two)

    def test_different_seeds_differ(self):
        params = UrnParams(10, 3)
        a = sample_urn_walk_batch(params, SamplerState(seed=1), 200)
        b = sample_urn_walk_batch(params, SamplerState(seed=2), 200)
        assert not np.array_equal(a, b)

    def test_methods_are_independent_streams(self):
        params = UrnParams(10, 3)
        walk = sample_urn_walk_batch(params, SamplerState(seed=9), 500)
        inv = sample_inverse_cdf_batch(params, SamplerState(seed=9), 500)
        assert not np.array_equal(walk, inv)


class TestGoodnessOfFit:
    @pytest.mark.parametrize(
        "method,seed",
        [(sample_urn_walk_batch, 1001), (sample_inverse_cdf_batch, 1002)],
    )
    def test_chi_square_smoke(self, method, seed):
        params = UrnParams(10, 3)
        trials = 50000
        values = method(params, SamplerState(seed=seed), trials)
        observed = np.bincount(values, minlength=params.support_size + 1)[1:]
        expected = np.array(
            [float(p) * trials for p in pmf_table(params).probabilities]
        )
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 0.001


class TestValidation:
    def test_count_must_be_positive(self):
        state = SamplerState(seed=0)
        with pytest.raises(ParameterError):
            sample_urn_walk_batch(UrnParams(5, 2), state, 0)
        with pytest.raises(ParameterError):
            sample_inverse_cdf_batch(UrnParams(5, 2), state, -3)

    def test_count_past_the_largest_array_refused(self):
        # 2**60 draws of 8 bytes overflow numpy's byte count of one array
        state = SamplerState(seed=0)
        for sample in (sample_urn_walk_batch, sample_inverse_cdf_batch):
            with pytest.raises(ResourceGuardError):
                sample(UrnParams(5, 2), state, 2**60)
        assert state.draw_index == 0  # refused before any index was taken
