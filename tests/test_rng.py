"""Generator correctness: reference vectors, counter identity, kernel parity."""

import numpy as np

from urndist import _kernels
from urndist.rng import (
    GOLDEN_GAMMA,
    MASK64,
    SamplerState,
    draw_root,
    mix64,
    splitmix64_next,
    step_uniform,
)

# First five outputs of the reference SplitMix64 generator seeded with 0,
# as published with Vigna's C implementation.
SEED0_OUTPUTS = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


class TestSplitMix64:
    def test_reference_vectors_seed0(self):
        state = 0
        outputs = []
        for _ in range(5):
            state, word = splitmix64_next(state)
            outputs.append(word)
        assert outputs == SEED0_OUTPUTS

    def test_counter_form_equals_sequential_form(self):
        for seed in (0, 1, 2**64 - 1, 0xDEADBEEF):
            state = seed
            for i in range(20):
                state, word = splitmix64_next(state)
                assert word == mix64((seed + (i + 1) * GOLDEN_GAMMA) & MASK64)

    def test_mix64_matches_numpy_vectorized(self):
        rng = np.random.default_rng(7)
        words = rng.integers(0, 2**64, size=1000, dtype=np.uint64)
        vectorized = _kernels._mix64_np(words.copy())
        scalar = [mix64(int(w)) for w in words]
        assert vectorized.tolist() == scalar


class TestUniforms:
    def test_range_and_granularity(self):
        values = [step_uniform(draw_root(123, d), 0) for d in range(5000)]
        assert all(0.0 <= v < 1.0 for v in values)
        # 53-bit uniforms are integer multiples of 2**-53
        assert all((v * (1 << 53)) == int(v * (1 << 53)) for v in values[:100])

    def test_uniform_block_matches_scalar(self):
        # 2^64 - 1: the block's draw indices wrap mod 2^64, as draw_root's do
        for draw0 in (17, 2**64 - 1):
            block = _kernels.uniform_block(99, draw0, 64)
            scalar = [step_uniform(draw_root(99, draw0 + t), 0) for t in range(64)]
            assert block.tolist() == scalar, draw0

    def test_rough_uniformity(self):
        values = [step_uniform(draw_root(2024, d), 0) for d in range(20000)]
        assert abs(sum(values) / len(values) - 0.5) < 0.01


class TestSamplerState:
    def test_seed_masked_to_64_bits(self):
        assert SamplerState(seed=2**64 + 5).seed == 5
        assert SamplerState(seed=-1).seed == MASK64

    def test_take_reserves_ranges(self):
        state = SamplerState(seed=1)
        assert state.take(10) == 0
        assert state.take(5) == 10
        assert state.draw_index == 15

    def test_spawn_is_deterministic_and_distinct(self):
        children_a = SamplerState(seed=31337).spawn(8)
        children_b = SamplerState(seed=31337).spawn(8)
        assert [c.seed for c in children_a] == [c.seed for c in children_b]
        seeds = {c.seed for c in children_a}
        assert len(seeds) == 8
        assert 31337 not in seeds
        assert all(c.draw_index == 0 for c in children_a)

    def test_spawned_streams_differ_from_parent(self):
        parent = SamplerState(seed=5)
        child = parent.spawn(1)[0]
        parent_u = [step_uniform(draw_root(parent.seed, d), 0) for d in range(16)]
        child_u = [step_uniform(draw_root(child.seed, d), 0) for d in range(16)]
        assert parent_u != child_u
