"""Counter-based pseudo-random numbers built on the SplitMix64 mixer.

SplitMix64 (Steele, Lea & Flood's SplittableRandom finalizer, as published
in Vigna's reference C code) walks a Weyl sequence with increment
0x9E3779B97F4A7C15 and scrambles each state with a 64->64 bit finalizer.
Because the state walk is a plain addition, the i-th output is a pure
function of (seed, i): ``mix64(seed + (i+1) * GOLDEN_GAMMA)``.  We exploit
that to index uniforms by a pair of counters,

    u(draw, step) = mix64(root(seed, draw) + (step+1) * GOLDEN_GAMMA),
    root(seed, draw) = mix64(seed + (draw+1) * GOLDEN_GAMMA),

i.e. every draw owns a substream seeded by one output of the master
stream.  Any evaluation order - a scalar loop here or the vectorized
numpy kernels of :mod:`urndist._kernels` - produces bit-identical
uniforms, which is what makes the sample streams independent of batch
sizes and reproducible across platforms.

Uniforms take the top 53 bits of the mixed word, giving doubles in [0, 1):
u = (word >> 11) * 2^-53, with no rounding.  Since p * 2^53 is exact too, a
test u < p with p < 1 is the integer test word < ceil(p * 2^53) << 11; the
urn-walk kernel compares raw words this way, and finished draws' words are
still computed until the kernel compacts its arrays, which moves no draw
onto another substream.
"""

from __future__ import annotations

from ._record import Record

__all__ = ["SamplerState", "mix64", "draw_root", "step_uniform", "splitmix64_next"]

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_MUL_1 = 0xBF58476D1CE4E5B9
_MIX_MUL_2 = 0x94D049BB133111EB
# Salt applied before deriving child seeds so spawned streams never collide
# with the parent's per-draw substreams.
_SPAWN_SALT = 0x3C79AC492BA7B653

#: 2**-53, scale factor turning the top 53 bits of a word into [0, 1).
U53 = 1.0 / (1 << 53)


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective scramble of a 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX_MUL_1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_MUL_2) & MASK64
    return z ^ (z >> 31)


def splitmix64_next(state: int) -> tuple[int, int]:
    """One step of the sequential reference generator: (new_state, output)."""
    state = (state + GOLDEN_GAMMA) & MASK64
    return state, mix64(state)


def draw_root(seed: int, draw: int) -> int:
    """Substream root for a given draw index: the draw-th master output."""
    return mix64((seed + ((draw + 1) & MASK64) * GOLDEN_GAMMA) & MASK64)


def step_uniform(root: int, step: int) -> float:
    """Uniform in [0, 1) for one (draw substream, step) pair."""
    word = mix64((root + ((step + 1) & MASK64) * GOLDEN_GAMMA) & MASK64)
    return (word >> 11) * U53


class SamplerState(Record):
    """Seeded generator state owned by exactly one sampler at a time.

    ``draw_index`` counts how many variates have been consumed; samplers
    advance it as they go, so a state must not be shared by concurrent
    workers.  States are cheap to pickle and send elsewhere.  For parallel
    work, :meth:`spawn` derives statistically independent child states
    deterministically from the parent seed.
    """

    __slots__ = ("seed", "draw_index")

    def __init__(self, seed: int, draw_index: int = 0) -> None:
        super().__init__(int(seed) & MASK64, int(draw_index))

    def take(self, count: int) -> int:
        """Reserve ``count`` draw indices, returning the first one."""
        start = self.draw_index
        self.draw_index += count
        return start

    def spawn(self, count: int) -> list["SamplerState"]:
        """Derive ``count`` child states for independent parallel streams.

        Child i's seed is ``mix64((seed ^ SPAWN_SALT) + (i+1) * GOLDEN_GAMMA)``:
        the i-th master output of a salted copy of the parent seed, so
        children are reproducible and disjoint from the parent's own draws.
        """
        salted = self.seed ^ _SPAWN_SALT
        return [SamplerState(seed=draw_root(salted, i)) for i in range(count)]
