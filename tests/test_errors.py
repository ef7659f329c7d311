"""The integer contract: every integer argument goes through require_int."""

import sys
from fractions import Fraction

import numpy as np
import pytest

from urndist import checks, convergence, exact, floats, oracle, sampler
from urndist.errors import ParameterError, brief, require_int
from urndist.exact import UrnParams
from urndist.rng import SamplerState

URN = UrnParams(total=10, good=3)

# (id, argument name, minimum or None, call taking the value under test)
ENTRY_POINTS = [
    ("UrnParams.total", "total", None, lambda v: UrnParams(total=v, good=1)),
    ("UrnParams.good", "good", 1, lambda v: UrnParams(total=5, good=v)),
    ("binomial.n", "n", 0, lambda v: exact.binomial(v, 1)),
    ("binomial.k", "k", None, lambda v: exact.binomial(5, v)),
    ("fail_probability", "draw count", 0, lambda v: exact.fail_probability(URN, v)),
    ("pmf", "draw index", 1, lambda v: exact.pmf(URN, v)),
    ("sum_binom_closed.k", "k", 0, lambda v: exact.sum_binom_closed(v, 5)),
    ("sum_binom_closed.n", "n", 2, lambda v: exact.sum_binom_closed(2, v)),
    ("sum_binom_from_closed.k", "k", 0, lambda v: exact.sum_binom_from_closed(3, v, 5)),
    ("sum_binom_from_closed.x", "x", 2, lambda v: exact.sum_binom_from_closed(v, 2, 5)),
    ("sum_binom_from_closed.n", "n", 3, lambda v: exact.sum_binom_from_closed(3, 2, v)),
    ("sum_j_binom_closed.k", "k", 0, lambda v: exact.sum_j_binom_closed(v, 5)),
    ("sum_j_binom_closed.n", "n", 2, lambda v: exact.sum_j_binom_closed(2, v)),
    ("log_fail", "draw count", 0, lambda v: floats.log_fail(URN, v)),
    ("cdf_float", "draw count", 0, lambda v: floats.cdf_float(URN, v)),
    ("pmf_float", "draw index", 1, lambda v: floats.pmf_float(URN, v)),
    ("sample_urn_walk_batch", "count", 1,
     lambda v: sampler.sample_urn_walk_batch(URN, SamplerState(seed=1), v)),
    ("sample_inverse_cdf_batch", "count", 1,
     lambda v: sampler.sample_inverse_cdf_batch(URN, SamplerState(seed=1), v)),
    ("geometric_pmf", "draw index", 1, lambda v: convergence.geometric_pmf(0.5, v)),
    ("convergence_table", "total", 1,
     lambda v: convergence.convergence_table(Fraction(1, 2), [v])),
    ("mc_estimate", "trials", 1, lambda v: oracle.mc_estimate(URN, v, SamplerState(seed=1))),
    ("run_all", "max total", 1, lambda v: checks.run_all(v)),
]

NON_INTS = [True, 2.0, np.int64(2), "2"]

CASES = [
    pytest.param(name, call, value, id=f"{ident}-{value!r}")
    for ident, name, minimum, call in ENTRY_POINTS
    for value in NON_INTS + ([minimum - 1] if minimum is not None else [])
]


@pytest.mark.parametrize("name, call, value", CASES)
def test_refused_with_the_argument_named(name, call, value):
    with pytest.raises(ParameterError) as info:
        call(value)
    assert str(info.value).startswith(f"{name} must be ")


@pytest.mark.parametrize("ident, name, minimum, call", ENTRY_POINTS,
                         ids=[e[0] for e in ENTRY_POINTS])
def test_smallest_allowed_value_passes_the_contract(ident, name, minimum, call):
    # the total has no floor of its own: total >= good is UrnParams' check;
    # other checks may still refuse the value (no total of 1 fits p = 1/2)
    try:
        call(1 if minimum is None else minimum)
    except ParameterError as exc:
        assert not str(exc).startswith(f"{name} must be ")


def test_total_below_good_names_both():
    with pytest.raises(ParameterError, match="total must be >= good, got total=2 good=3"):
        UrnParams(total=2, good=3)


def test_messages():
    assert require_int("count", 7, 1) == 7
    assert require_int("k", -4) == -4
    with pytest.raises(ParameterError) as info:
        require_int("count", 2.0, 1)
    assert str(info.value) == "count must be an integer, got 2.0"
    with pytest.raises(ParameterError) as info:
        require_int("count", 0, 1)
    assert str(info.value) == "count must be >= 1, got 0"


@pytest.mark.parametrize("digits", [21, 22, 23, 181, 4300, 4301, 30103])
def test_brief_cuts_long_ints_to_their_head_and_digit_count(digits):
    # up to 21 digits an int is shown in full; past that its first 10 digits
    # and its digit count, also past the int-to-str limit, where str raises
    for value in (10 ** (digits - 1), 10**digits - 1, 3 ** int(digits * 2.0959)):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            text = str(value)
        finally:
            sys.set_int_max_str_digits(limit)
        want = text if len(text) <= 21 else f"{text[:10]}...({len(text)} digits)"
        assert brief(value) == want
        assert brief(-value) == "-" + want


def test_brief_cuts_long_texts_to_their_head_and_length():
    assert brief("abc") == "'abc'"
    assert brief("x" * 40) == repr("x" * 40)
    assert brief("1" + "0" * 4300) == "'10000000000000000000'...(4301 chars)"


def test_huge_ints_make_short_messages():
    huge = -(10**4299)
    with pytest.raises(ParameterError) as info:
        require_int("count", huge, 1)
    assert str(info.value) == "count must be >= 1, got -1000000000...(4300 digits)"
    with pytest.raises(ParameterError) as info:
        UrnParams(total=2**600, good=2**601)
    assert str(info.value) == ("total must be >= good, got total=4149515568...(181 digits) "
                               "good=8299031137...(181 digits)")
