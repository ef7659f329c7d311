"""The package's value records: construction, validation, equality, hash,
repr, immutability and pickling, as their dataclass forms had them."""

import copy
import pickle

import pytest

from urndist.checks import FamilyResult
from urndist.convergence import ConvergenceRecord
from urndist.errors import ParameterError
from urndist.exact import PmfTable, UrnParams
from urndist.oracle import EmpiricalPmf
from urndist.rng import SamplerState

_PARAMS = UrnParams(5, 2)


def _frozen_cases():
    """(keyword-built, positional-built, other, repr) of each frozen record."""
    return {
        "UrnParams": (
            UrnParams(total=10, good=3), UrnParams(10, 3), UrnParams(10, 4),
            "UrnParams(total=10, good=3)",
        ),
        "PmfTable": (
            PmfTable(params=_PARAMS, numerators=(4, 3, 2, 1), denominator=10),
            PmfTable(_PARAMS, (4, 3, 2, 1), 10),
            PmfTable(_PARAMS, (4, 3, 2, 1), 20),
            "PmfTable(params=UrnParams(total=5, good=2), numerators=(4, 3, 2, 1), "
            "denominator=10)",
        ),
        "ConvergenceRecord": (
            ConvergenceRecord(total=100, good=10, p=0.1, tv_distance=0.02,
                              max_pointwise_error=0.001, at_n=2),
            ConvergenceRecord(100, 10, 0.1, 0.02, 0.001, 2),
            ConvergenceRecord(100, 10, 0.1, 0.02, 0.001, 3),
            "ConvergenceRecord(total=100, good=10, p=0.1, tv_distance=0.02, "
            "max_pointwise_error=0.001, at_n=2)",
        ),
        "EmpiricalPmf": (
            EmpiricalPmf(params=_PARAMS, counts=(3, 1, 0, 0), trials=4),
            EmpiricalPmf(_PARAMS, (3, 1, 0, 0), 4),
            EmpiricalPmf(_PARAMS, (2, 2, 0, 0), 4),
            "EmpiricalPmf(params=UrnParams(total=5, good=2), counts=(3, 1, 0, 0), trials=4)",
        ),
    }


_FROZEN = _frozen_cases()


@pytest.mark.parametrize("name", list(_FROZEN))
class TestFrozenRecords:
    def test_keyword_and_positional_construction_agree(self, name):
        by_keyword, by_position, other, _ = _FROZEN[name]
        assert by_keyword == by_position
        assert hash(by_keyword) == hash(by_position)
        assert by_keyword != other
        assert len({by_keyword, by_position, other}) == 2

    def test_not_equal_to_a_tuple_of_its_fields(self, name):
        record = _FROZEN[name][0]
        fields = tuple(getattr(record, field) for field in record.__slots__)
        assert record != fields

    def test_repr(self, name):
        record, _, _, text = _FROZEN[name]
        assert repr(record) == text

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        record = _FROZEN[name][0]
        field = record.__slots__[0]
        before = getattr(record, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1  # no field of that name, and no __dict__
        assert getattr(record, field) is before

    def test_pickle_and_copy_round_trip(self, name):
        record = _FROZEN[name][0]
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                      copy.deepcopy(record)):
            assert type(clone) is type(record)
            assert clone == record and hash(clone) == hash(record)


class TestUrnParamsValidation:
    @pytest.mark.parametrize("kwargs, message", [
        (dict(total=3, good=4), "total must be >= good, got total=3 good=4"),
        (dict(total=10, good=0), "good must be >= 1, got 0"),
        (dict(total=10.0, good=3), "total must be an integer, got 10.0"),
        (dict(total=10, good=True), "good must be an integer, got True"),
        (dict(total="10", good=3), "total must be an integer, got '10'"),
    ])
    def test_parameter_error_texts(self, kwargs, message):
        with pytest.raises(ParameterError) as info:
            UrnParams(**kwargs)
        assert str(info.value) == message
        with pytest.raises(ParameterError) as info:
            UrnParams(kwargs["total"], kwargs["good"])
        assert str(info.value) == message

    def test_unpickling_validates_again(self):
        params = UrnParams(7, 2)
        assert pickle.loads(pickle.dumps(params)).support_size == 6


class TestSamplerState:
    def test_keyword_and_positional_construction(self):
        assert SamplerState(seed=3, draw_index=4) == SamplerState(3, 4)
        assert SamplerState(3) == SamplerState(seed=3, draw_index=0)
        assert SamplerState(3) != SamplerState(3, 1)
        assert SamplerState(3) != (3, 0)

    def test_repr(self):
        assert repr(SamplerState(2**64 + 5, 7)) == "SamplerState(seed=5, draw_index=7)"

    def test_mutable_and_unhashable(self):
        state = SamplerState(9)
        state.draw_index = 12
        state.seed = 1
        assert state == SamplerState(1, 12)
        with pytest.raises(TypeError):
            hash(state)

    def test_pickle_keeps_the_position_of_the_stream(self):
        state = SamplerState(seed=31337)
        state.take(1000)
        clone = pickle.loads(pickle.dumps(state))
        assert clone == state and clone is not state
        assert clone.take(5) == state.take(5) == 1000
        assert copy.deepcopy(state) == state


class TestFamilyResult:
    def test_defaults_and_construction(self):
        result = FamilyResult("moments")
        assert result == FamilyResult(name="moments", cases=0, failures=[])
        assert result.ok
        assert repr(result) == "FamilyResult(name='moments', cases=0, failures=[])"

    def test_defaults_are_not_shared(self):
        a, b = FamilyResult("a"), FamilyResult("b")
        a.failures.append("x")
        a.cases += 1
        assert b.failures == [] and b.ok and b.cases == 0
        assert not a.ok
        with pytest.raises(TypeError):
            hash(a)
