"""Value-record tests.

Covers the contract shared by ``CountTable``, ``TollSpec`` and
``CheckResult``, each a plain ``tuple`` subclass: positional and keyword
construction (with ``TollSpec``'s default ``total``), equality, hashing and
unpacking as the plain tuple, read-only fields and no instance
``__dict__``, the pinned reprs, and pickle, ``copy`` and ``deepcopy``
round trips.
"""
from __future__ import annotations

import copy
import pickle

import pytest

from deptrees import CheckResult, CountTable, TollSpec

# (record, field names, field values, repr); the TollSpec functions are
# builtins so that the record pickles and its repr is stable
CASES = [
    (CountTable, ("t", "s"), ((0, 1), (1, 1)), "CountTable(t=(0, 1), s=(1, 1))"),
    (
        TollSpec,
        ("name", "evaluate", "total"),
        ("x", len, abs),
        "TollSpec(name='x', evaluate=<built-in function len>, total=<built-in function abs>)",
    ),
    (
        CheckResult,
        ("name", "passed", "detail"),
        ("count-agreement", True, "detail"),
        "CheckResult(name='count-agreement', passed=True, detail='detail')",
    ),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.fixture(params=CASES, ids=IDS)
def case(request):
    return request.param


class TestRecords:
    def test_positional_and_keyword_construction(self, case):
        cls, fields, values, _ = case
        record = cls(*values)
        assert record == cls(**dict(zip(fields, values)))
        assert tuple(getattr(record, f) for f in fields) == values

    def test_toll_spec_defaults(self):
        assert tuple(TollSpec("x", len)) == ("x", len, None)
        assert TollSpec(name="x", evaluate=len).total is None
        assert TollSpec._fields == ("name", "evaluate", "total")

    def test_wrong_arity_is_refused(self, case):
        cls, _, values, _ = case
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls()

    def test_is_the_plain_tuple(self, case):
        cls, fields, values, _ = case
        record = cls(*values)
        assert isinstance(record, tuple)
        assert record == values and values == record
        assert hash(record) == hash(values)
        assert len(record) == len(fields)
        *head, last = record
        assert (*head, last) == values

    def test_fields_are_read_only(self, case):
        cls, fields, values, _ = case
        record = cls(*values)
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = None
        assert not hasattr(record, "__dict__")

    def test_repr_is_pinned(self, case):
        cls, _, values, expected = case
        assert repr(cls(*values)) == expected

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, case, protocol):
        cls, _, values, _ = case
        record = cls(*values)
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is cls and back == record

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy])
    def test_copy_round_trip(self, case, clone):
        cls, fields, values, _ = case
        record = cls(*values)
        back = clone(record)
        assert type(back) is cls and back == record
        assert tuple(getattr(back, f) for f in fields) == values
