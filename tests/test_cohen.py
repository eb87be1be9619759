"""Partial assignment posets: literals, counts, order, stratification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endowlab.bounds import Limits
from endowlab.cohen import CohenPoset, format_condition, parse_condition
from endowlab.errors import DataError, ResourceError


def test_literal_roundtrip():
    assert parse_condition("") == {}
    assert parse_condition("0:1,2:0") == {0: 1, 2: 0}
    assert format_condition({2: 0, 0: 1}) == "0:1,2:0"
    assert format_condition({}) == ""


def test_literal_rejects_malformed():
    for bad in ("0", "0:2", "0:1,0:0", "a:1", "0:x"):
        with pytest.raises(DataError):
            parse_condition(bad)


def test_condition_counts():
    # sum over support sizes of C(|D|, s) * 2^s = 3^|D|
    assert len(CohenPoset([0]).poset) == 3
    assert len(CohenPoset([0, 1]).poset) == 9
    assert len(CohenPoset([0, 1, 2]).poset) == 27


def test_canonical_order_weakest_first():
    c = CohenPoset([0, 1])
    assert c.poset.elements[0] == ""
    assert c.poset.elements[1:5] == ("0:0", "0:1", "1:0", "1:1")
    assert c.poset.top == ""
    assert c.poset.atoms == ("0:0,1:0", "0:0,1:1", "0:1,1:0", "0:1,1:1")


def test_order_is_reverse_extension():
    c = CohenPoset([0, 1])
    assert c.poset.leq("0:0,1:1", "0:0")
    assert c.poset.leq("0:0", "")
    assert not c.poset.leq("0:0", "0:0,1:1")
    assert not c.poset.leq("0:0", "0:1")


def test_compatibility_is_agreement_on_common_support():
    c = CohenPoset([0, 1])
    assert c.poset.compatible("0:0", "1:1")
    assert not c.poset.compatible("0:0", "0:1")
    assert c.poset.compatible("", "0:1,1:0")


def test_stratification_by_support_size():
    c = CohenPoset([0, 1])
    s = c.stratification()
    assert [len(level) for level in s.levels] == [1, 5, 9]
    assert s.stabilization_index == 2
    assert s.at(0) == frozenset({""})
    assert s.at(1) == frozenset({"", "0:0", "0:1", "1:0", "1:1"})


def test_stabilization_equals_index_count():
    for indices in ([0], [0, 1], [0, 1, 2]):
        c = CohenPoset(indices)
        assert c.stratification().stabilization_index == len(indices)


def test_support_and_assignment_accessors():
    c = CohenPoset([0, 1])
    assert c.support("0:1") == frozenset({0})
    assert c.assignment("0:1,1:0") == {0: 1, 1: 0}
    with pytest.raises(DataError):
        c.support("2:0")


def test_index_set_validation():
    with pytest.raises(DataError):
        CohenPoset([])
    with pytest.raises(ResourceError):
        CohenPoset(range(6))
    assert len(CohenPoset(range(6), Limits(max_indices=6)).poset) == 3 ** 6


def test_mixed_index_types_are_a_data_error():
    # checked before sorting, which would raise a bare TypeError
    with pytest.raises(DataError, match="indices must be integers"):
        CohenPoset([0, "a"])


def test_boolean_index_is_a_data_error():
    # a boolean is not an integer here, as in check_shape
    for indices in ([True], [0, False]):
        with pytest.raises(DataError, match="indices must be integers"):
            CohenPoset(indices)


def test_nonconsecutive_indices_are_fine():
    c = CohenPoset([3, 7])
    assert "3:0,7:1" in c.poset
    assert len(c.poset) == 9


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(0,), (0, 1)]), st.data())
def test_leq_iff_extension(indices, data):
    c = CohenPoset(indices)
    p = data.draw(st.sampled_from(c.poset.elements))
    q = data.draw(st.sampled_from(c.poset.elements))
    pa, qa = c.assignment(p), c.assignment(q)
    extends = all(i in pa and pa[i] == v for i, v in qa.items())
    assert c.poset.leq(p, q) == extends
