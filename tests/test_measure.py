"""Measure algebras: cells, exact measures, stratification, endowment
membership and extraction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endowlab.errors import DataError, ResourceError
from endowlab.measure import (
    MeasurePoset,
    extract_measure_endowment,
    format_cell,
    measure_endowment_member,
    parse_cell,
)


def test_cell_literal_roundtrip():
    assert parse_cell("00,01", 2) == frozenset({"00", "01"})
    assert format_cell({"01", "00"}) == "00,01"
    for bad, k in (("", 1), ("0,0", 1), ("02", 2), ("0", 2)):
        with pytest.raises(DataError):
            parse_cell(bad, k)


def test_condition_counts():
    # nonempty subsets of the 2^k cube
    assert len(MeasurePoset(1).poset) == 3
    assert len(MeasurePoset(2).poset) == 15
    assert len(MeasurePoset(3).poset) == 255


def test_canonical_order_weakest_first():
    m = MeasurePoset(1)
    assert m.poset.elements == ("0,1", "0", "1")
    assert m.poset.down_mask["0,1"] == (1 << len(m.poset)) - 1  # the whole cube is the top
    assert m.poset.atoms == ("0", "1")


def test_order_is_inclusion():
    m = MeasurePoset(2)
    assert "00" in m.poset.down("00,01")
    assert "00,01" not in m.poset.down("00")
    assert "00" not in m.poset.down("01,10")


def test_compatibility_is_intersection():
    m = MeasurePoset(2)
    assert m.poset.compatible("00,01", "01,10")
    assert not m.poset.compatible("00", "01,10")


def cell_measure(algebra: MeasurePoset, literal: str) -> Fraction:
    """The exact measure of a cell: its size over 2^k."""
    return Fraction(len(algebra.cell(literal)), 2 ** algebra.k)


def test_exact_measures():
    m = MeasurePoset(2)
    assert cell_measure(m, "00") == Fraction(1, 4)
    assert cell_measure(m, "00,01,10") == Fraction(3, 4)
    assert cell_measure(m, "00,01,10,11") == 1


def test_stratification_by_measure():
    m = MeasurePoset(2)
    s = m.stratification()
    # cells of measure >= 1/2 means size >= 2: C(4,2)+C(4,3)+C(4,4)
    assert [len(level) for level in s.ordered] == [1, 11, 15]
    assert s.stabilization_index == 2
    assert MeasurePoset(1).stratification().stabilization_index == 1
    assert MeasurePoset(3).stratification().stabilization_index == 3


def test_k_bound():
    with pytest.raises(ResourceError):
        MeasurePoset(4)
    with pytest.raises(DataError):
        MeasurePoset(-1)


def test_boolean_exponent_is_a_data_error():
    # a boolean is not an integer here, as in check_shape
    for k in (True, False):
        with pytest.raises(DataError, match="k must be a nonnegative integer"):
            MeasurePoset(k)


def test_maximal_antichains_are_partitions():
    m = MeasurePoset(2)
    for antichain in m.poset.maximal_antichains():
        cells = [m.cell(p) for p in antichain]
        assert sum(len(c) for c in cells) == len(frozenset().union(*cells))
        assert frozenset().union(*cells) == frozenset(m.points)
    # partitions of a 4 element set
    assert len(m.poset.maximal_antichains()) == 15
    assert len(MeasurePoset(1).poset.maximal_antichains()) == 2


def test_membership_strict_total_measure_bound():
    m = MeasurePoset(1)
    # one half has total exactly 1/2: fails the strict bound at level 1
    assert not measure_endowment_member(m, 1, ["0"])
    assert measure_endowment_member(m, 1, ["0", "1"])
    assert not measure_endowment_member(m, 0, [])  # total 0 is not > 0
    assert measure_endowment_member(m, 0, ["0"])  # 1/2 > 0


def test_membership_rejects_non_antichains():
    # overlapping cells of total size 4 would pass the measure bound, but a
    # set that is not an antichain is not a member: the test answers False,
    # as the Cohen family's does, so the weak verifier reports the extraction
    m = MeasurePoset(2)
    assert not measure_endowment_member(m, 1, ["00,01", "01,10"])


def test_extraction_takes_largest_cells_first():
    m = MeasurePoset(2)
    # partition into singletons: level 1 needs strictly more than 1/2
    out = extract_measure_endowment(m, 1, ["00", "01", "10", "11"])
    assert out == frozenset({"00", "01", "10"})
    # a coarser partition: the half cell alone reaches 1/2 but not strictly
    out = extract_measure_endowment(m, 1, ["00,01", "10", "11"])
    assert out == frozenset({"00,01", "10"})
    m1 = MeasurePoset(1)
    assert extract_measure_endowment(m1, 1, ["0", "1"]) == frozenset({"0", "1"})
    assert extract_measure_endowment(m1, 0, ["0", "1"]) == frozenset({"0"})


def test_extraction_requires_maximal_antichain():
    m = MeasurePoset(2)
    with pytest.raises(DataError):
        extract_measure_endowment(m, 1, ["00", "01"])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2), st.data())
def test_extraction_output_is_member(n, data):
    m = MeasurePoset(2)
    antichain = data.draw(st.sampled_from(m.poset.maximal_antichains()))
    out = extract_measure_endowment(m, n, antichain)
    assert out <= frozenset(antichain)
    assert measure_endowment_member(m, n, out)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2), st.data())
def test_members_meet_every_heavy_condition(n, data):
    # the pigeonhole consequence of the strict total measure bound
    m = MeasurePoset(2)
    antichain = data.draw(st.sampled_from(m.poset.maximal_antichains()))
    chosen = extract_measure_endowment(m, n, antichain)
    for p in m.stratification().ordered_at(n):
        assert any(m.poset.compatible(p, q) for q in chosen)
