"""Finite spaces from subbases: openness, the full topology, refinement."""


from functools import cached_property
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalogs import limit_spaces, small_spaces
from endowlab.bounds import Limits
from endowlab.canon import sorted_sets
from endowlab.errors import DataError, ResourceError
from endowlab.instances import load_instance, save_instance
from endowlab.topology import FiniteSpace, covers


def brute_topology(points, base):
    """Independent oracle: close the subbase under finite intersection and
    arbitrary union by fixpoint iteration."""
    opens = {frozenset(), frozenset(points)}
    opens.update(frozenset(b) for b in base)
    changed = True
    while changed:
        changed = False
        current = list(opens)
        for a in current:
            for b in current:
                for c in (a | b, a & b):
                    if c not in opens:
                        opens.add(c)
                        changed = True
    return opens


def test_two_point_space():
    s = FiniteSpace(["x", "y"], [["x"], ["x", "y"]])
    assert s.is_open(frozenset())
    assert s.is_open(frozenset({"x"}))
    assert not s.is_open(frozenset({"y"}))
    assert s.is_open(frozenset({"x", "y"}))
    assert s.opens == (frozenset(), frozenset({"x"}), frozenset({"x", "y"}))


def test_subbase_intersections_count():
    # base sets meeting only through intersections
    s = FiniteSpace(["x", "y", "z"], [["x", "y"], ["y", "z"]])
    assert s.is_open(frozenset({"y"}))
    assert not s.is_open(frozenset({"z"}))
    assert not s.is_open(frozenset({"x", "z"}))


def test_topology_matches_brute_force_closure():
    cases = [
        (["x", "y"], [["x"], ["x", "y"]]),
        (["x", "y", "z"], [["x", "y"], ["y", "z"]]),
        (["x", "y", "z"], [["x"], ["y"], ["z"]]),
        (["x", "y", "z", "u"], [["x", "y"], ["y", "z"], ["z", "u"], ["u", "x"]]),
    ]
    for points, base in cases:
        s = FiniteSpace(points, base)
        assert set(s.opens) == brute_topology(points, base)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_random_subbases_match_brute_force(n, data):
    points = [f"p{i}" for i in range(n)]
    n_sets = data.draw(st.integers(min_value=0, max_value=4))
    base = [data.draw(st.sets(st.sampled_from(points), max_size=n)) for _ in range(n_sets)]
    if set().union(*base, set()) != set(points):
        base.append(set(points))  # guarantee coverage
    s = FiniteSpace(points, base)
    assert set(s.opens) == brute_topology(points, s.base)


class FixedPointSpace:
    """`FiniteSpace`'s openness before least neighborhoods, copied verbatim:
    a fixed point of subbase intersections as the basis, and the topology
    by testing every subset."""

    def __init__(self, space):
        self.points, self.base = space.points, space.base

    @cached_property
    def _intersection_basis(self) -> tuple[frozenset[str], ...]:
        """All intersections of nonempty subbase subsets, a genuine basis."""
        basis = set(self.base)
        frontier = set(self.base)
        while frontier:
            fresh = set()
            for a in frontier:
                for b in self.base:
                    c = a & b
                    if c not in basis:
                        fresh.add(c)
            basis |= fresh
            frontier = fresh
        return sorted_sets(basis)

    def is_open(self, candidate) -> bool:
        s = frozenset(candidate)
        if not s <= self.points:
            raise DataError(f"set {sorted(s)} leaves the point set")
        return all(any(x in b and b <= s for b in self._intersection_basis) for x in s)

    @cached_property
    def opens(self) -> tuple[frozenset[str], ...]:
        """The whole topology, in canonical order."""
        pts = sorted(self.points)
        out = []
        for mask in range(1 << len(pts)):
            s = frozenset(p for i, p in enumerate(pts) if mask >> i & 1)
            if self.is_open(s):
                out.append(s)
        return sorted_sets(out)


@pytest.mark.parametrize("spaces", [small_spaces, limit_spaces], ids=["small", "limit"])
def test_least_neighborhoods_decide_what_the_intersection_basis_did(spaces):
    for space in spaces():
        old = FixedPointSpace(space)
        points = sorted(space.points)
        for size in range(len(points) + 1):
            for s in combinations(points, size):
                assert space.is_open(s) == old.is_open(s)
        assert space.opens == old.opens


def test_space_validation():
    with pytest.raises(DataError):
        FiniteSpace([], [])
    with pytest.raises(DataError):
        FiniteSpace(["x"], [["x", "y"]])  # base leaves the point set
    with pytest.raises(DataError):
        FiniteSpace(["x", "y"], [["x"]])  # base misses y
    with pytest.raises(ResourceError):
        FiniteSpace([f"p{i}" for i in range(7)], [[f"p{i}" for i in range(7)]])
    small = Limits(max_base=1)
    with pytest.raises(ResourceError):
        FiniteSpace(["x", "y"], [["x"], ["x", "y"]], small)


def test_covers():
    s = FiniteSpace(["x", "y"], [["x"], ["x", "y"]])
    assert covers(s, [frozenset({"x", "y"})])
    assert covers(s, [frozenset({"x"}), frozenset({"x", "y"})])
    assert not covers(s, [frozenset({"x"})])
    assert not covers(s, [])


def test_json_roundtrip(tmp_path):
    # a space file is shape-checked by `load_instance` and built by the constructor
    s = FiniteSpace(["x", "y"], [["x"], ["x", "y"]])
    save_instance(tmp_path / "s.json", "space",
                  {"points": list(s.points), "base": [sorted(b) for b in s.base]})
    payload = load_instance(tmp_path / "s.json", "space")
    t = FiniteSpace(payload["points"], payload["base"])
    assert t.points == s.points
    assert t.base == s.base
