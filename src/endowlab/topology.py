"""Finite topological spaces given by a subbase.

The topology is the closure of the subbase under finite intersection and
arbitrary union.  Openness is decided exactly: a set is open when every one
of its points has an intersection-of-subbase neighborhood inside it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .bounds import DEFAULT_LIMITS, Limits
from .canon import sorted_sets
from .errors import DataError, ResourceError

SPACE_SHAPE = {"points": [str], "base": [[str]]}


class FiniteSpace:
    """A space on at most a handful of points, with an explicit subbase."""

    def __init__(self, points: Iterable[str], base: Iterable[Iterable[str]], limits: Limits = DEFAULT_LIMITS):
        pts = sorted(set(points))
        if not pts:
            raise DataError("space needs at least one point")
        if len(pts) > limits.max_points:
            raise ResourceError(f"space capped at {limits.max_points} points, got {len(pts)}")
        self.points: frozenset[str] = frozenset(pts)
        members = sorted_sets(frozenset(b) for b in base)
        if len(members) > limits.max_base:
            raise ResourceError(f"subbase capped at {limits.max_base} sets, got {len(members)}")
        for b in members:
            if not b <= self.points:
                raise DataError(f"subbase set {sorted(b)} leaves the point set")
        covered = frozenset().union(*members) if members else frozenset()
        if covered != self.points:
            missing = sorted(self.points - covered)
            raise DataError(f"subbase does not cover the space; missing {missing}")
        self.base: tuple[frozenset[str], ...] = members

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

    def is_open(self, candidate: Iterable[str]) -> bool:
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


def covers(space: FiniteSpace, family: Iterable[frozenset[str]]) -> bool:
    members = list(family)
    return frozenset().union(*members) >= space.points if members else not space.points

