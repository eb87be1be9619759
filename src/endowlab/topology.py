"""Finite topological spaces given by a subbase.

The topology is the closure of the subbase under finite intersection and
arbitrary union.  A finite space is an Alexandrov space: each point has a
least open neighborhood, the intersection of the subbase sets holding it.
Openness is decided exactly from those: a set is open when it holds the
least neighborhood of each of its points, and the open sets are the unions
of least neighborhoods.
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
    def neighborhoods(self) -> dict[str, frozenset[str]]:
        """Each point's least open neighborhood: the intersection of the
        subbase sets holding it, of which the covering subbase has one."""
        return {x: frozenset.intersection(*(b for b in self.base if x in b)) for x in self.points}

    def is_open(self, candidate: Iterable[str]) -> bool:
        s = frozenset(candidate)
        if not s <= self.points:
            raise DataError(f"set {sorted(s)} leaves the point set")
        neighborhoods = self.neighborhoods
        return all(neighborhoods[x] <= s for x in s)

    @cached_property
    def opens(self) -> tuple[frozenset[str], ...]:
        """The whole topology, in canonical order: every union of least
        neighborhoods, the empty one included."""
        out = {frozenset()}
        for n in set(self.neighborhoods.values()):
            out |= {s | n for s in out}
        return sorted_sets(out)


def covers(space: FiniteSpace, family: Iterable[frozenset[str]]) -> bool:
    members = list(family)
    return frozenset().union(*members) >= space.points if members else not space.points

