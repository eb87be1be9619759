"""Posets of finite partial 0/1 assignments on a small index set.

A condition is a partial function from the index set to {0, 1}; p <= q means
p extends q as a function.  The empty assignment is the top condition and
the total assignments are the atoms.  Condition literals look like
"0:1,2:0" (index:value entries sorted by index, comma separated); the empty
assignment is the empty string.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, Mapping

from .bounds import DEFAULT_LIMITS, Limits
from .errors import DataError, ResourceError
from .poset import Poset, Stratification, make_stratification


def format_condition(assignment: Mapping[int, int]) -> str:
    return ",".join(f"{i}:{assignment[i]}" for i in sorted(assignment))


def parse_condition(literal: str) -> dict[int, int]:
    """Parse a condition literal; raises DataError on malformed input."""
    if literal == "":
        return {}
    assignment: dict[int, int] = {}
    for part in literal.split(","):
        idx, sep, val = part.partition(":")
        if not sep:
            raise DataError(f"bad condition entry {part!r} in {literal!r}")
        try:
            i = int(idx)
            v = int(val)
        except ValueError as exc:
            raise DataError(f"bad condition entry {part!r} in {literal!r}") from exc
        if v not in (0, 1):
            raise DataError(f"condition value must be 0 or 1, got {v} in {literal!r}")
        if i in assignment:
            raise DataError(f"duplicate index {i} in {literal!r}")
        assignment[i] = v
    return assignment


class CohenPoset:
    """All partial 0/1 assignments on a finite index set, strongest = largest.

    Canonical condition order: by support size, then support tuple, then
    value tuple, so the top condition comes first and atoms come last.
    `support_mask[p]` has bit j set when the j-th entry of `indices` lies in
    the support of p, and `within_mask[s]` marks by canonical position the
    conditions whose support mask lies inside the support mask s.
    """

    def __init__(self, indices: Iterable[int], limits: Limits = DEFAULT_LIMITS):
        given = list(indices)
        if any(type(i) is not int for i in given):  # a boolean is not an index
            raise DataError("indices must be integers")
        idx = sorted(set(given))
        if not idx:
            raise DataError("index set must be nonempty")
        if len(idx) > limits.max_indices:
            raise ResourceError(f"index set capped at {limits.max_indices} entries, got {len(idx)}")
        self.indices: tuple[int, ...] = tuple(idx)
        # an assignment is keyed by its support bits and value bits over the
        # positions of `indices`; it lies directly below each restriction
        # that forgets one index, and those come earlier in canonical order
        width = len(idx)
        literals: list[str] = []
        below: list[int] = []
        position: dict[int, int] = {}
        self.support_mask: dict[str, int] = {}
        within = [0] * (1 << width)  # by exact support first, then unioned over submasks
        for size in range(width + 1):
            for support in combinations(range(width), size):
                support_bits = sum(1 << j for j in support)
                for values in product((0, 1), repeat=size):
                    literal = format_condition({idx[j]: v for j, v in zip(support, values)})
                    value_bits = sum(1 << j for j, v in zip(support, values) if v)
                    bit = 1 << len(literals)
                    for j in support:
                        restriction = (support_bits ^ 1 << j) << width | value_bits & ~(1 << j)
                        below[position[restriction]] |= bit
                    within[support_bits] |= bit
                    position[support_bits << width | value_bits] = len(literals)
                    literals.append(literal)
                    below.append(0)
                    self.support_mask[literal] = support_bits
        for j in range(width):
            for bits in range(1 << width):
                if bits >> j & 1:
                    within[bits] |= within[bits ^ 1 << j]
        self.within_mask: tuple[int, ...] = tuple(within)
        self._within: dict[int, tuple[str, ...]] = {}
        self.poset = Poset(literals, below)

    def assignment(self, literal: str) -> dict[int, int]:
        self.poset.require(literal)
        return parse_condition(literal)

    def support(self, literal: str) -> frozenset[int]:
        self.poset.require(literal)
        return frozenset(parse_condition(literal))

    def within(self, support: int) -> tuple[str, ...]:
        """The conditions of `within_mask[support]` in canonical order, built
        once per support mask."""
        handled = self._within.get(support)
        if handled is None:
            handled = self._within[support] = tuple(self.poset.conditions_in(self.within_mask[support]))
        return handled

    def stratification(self) -> Stratification:
        """Level n holds the conditions with support size at most n.

        Stabilizes exactly at the size of the index set.
        """
        levels = [
            [p for p, support in self.support_mask.items() if support.bit_count() <= n]
            for n in range(len(self.indices) + 1)
        ]
        return make_stratification(self.poset, levels)
