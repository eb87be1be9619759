"""Finite measure algebras: nonempty sets of length-k bit strings.

A condition is a nonempty subset of the 2^k point cube, ordered by
inclusion (smaller set = stronger condition); the full cube is the top and
the singletons are the atoms.  The measure of a cell is its size over 2^k,
kept exact as a Fraction.  Cell literals list the member bit strings sorted
and comma separated, for example "00,01".
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Iterable

from .bounds import DEFAULT_LIMITS, Limits
from .errors import DataError, ResourceError
from .poset import Poset, Stratification, make_stratification


def format_cell(cell: Iterable[str]) -> str:
    return ",".join(sorted(cell))


def parse_cell(literal: str, k: int) -> frozenset[str]:
    """Parse a cell literal for the k cube; raises DataError on bad input."""
    if literal == "":
        raise DataError("cell must be nonempty")
    members = literal.split(",")
    for m in members:
        if len(m) != k or any(c not in "01" for c in m):
            raise DataError(f"bad cube point {m!r} for k={k}")
    if len(set(members)) != len(members):
        raise DataError(f"duplicate cube point in {literal!r}")
    return frozenset(members)


class MeasurePoset:
    """All nonempty cells of the k cube under inclusion, with exact measure.

    Canonical condition order: by descending measure, then sorted member
    tuple, so the top condition comes first and atoms come last.  The cells
    directly below a cell drop one of its points.  k is capped at the
    configured limit (default 3, already 255 conditions), since every
    poset mask holds one bit per cell.
    """

    def __init__(self, k: int, limits: Limits = DEFAULT_LIMITS):
        if type(k) is not int or k < 0:  # a boolean is not an exponent
            raise DataError(f"k must be a nonnegative integer, got {k!r}")
        if k > limits.max_k:
            raise ResourceError(f"measure algebra exponent capped at {limits.max_k}, got {k}")
        self.k = k
        self.points: tuple[str, ...] = tuple("".join(bits) for bits in product("01", repeat=k))
        # a cell is keyed by its bits over the positions of `points`; it lies
        # directly below each cell with one more point, and those come
        # earlier in canonical order
        literals: list[str] = []
        below: list[int] = []
        self._cells: dict[str, frozenset[str]] = {}
        position: dict[int, int] = {}
        for size in range(len(self.points), 0, -1):
            for combo in combinations(range(len(self.points)), size):
                bits = sum(1 << i for i in combo)
                for i in range(len(self.points)):
                    if not bits >> i & 1:
                        below[position[bits | 1 << i]] |= 1 << len(literals)
                cell = frozenset(self.points[i] for i in combo)
                literal = format_cell(cell)
                position[bits] = len(literals)
                literals.append(literal)
                below.append(0)
                self._cells[literal] = cell
        self.poset = Poset(literals, below)

    def cell(self, literal: str) -> frozenset[str]:
        if literal not in self._cells:
            raise DataError(f"unknown condition: {literal!r}")
        return self._cells[literal]

    def measure(self, literal: str) -> Fraction:
        return Fraction(len(self.cell(literal)), 2 ** self.k)

    def stratification(self) -> Stratification:
        """Level n holds the cells of measure at least 2^-n, that is of
        size s with s * 2^n >= 2^k.

        Stabilizes exactly at k: the singletons enter last.
        """
        levels = [
            [p for p, cell in self._cells.items() if len(cell) << n >= 1 << self.k]
            for n in range(self.k + 1)
        ]
        return make_stratification(self.poset, levels)


def measure_endowment_member(algebra: MeasurePoset, n: int, conditions: Iterable[str]) -> bool:
    """Membership test: an antichain whose total measure exceeds 1 - 2^-n.

    The bound is strict; with the cell sizes summed to `total`, it reads
    total * 2^n > (2^n - 1) * 2^k in integers.  Any antichain passing it
    meets every condition of measure at least 2^-n: the cells left
    uncovered have total measure below 2^-n, too small to swallow such a
    condition.  Non antichain input is rejected.
    """
    if n < 0:
        raise DataError(f"level must be nonnegative, got {n}")
    items = frozenset(conditions)
    if not algebra.poset.is_antichain(items):
        raise DataError("membership test needs an antichain")
    total = sum(len(algebra.cell(p)) for p in items)
    return total << n > ((1 << n) - 1) << algebra.k


def extract_measure_endowment(
    algebra: MeasurePoset, n: int, antichain: Iterable[str], *, checked: bool = False,
) -> frozenset[str]:
    """Greedy member extraction from a maximal antichain.

    Takes cells in canonical order (largest first, ties broken by sorted
    members) until the total measure strictly exceeds 1 - 2^-n, compared
    in integers as in `measure_endowment_member`.  A maximal antichain in
    this algebra partitions the cube, so its total is exactly 1 and the
    prefix always exists.  The antichain is checked to be maximal unless
    `checked` says the caller has already done so.
    """
    if n < 0:
        raise DataError(f"level must be nonnegative, got {n}")
    items = frozenset(antichain)
    if not checked and not algebra.poset.is_maximal_antichain(items):
        raise DataError("extraction needs a maximal antichain")
    chosen: list[str] = []
    total = 0
    bound = ((1 << n) - 1) << algebra.k
    for p in sorted(items, key=algebra.poset.sort_key):
        if total << n > bound:
            break
        chosen.append(p)
        total += len(algebra.cell(p))
    if total << n <= bound:
        raise DataError("maximal antichain has total measure at most the bound; not a partition")
    return frozenset(chosen)
