"""Finitized selection principle solvers over finite spaces.

A selection problem fixes a finite space, a sequence of open covers (one
per level), a floor M, and a mode.  Picks below the floor are free moves
that never count toward covering; the covering requirement quantifies over
levels at or above the floor only.

Modes:
  rothberger             one member per level; members picked at or above
                         the floor must cover the space.
  menger                 one finite subfamily per level; their union at or
                         above the floor must cover the space.  The solver
                         minimizes the total number of chosen sets exactly
                         when at most 12 candidate sets are in play and
                         greedily beyond that.
  selective-screenability
                         one pairwise disjoint family of nonempty open
                         sets per level, each member inside some cover
                         member of that level; the families at or above
                         the floor must jointly cover the space.

All solvers are deterministic: they return the canonically least solution
for a fixed canonical order on members and families, or None when no
solution exists.  Rothberger and selective screenability share one
backtracking search: each level offers (pick, gain) options in canonical
order, a single fixed option with no gain below the floor, and the first
choice of one option per level whose gains cover the space wins.
Screenability's options are the disjoint families of a level's
candidates, which a depth-first search emits in canonical order within
each size, so one stable sort by size orders them.  The
three checkers share one test that the picks at or above the floor cover.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .canon import sorted_sets
from .errors import DataError
from .topology import FiniteSpace, covers

EXACT_MENGER_POOL = 12


class SelectionProblem(NamedTuple):
    space: FiniteSpace
    covers: tuple[tuple[frozenset[str], ...], ...]
    floor: int
    mode: str


def make_selection_problem(
    space: FiniteSpace,
    level_covers: Sequence[Iterable[frozenset[str]]],
    floor: int,
    mode: str,
) -> SelectionProblem:
    """Validate covers and package a problem.

    Every level must be an open cover of the space.  The floor may point
    past the last level; solvers then report unsolvability.
    """
    if mode not in MODES:
        raise DataError(f"unknown mode {mode!r}; expected one of {MODES}")
    if floor < 0:
        raise DataError(f"floor must be nonnegative, got {floor}")
    if not level_covers:
        raise DataError("selection problem needs at least one level")
    packaged = []
    for n, level in enumerate(level_covers):
        members = sorted_sets(frozenset(u) for u in level)
        for u in members:
            if not space.is_open(u):
                raise DataError(f"level {n} member {sorted(u)} is not open")
        if not covers(space, members):
            raise DataError(f"level {n} does not cover the space")
        packaged.append(members)
    return SelectionProblem(space, tuple(packaged), floor, mode)


def _least_selection(
    points: frozenset[str], options: Sequence[Sequence[tuple[object, frozenset[str]]]],
) -> tuple | None:
    """Pick one (pick, gain) option per level so that the gains cover the
    points; returns the picks of the first solution in option order, or None.

    Backtracking prunes a level whose uncovered points lie outside every
    later gain, and remembers (level, uncovered) states that already failed.
    """
    n_levels = len(options)
    suffix_union: list[frozenset[str]] = [frozenset()] * (n_levels + 1)
    for i in range(n_levels - 1, -1, -1):
        suffix_union[i] = suffix_union[i + 1].union(*(gain for _, gain in options[i]))
    picks: list = []
    dead: set[tuple[int, frozenset[str]]] = set()

    def extend(i: int, uncovered: frozenset[str]) -> bool:
        if not uncovered <= suffix_union[i] or (i, uncovered) in dead:
            return False
        if i == n_levels:
            return True
        for pick, gain in options[i]:
            picks.append(pick)
            if extend(i + 1, uncovered - gain):
                return True
            picks.pop()
        dead.add((i, uncovered))
        return False

    return tuple(picks) if extend(0, points) else None


def _covered_from_floor(
    problem: SelectionProblem, families: Sequence[Iterable[Iterable[str]]],
) -> tuple[bool, str | None]:
    """Do the families at or above the floor jointly cover the space?"""
    hit = frozenset().union(*(u for fam in families[problem.floor:] for u in fam))
    missing = sorted(problem.space.points - hit)
    if missing:
        return False, f"points not covered at or above the floor: {missing}"
    return True, None


# -- rothberger ---------------------------------------------------------------


def rothberger_select(problem: SelectionProblem) -> tuple[frozenset[str], ...] | None:
    """One pick per level, canonically least solution first.

    Below the floor the canonically least member is fixed; at or above it
    every member is tried in canonical order.
    """
    options = [
        [(u, u) for u in cover] if i >= problem.floor else [(cover[0], frozenset())]
        for i, cover in enumerate(problem.covers)
    ]
    return _least_selection(problem.space.points, options)


def check_rothberger(problem: SelectionProblem, picks: Sequence[frozenset[str]]) -> tuple[bool, str | None]:
    if len(picks) != len(problem.covers):
        return False, f"expected {len(problem.covers)} picks, got {len(picks)}"
    for i, u in enumerate(picks):
        if frozenset(u) not in set(problem.covers[i]):
            return False, f"level {i} pick is not a cover member"
    return _covered_from_floor(problem, [(u,) for u in picks])


# -- menger -------------------------------------------------------------------


def menger_select(problem: SelectionProblem) -> tuple[tuple[frozenset[str], ...], ...] | None:
    """One finite subfamily per level whose union from the floor covers.

    The total size is minimized exactly, by set cover over the pooled
    (level, member) pairs, when the pool has at most EXACT_MENGER_POOL
    entries.  Larger pools are covered greedily, each step taking the entry
    that covers the most uncovered points, with no minimality guarantee.
    Levels below the floor get the empty family.
    """
    space, level_covers, floor = problem.space, problem.covers, problem.floor
    n_levels = len(level_covers)
    pool: list[tuple[int, frozenset[str]]] = [
        (i, u) for i in range(floor, n_levels) for u in level_covers[i]
    ]
    if not pool or not space.points <= frozenset().union(*(u for _, u in pool)):
        return None
    chosen: list[tuple[int, frozenset[str]]] | None = None
    if len(pool) <= EXACT_MENGER_POOL:
        for size in range(len(pool) + 1):
            for combo in combinations(range(len(pool)), size):
                hit = frozenset().union(*(pool[j][1] for j in combo)) if combo else frozenset()
                if space.points <= hit:
                    chosen = [pool[j] for j in combo]
                    break
            if chosen is not None:
                break
    else:
        uncovered = set(space.points)
        chosen = []
        while uncovered:
            # the pool covers every point, so the best entry meets `uncovered`
            best = max(pool, key=lambda entry: (len(uncovered & entry[1]), ))
            chosen.append(best)
            uncovered -= best[1]
    families: list[tuple[frozenset[str], ...]] = [() for _ in range(n_levels)]
    for i, u in chosen:
        families[i] = families[i] + (u,)
    return tuple(sorted_sets(f) for f in families)


def check_menger(problem: SelectionProblem, families: Sequence[Sequence[frozenset[str]]]) -> tuple[bool, str | None]:
    if len(families) != len(problem.covers):
        return False, f"expected {len(problem.covers)} families, got {len(families)}"
    for i, fam in enumerate(families):
        allowed = set(problem.covers[i])
        for u in fam:
            if frozenset(u) not in allowed:
                return False, f"level {i} family member is not a cover member"
    return _covered_from_floor(problem, families)


# -- selective screenability --------------------------------------------------


def _disjoint_families(candidates: Sequence[frozenset[str]]) -> list[tuple[frozenset[str], ...]]:
    """All pairwise disjoint subfamilies of the candidates, canonically sorted
    by (size, member keys).  The empty family comes first.

    The candidates come in canonical order, and the search emits each
    family's members in candidate order and the families in lexicographic
    order of their candidate indices, so a stable sort by size alone is
    that order."""
    out: list[tuple[frozenset[str], ...]] = []

    def extend(start: int, chosen: list[frozenset[str]]) -> None:
        out.append(tuple(chosen))
        for j in range(start, len(candidates)):
            c = candidates[j]
            if all(c.isdisjoint(v) for v in chosen):
                chosen.append(c)
                extend(j + 1, chosen)
                chosen.pop()

    extend(0, [])
    return sorted(out, key=len)


def screenability_select(problem: SelectionProblem) -> tuple[tuple[frozenset[str], ...], ...] | None:
    """One disjoint open refining family per level, canonically least first.

    Candidates at a level are the nonempty open sets contained in some
    cover member of that level.  Levels below the floor get the empty
    family.
    """
    opens = [v for v in problem.space.opens if v]
    options = []
    for i, cover in enumerate(problem.covers):
        if i < problem.floor:
            options.append([((), frozenset())])
            continue
        candidates = [v for v in opens if any(v <= u for u in cover)]
        options.append([(fam, frozenset().union(*fam)) for fam in _disjoint_families(candidates)])
    return _least_selection(problem.space.points, options)


def check_screenability(problem: SelectionProblem, families: Sequence[Sequence[frozenset[str]]]) -> tuple[bool, str | None]:
    if len(families) != len(problem.covers):
        return False, f"expected {len(problem.covers)} families, got {len(families)}"
    for i, fam in enumerate(families):
        members = [frozenset(v) for v in fam]
        for v in members:
            if not v:
                return False, f"level {i} has an empty member"
            if not problem.space.is_open(v):
                return False, f"level {i} member {sorted(v)} is not open"
            if not any(v <= u for u in problem.covers[i]):
                return False, f"level {i} member {sorted(v)} refines no cover member"
        for a, b in combinations(members, 2):
            if not a.isdisjoint(b):
                return False, f"level {i} members overlap: {sorted(a)} and {sorted(b)}"
    return _covered_from_floor(problem, families)


# mode -> (solver, checker); `make_selection_problem` admits only these modes
_BY_MODE = {
    "rothberger": (rothberger_select, check_rothberger),
    "menger": (menger_select, check_menger),
    "selective-screenability": (screenability_select, check_screenability),
}
MODES = tuple(_BY_MODE)


def solve_selection(problem: SelectionProblem):
    """Dispatch to the mode's solver."""
    return _BY_MODE[problem.mode][0](problem)


def check_selection(problem: SelectionProblem, solution) -> tuple[bool, str | None]:
    """Independent validity check for a solver output."""
    return _BY_MODE[problem.mode][1](problem, solution)
