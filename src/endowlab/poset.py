"""Finite forcing posets with exact semantics.

Conditions are opaque string identifiers and the order is given
extensionally.  `p <= q` means p is stronger than q (p carries at least the
information of q).  In a finite poset every condition sits above an atom (a
minimal element), and the upward closure of an atom meets every dense set,
so atoms stand in for generic filters: a condition forces a statement
exactly when the statement holds in the evaluation determined by every atom
below it.

The forcing kernel works on integer bitmasks built once per poset.
`atom_mask[p]` has bit j set when `atoms[j]` lies below p, and
`down_mask[p]` has bit i set when the condition at canonical position i lies
below p.  `truth` evaluates a statement once per atom into an atom mask, and
p forces the statement exactly when `atom_mask[p]` lies inside that mask, so
a caller with many forcing questions about one statement evaluates it once
and answers each question with one mask test.
`forces_dense` deliberately stays off the masks: it decides the superset
statement from down-sets as frozensets, never evaluates a name at an atom,
and so remains an independent oracle for the kernel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .canon import check_shape, set_key, sorted_sets
from .errors import DataError, ResourceError

Condition = str

# Exhaustive antichain enumeration is only offered below this size; larger
# posets must use seeded sampling.
EXHAUSTIVE_LIMIT = 40

POSET_SHAPE = {"elements": [str], "leq": [(str, str)]}
NAME_SHAPE = [{"condition": str, "set": [str]}]


class Poset:
    """A finite partial order of forcing conditions.

    `elements` fixes the canonical enumeration order used for deterministic
    tie breaking everywhere downstream.  `leq_pairs` lists (a, b) with
    a <= b; reflexivity and transitivity are completed automatically and
    antisymmetry is validated.
    """

    def __init__(self, elements: Sequence[Condition], leq_pairs: Iterable[tuple[Condition, Condition]]):
        elements = list(elements)
        if not elements:
            raise DataError("poset needs at least one condition")
        if len(set(elements)) != len(elements):
            raise DataError("duplicate condition identifiers")
        self._elements = tuple(elements)
        self._pos = {p: i for i, p in enumerate(self._elements)}
        below: dict[Condition, set[Condition]] = {p: set() for p in self._elements}
        for a, b in leq_pairs:
            if a not in self._pos or b not in self._pos:
                raise DataError(f"order pair mentions unknown condition: ({a!r}, {b!r})")
            below[b].add(a)
        # down sets by breadth first search; a visited set keeps this safe
        # even on cyclic input, which antisymmetry then rejects
        down: dict[Condition, frozenset[Condition]] = {}
        for p in self._elements:
            seen = {p}
            frontier = [p]
            while frontier:
                q = frontier.pop()
                for r in below[q]:
                    if r not in seen:
                        seen.add(r)
                        frontier.append(r)
            down[p] = frozenset(seen)
        for p in self._elements:
            for q in down[p]:
                if q != p and p in down[q]:
                    raise DataError(f"order is not antisymmetric: {p!r} and {q!r}")
        self._down = down
        up: dict[Condition, set[Condition]] = {p: set() for p in self._elements}
        for p in self._elements:
            for q in down[p]:
                up[q].add(p)
        self._up = {p: frozenset(s) for p, s in up.items()}
        self._atoms = tuple(p for p in self._elements if len(down[p]) == 1)
        self._atoms_set = frozenset(self._atoms)
        self._atoms_below = {p: frozenset(a for a in down[p] if a in self._atoms_set) for p in self._elements}
        atom_bit = {a: 1 << j for j, a in enumerate(self._atoms)}
        self.atom_mask = {p: sum(atom_bit[a] for a in self._atoms_below[p]) for p in self._elements}
        self.down_mask = {p: sum(1 << self._pos[q] for q in down[p]) for p in self._elements}

    # -- basic accessors ---------------------------------------------------

    @property
    def elements(self) -> tuple[Condition, ...]:
        return self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, p: Condition) -> bool:
        return p in self._pos

    def sort_key(self, p: Condition) -> int:
        return self._pos[p]

    def require(self, p: Condition) -> None:
        if p not in self._pos:
            raise DataError(f"unknown condition: {p!r}")

    def leq(self, p: Condition, q: Condition) -> bool:
        """True when p is stronger than or equal to q."""
        self.require(p)
        self.require(q)
        return p in self._down[q]

    def down(self, p: Condition) -> frozenset[Condition]:
        """All conditions at or below p."""
        self.require(p)
        return self._down[p]

    def up(self, p: Condition) -> frozenset[Condition]:
        """All conditions at or above p."""
        self.require(p)
        return self._up[p]

    @property
    def top(self) -> Condition | None:
        """The maximum condition if one exists."""
        for p in self._elements:
            if len(self._down[p]) == len(self._elements):
                return p
        return None

    @property
    def atoms(self) -> tuple[Condition, ...]:
        """Minimal conditions, in canonical order."""
        return self._atoms

    def atoms_below(self, p: Condition) -> frozenset[Condition]:
        self.require(p)
        return self._atoms_below[p]

    # -- compatibility, antichains, density --------------------------------

    def compatible(self, p: Condition, q: Condition) -> bool:
        """True when p and q have a common lower bound."""
        self.require(p)
        self.require(q)
        return not self._down[p].isdisjoint(self._down[q])

    def is_antichain(self, conditions: Iterable[Condition]) -> bool:
        items = list(conditions)
        for p in items:
            self.require(p)
        for i, p in enumerate(items):
            for q in items[i + 1:]:
                if self.compatible(p, q):
                    return False
        return True

    def is_maximal_antichain(self, conditions: Iterable[Condition]) -> bool:
        """Antichain such that every condition is compatible with a member."""
        items = frozenset(conditions)
        if not self.is_antichain(items):
            return False
        return all(any(self.compatible(p, a) for a in items) for p in self._elements)

    def is_dense(self, conditions: Iterable[Condition]) -> bool:
        """True when every condition has a member of the set below it."""
        dset = frozenset(conditions)
        for p in dset:
            self.require(p)
        return all(not self._down[p].isdisjoint(dset) for p in self._elements)

    def is_dense_below(self, conditions: Iterable[Condition], p: Condition) -> bool:
        """True when every condition below p has a member of the set below it."""
        dset = frozenset(conditions)
        for q in dset:
            self.require(q)
        self.require(p)
        return all(not self._down[r].isdisjoint(dset) for r in self._down[p])

    def maximal_antichains(self) -> tuple[frozenset[Condition], ...]:
        """All maximal antichains, in canonical order.

        Maximal antichains are exactly the maximal cliques of the
        incompatibility graph, enumerated here by pivoted backtracking.
        Refuses posets above EXHAUSTIVE_LIMIT elements; use
        random_maximal_antichain for those.
        """
        n = len(self._elements)
        if n > EXHAUSTIVE_LIMIT:
            raise ResourceError(
                f"exhaustive antichain enumeration capped at {EXHAUSTIVE_LIMIT} conditions, got {n}")
        incompat = [set() for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if not self.compatible(self._elements[i], self._elements[j]):
                    incompat[i].add(j)
                    incompat[j].add(i)
        found: list[frozenset[Condition]] = []

        def extend(clique: list[int], cand: set[int], excl: set[int]) -> None:
            if not cand and not excl:
                found.append(frozenset(self._elements[i] for i in clique))
                return
            pivot = max(cand | excl, key=lambda v: len(incompat[v] & cand))
            for v in sorted(cand - incompat[pivot]):
                extend(clique + [v], cand & incompat[v], excl & incompat[v])
                cand = cand - {v}
                excl = excl | {v}

        extend([], set(range(n)), set())
        return tuple(sorted(found, key=lambda a: (len(a), sorted(self._pos[p] for p in a))))

    def random_maximal_antichain(self, rng: random.Random) -> frozenset[Condition]:
        """Greedy maximal antichain over a shuffled enumeration order."""
        order = list(self._elements)
        rng.shuffle(order)
        chosen: list[Condition] = []
        for p in order:
            if all(not self.compatible(p, q) for q in chosen):
                chosen.append(p)
        return frozenset(chosen)

    # -- serialization -----------------------------------------------------

    def to_jsonable(self) -> dict:
        pairs = [[a, b] for b in self._elements for a in sorted(self._down[b] - {b}, key=self.sort_key)]
        return {"elements": list(self._elements), "leq": pairs}

    @classmethod
    def from_jsonable(cls, data: dict) -> "Poset":
        check_shape(data, POSET_SHAPE, "poset")
        return cls(data["elements"], [tuple(p) for p in data["leq"]])


@dataclass(frozen=True)
class Stratification:
    """An increasing chain of condition sets that exhausts the poset.

    `stabilization_index` is the least level equal to the whole poset.
    Levels beyond the recorded chain repeat the final one.
    """

    levels: tuple[frozenset[Condition], ...]
    stabilization_index: int

    def at(self, n: int) -> frozenset[Condition]:
        if n < 0:
            raise DataError(f"stratification level must be nonnegative, got {n}")
        return self.levels[min(n, len(self.levels) - 1)]


def make_stratification(poset: Poset, levels: Sequence[Iterable[Condition]]) -> Stratification:
    """Validate and package a stratification of `poset`.

    Requires an inclusion increasing chain whose last level is the whole
    poset.
    """
    frozen = [frozenset(level) for level in levels]
    if not frozen:
        raise DataError("stratification needs at least one level")
    everything = frozenset(poset.elements)
    for level in frozen:
        for p in level:
            poset.require(p)
    for lo, hi in zip(frozen, frozen[1:]):
        if not lo <= hi:
            raise DataError("stratification levels must be inclusion increasing")
    if frozen[-1] != everything:
        raise DataError("final stratification level must contain every condition")
    stabilization = next(i for i, level in enumerate(frozen) if level == everything)
    return Stratification(tuple(frozen), stabilization)


# -- names and statements ---------------------------------------------------


@dataclass(frozen=True)
class Name:
    """A condition indexed family of value sets.

    A pair (q, U) contributes U to the evaluation at every atom below q.
    Pairs are stored deduplicated in a fixed order so names compare and
    hash structurally.
    """

    pairs: tuple[tuple[Condition, frozenset[str]], ...]

    def __post_init__(self):
        norm = tuple(sorted(
            {(q, frozenset(u)) for q, u in self.pairs},
            key=lambda pair: (pair[0], set_key(pair[1])),
        ))
        object.__setattr__(self, "pairs", norm)

    def conditions(self) -> tuple[Condition, ...]:
        return tuple(q for q, _ in self.pairs)

    def to_jsonable(self) -> list[dict]:
        return [{"condition": q, "set": sorted(u)} for q, u in self.pairs]

    @classmethod
    def from_jsonable(cls, data) -> "Name":
        check_shape(data, NAME_SHAPE, "name")
        return cls(tuple((entry["condition"], frozenset(entry["set"])) for entry in data))


def validate_name(poset: Poset, name: Name) -> None:
    """Reject names whose conditions do not belong to the poset."""
    for q, _ in name.pairs:
        poset.require(q)


def evaluate_name(poset: Poset, name: Name, atom: Condition) -> tuple[frozenset[str], ...]:
    """The value sets contributed by pairs whose condition sits above the atom.

    Returned in canonical order with duplicates removed.  The lookup of each
    pair's condition doubles as validation, so a name evaluated at every
    atom pays no separate validation pass.
    """
    poset.require(atom)
    if atom not in poset._atoms_set:
        raise DataError(f"evaluation point must be an atom, got {atom!r}")
    down = poset._down
    try:
        return sorted_sets(u for q, u in name.pairs if atom in down[q])
    except KeyError:
        validate_name(poset, name)  # raises DataError naming the unknown condition
        raise


@dataclass(frozen=True)
class ExistsSupersetInCover:
    """Holds at an atom when some evaluated set contains `lower`."""

    name: Name
    lower: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "lower", frozenset(self.lower))


@dataclass(frozen=True)
class SubfamilyOf:
    """Holds at an atom when every evaluated set belongs to `family`."""

    name: Name
    family: tuple[frozenset[str], ...]

    def __post_init__(self):
        object.__setattr__(self, "family", sorted_sets(self.family))


@dataclass(frozen=True)
class RefinesName:
    """Holds at an atom when each set evaluated from `finer` is contained in
    some set evaluated from `coarser`."""

    finer: Name
    coarser: Name


@dataclass(frozen=True)
class FamilyUnionCovers:
    """Holds at an atom when the evaluations of all names jointly cover
    `points`."""

    names: tuple[Name, ...]
    points: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "points", frozenset(self.points))


Statement = (ExistsSupersetInCover | SubfamilyOf | RefinesName | FamilyUnionCovers)


def statement_holds_at(poset: Poset, statement: Statement, atom: Condition) -> bool:
    """Evaluate a statement in the extension determined by one atom.

    Every name of the statement is evaluated in full, so each of its
    conditions is validated."""
    if isinstance(statement, ExistsSupersetInCover):
        return any(statement.lower <= u for u in evaluate_name(poset, statement.name, atom))
    if isinstance(statement, SubfamilyOf):
        allowed = set(statement.family)
        return all(u in allowed for u in evaluate_name(poset, statement.name, atom))
    if isinstance(statement, RefinesName):
        coarse = evaluate_name(poset, statement.coarser, atom)
        return all(any(u <= v for v in coarse) for u in evaluate_name(poset, statement.finer, atom))
    if isinstance(statement, FamilyUnionCovers):
        covered: set[str] = set()
        for name in statement.names:
            for u in evaluate_name(poset, name, atom):
                covered.update(u)
        return statement.points <= covered
    raise DataError(f"unknown statement type: {type(statement).__name__}")


def truth(poset: Poset, statement: Statement) -> int:
    """The atom mask of a statement: bit j is set when it holds at atoms[j]."""
    mask = 0
    for j, a in enumerate(poset.atoms):
        if statement_holds_at(poset, statement, a):
            mask |= 1 << j
    return mask


def forces(poset: Poset, p: Condition, statement: Statement) -> bool:
    """True when the statement holds at every atom below p."""
    poset.require(p)
    return poset.atom_mask[p] & ~truth(poset, statement) == 0


def forces_dense(poset: Poset, p: Condition, name: Name, lower: Iterable[str]) -> bool:
    """Independent density oracle for the superset statement.

    p forces that some evaluated set contains `lower` exactly when the set
    of witnessing conditions {s : some pair (q, U) has s <= q and lower a
    subset of U} is dense below p.  This route never evaluates the name at
    an atom, so it cross checks `forces`.
    """
    validate_name(poset, name)
    poset.require(p)
    lower = frozenset(lower)
    witnesses = set()
    for q, u in name.pairs:
        if lower <= u:
            witnesses.update(poset.down(q))
    return poset.is_dense_below(witnesses, p)
