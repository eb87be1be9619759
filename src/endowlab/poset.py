"""Finite forcing posets with exact semantics.

Conditions are opaque string identifiers.  `p <= q` means p is stronger
than q (p carries at least the information of q).  In a finite poset every
condition sits above an atom (a minimal element), and the upward closure of
an atom meets every dense set, so atoms stand in for generic filters: a
condition forces a statement exactly when the statement holds in the
evaluation determined by every atom below it.

The order comes in as position masks, one per condition, marking the
conditions directly below it: the built-in posets read them off their
structure, and only explicit posets list named pairs, which
`Poset.from_pairs` maps to positions.  The forcing kernel works on integer
bitmasks built once per poset.  The constructor closes the given masks, so
`down_mask[p]` has bit i set when the condition at canonical position i
lies below p, and `atom_mask[p]` has bit j set when `atoms[j]` lies below p.
Names are read through `value_masks`: one atom mask per distinct value set,
the union of `atom_mask[q]` over the pairs (q, U).  `truth` combines these
into the atom mask of a statement, and p forces the statement exactly when
`atom_mask[p]` lies inside that mask, so a caller with many forcing
questions about one statement answers each with one mask test.
`atom_up[j]`, built on first use, marks by position the conditions above
`atoms[j]`, and `above_atoms` unions it over an atom mask: the conditions
forcing a statement are those above no atom outside its truth mask, and
the conditions compatible with p are those above some atom below p.
`atoms_below` unions `atom_mask` over a set, so p is compatible with some
member of the set exactly when `atom_mask[p]` meets that union.
The same down masks are the compatibility kernel: p and q are compatible
exactly when `down_mask[p] & down_mask[q]` is nonzero, and r lies below
some member of a set L exactly when bit `pos(r)` is set in `reach(L)`, the
union of the members' down masks.  So a set is an antichain when each
member's mask misses the union of those before it, and a maximal one when
every atom's position lies in the union of all of them.
`evaluate_name` and `statement_holds_at` evaluate at one atom, pair by
pair, from the atom's bit in each pair condition's down mask, and
`forces_dense`, with the `is_dense_below` it rests on, decides the superset
statement by density without evaluating at atoms.  None of them reads
`atom_mask`, `value_masks` or `truth`, so they remain independent oracles
for the kernel's route from names to forcing.

A `Poset` is read-only after construction: no caller writes its masks, so
one built-in poset can be shared by every command of a process.  Its one
lazy member, `atom_up`, is a pure function of the closed masks, so when it
is built makes no difference to any result.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .bounds import DEFAULT_LIMITS, Limits
from .canon import TextMemo, array_text, set_key, sorted_sets
from .errors import DataError, ResourceError

Condition = str

POSET_SHAPE = {"elements": [str], "leq": [(str, str)]}
NAME_SHAPE = [{"condition": str, "set": [str]}]


class Poset:
    """A finite partial order of forcing conditions.

    `elements` fixes the canonical enumeration order used for deterministic
    tie breaking everywhere downstream.  `below[i]` is the position mask of
    conditions known to lie strictly below `elements[i]`, typically its
    direct lower neighbours; reflexivity and transitivity are completed
    automatically and antisymmetry is validated.  `from_pairs` builds the
    masks from named (a, b) pairs with a <= b.
    """

    def __init__(self, elements: Sequence[Condition], below: Sequence[int]):
        elements = list(elements)
        if not elements:
            raise DataError("poset needs at least one condition")
        if len(set(elements)) != len(elements):
            raise DataError("duplicate condition identifiers")
        self._elements = tuple(elements)
        self._pos = pos = {p: i for i, p in enumerate(self._elements)}
        down = [mask | 1 << i for i, mask in enumerate(below)]
        # close each mask by a search over the masks, in reverse canonical
        # order: the built-in posets list stronger conditions later, so the
        # masks a search meets are already closed and settle every position
        # they cover at once.  A position is expanded at most once, so cyclic
        # input terminates, and conditions below each other end with equal
        # masks, which the antisymmetry check below rejects.
        closed = 0
        for i in reversed(range(len(down))):
            reached = down[i]
            todo = reached & ~(1 << i)
            while todo:
                low = todo & -todo
                lower = down[low.bit_length() - 1]
                if closed & low:
                    todo &= ~lower
                else:
                    todo = (todo ^ low) | (lower & ~reached)
                reached |= lower
            down[i] = reached
            closed |= 1 << i
        first: dict[int, int] = {}
        for i, mask in enumerate(down):
            j = first.setdefault(mask, i)
            if j != i:
                raise DataError(f"order is not antisymmetric: {elements[j]!r} and {elements[i]!r}")
        self.down_mask = dict(zip(self._elements, down))
        self._atoms = tuple(p for i, p in enumerate(self._elements) if down[i] == 1 << i)
        atom_bit = {1 << pos[a]: 1 << j for j, a in enumerate(self._atoms)}
        self._atom_positions = sum(atom_bit)
        self.atom_mask = {}
        for p, mask in self.down_mask.items():
            rest = mask & self._atom_positions
            bits = 0
            while rest:
                low = rest & -rest
                rest ^= low
                bits |= atom_bit[low]
            self.atom_mask[p] = bits

    @classmethod
    def from_pairs(cls, elements: Sequence[Condition],
                   leq_pairs: Iterable[tuple[Condition, Condition]]) -> "Poset":
        """The poset on `elements` whose order is generated by the (a, b)
        pairs with a <= b; the one place named order pairs become masks."""
        pos = {p: i for i, p in enumerate(elements)}
        below = [0] * len(elements)
        for a, b in leq_pairs:
            try:
                below[pos[b]] |= 1 << pos[a]
            except KeyError:
                raise DataError(f"order pair mentions unknown condition: ({a!r}, {b!r})") from None
        return cls(elements, below)

    @cached_property
    def atom_up(self) -> tuple[int, ...]:
        """Per atom, in the order of `atoms`, the position mask of the
        conditions at or above it; built on first use."""
        up = [0] * len(self._atoms)
        for i, p in enumerate(self._elements):
            rest = self.atom_mask[p]
            while rest:
                low = rest & -rest
                rest ^= low
                up[low.bit_length() - 1] |= 1 << i
        return tuple(up)

    def above_atoms(self, atoms: int) -> int:
        """The position mask of the conditions above some atom of an atom
        mask; for the atoms below p, the conditions compatible with p."""
        atom_up = self.atom_up
        above = 0
        while atoms:
            low = atoms & -atoms
            atoms ^= low
            above |= atom_up[low.bit_length() - 1]
        return above

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
        return self.down_mask[q] >> self._pos[p] & 1 == 1

    def down(self, p: Condition) -> frozenset[Condition]:
        """All conditions at or below p."""
        self.require(p)
        return frozenset(self.conditions_in(self.down_mask[p]))

    def up(self, p: Condition) -> frozenset[Condition]:
        """All conditions at or above p."""
        self.require(p)
        i = self._pos[p]
        return frozenset(q for q, mask in self.down_mask.items() if mask >> i & 1)

    @property
    def top(self) -> Condition | None:
        """The maximum condition if one exists."""
        everything = (1 << len(self._elements)) - 1
        return next((p for p, mask in self.down_mask.items() if mask == everything), None)

    @property
    def atoms(self) -> tuple[Condition, ...]:
        """Minimal conditions, in canonical order."""
        return self._atoms

    def conditions_in(self, mask: int) -> list[Condition]:
        """The conditions at the set bits of a position mask, in canonical order."""
        elements = self._elements
        out = []
        while mask:
            low = mask & -mask
            out.append(elements[low.bit_length() - 1])
            mask ^= low
        return out

    # -- compatibility, antichains, density --------------------------------

    def compatible(self, p: Condition, q: Condition) -> bool:
        """True when p and q have a common lower bound."""
        self.require(p)
        self.require(q)
        return self.down_mask[p] & self.down_mask[q] != 0

    def reach(self, conditions: Iterable[Condition]) -> int:
        """Down mask of everything at or below some member of the set."""
        mask = 0
        for q in conditions:
            self.require(q)
            mask |= self.down_mask[q]
        return mask

    def atoms_below(self, conditions: Iterable[Condition]) -> int:
        """Atom mask of the atoms below some member of the set.  The reach of
        the set is down closed, so these are the atoms in its reach, and p is
        compatible with some member exactly when `atom_mask[p]` meets it."""
        atoms = 0
        for q in conditions:
            self.require(q)
            atoms |= self.atom_mask[q]
        return atoms

    def meets_everything(self, reach: int) -> bool:
        """True when every condition is compatible with some member of a set
        whose reach this is.  Every condition has an atom below it, and an
        atom is compatible with a member exactly when it lies in the reach,
        so this holds exactly when every atom's position is in the mask."""
        return self._atom_positions & ~reach == 0

    def is_antichain(self, conditions: Iterable[Condition]) -> bool:
        items = list(conditions)
        for p in items:
            self.require(p)
        union = 0  # reach of the items before p
        for p in items:
            if self.down_mask[p] & union:
                return False
            union |= self.down_mask[p]
        return True

    def is_maximal_antichain(self, conditions: Iterable[Condition]) -> bool:
        """Antichain such that every condition is compatible with a member."""
        items = frozenset(conditions)
        if not self.is_antichain(items):
            return False
        return self.meets_everything(self.reach(items))

    def is_dense_below(self, conditions: Iterable[Condition], p: Condition) -> bool:
        """True when every condition below p has a member of the set below it."""
        members = 0  # position bits of the set
        for q in conditions:
            self.require(q)
            members |= 1 << self._pos[q]
        self.require(p)
        return all(self.down_mask[r] & members for r in self.conditions_in(self.down_mask[p]))

    def maximal_antichains(self, limits: Limits = DEFAULT_LIMITS) -> tuple[frozenset[Condition], ...]:
        """All maximal antichains, in canonical order.

        Maximal antichains are exactly the maximal cliques of the
        incompatibility graph, enumerated here by pivoted backtracking.
        Refuses posets above `limits.max_poset` elements; use
        random_maximal_antichain for those.
        """
        n = len(self._elements)
        if n > limits.max_poset:
            raise ResourceError(
                f"exhaustive antichain enumeration capped at max_poset={limits.max_poset} conditions, got {n}")
        masks = [self.down_mask[p] for p in self._elements]
        incompat = [{j for j in range(n) if masks[i] & masks[j] == 0} for i in range(n)]
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
        """Greedy maximal antichain over a shuffled enumeration order.

        The result and the state `rng` is left in are exactly those of
        `rng.shuffle(list(self.elements))` followed by a greedy pass that
        keeps each condition incompatible with every member kept so far.
        The shuffle runs here on canonical positions with the swaps of
        `random.Random.shuffle` (Durstenfeld's Fisher–Yates): for i from
        n−1 down to 1 it draws `getrandbits((i+1).bit_length())` until the
        draw is at most i, as `Random._randbelow_with_getrandbits` does, so
        it consumes the same bits.  The greedy pass runs over the down masks
        in that order and stops once the reach of the kept members holds
        every atom's position (`meets_everything`).  That stop is exact:
        every later condition has an atom below it, that atom lies in the
        reach, so the condition is compatible with a kept member and the
        pass would skip it anyway.
        """
        n = len(self._elements)
        order = list(range(n))
        getrandbits = rng.getrandbits
        for i in range(n - 1, 0, -1):
            k = (i + 1).bit_length()
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            order[i], order[j] = order[j], order[i]
        masks = list(self.down_mask.values())
        chosen: list[Condition] = []
        union = 0  # reach of the chosen members
        for i in order:
            if masks[i] & union == 0:
                chosen.append(self._elements[i])
                union |= masks[i]
                if self.meets_everything(union):
                    break
        return frozenset(chosen)


@dataclass(frozen=True)
class Stratification:
    """An increasing chain of condition sets that exhausts the poset.

    `stabilization_index` is the least level equal to the whole poset.
    Levels beyond the recorded chain repeat the final one.  `ordered` holds
    each level's conditions in canonical order, built once.
    """

    levels: tuple[frozenset[Condition], ...]
    stabilization_index: int
    ordered: tuple[tuple[Condition, ...], ...] = field(compare=False, repr=False)

    def at(self, n: int) -> frozenset[Condition]:
        return self.levels[self._index(n)]

    def ordered_at(self, n: int) -> tuple[Condition, ...]:
        """Level n in canonical order."""
        return self.ordered[self._index(n)]

    def _index(self, n: int) -> int:
        if n < 0:
            raise DataError(f"stratification level must be nonnegative, got {n}")
        return min(n, len(self.levels) - 1)


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
    ordered = tuple(tuple(p for p in poset.elements if p in level) for level in frozen)
    return Stratification(tuple(frozen), stabilization, ordered)


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
        pairs = {(q, frozenset(u)) for q, u in self.pairs}
        keys = {u: set_key(u) for u in {u for _, u in pairs}}  # one sort per distinct value set
        norm = tuple(sorted(pairs, key=lambda pair: (pair[0], keys[pair[1]])))
        object.__setattr__(self, "pairs", norm)

    def conditions(self) -> tuple[Condition, ...]:
        return tuple(q for q, _ in self.pairs)

    def to_text(self, memo: TextMemo) -> str:
        return pairs_text(self.pairs, memo)

    def to_jsonable(self) -> list[dict]:
        return json.loads(self.to_text(TextMemo()))


def pairs_text(pairs: Iterable[tuple[Condition, frozenset[str]]], memo: TextMemo) -> str:
    """Canonical JSON text of (condition, set) pairs in the given order: one
    {"condition", "set"} object per pair, the layout of a name."""
    quoted, sets = memo.quoted, memo.sets
    return array_text([f'{{"condition":{quoted[q]},"set":{sets[u]}}}' for q, u in pairs])


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
    down_mask = poset.down_mask
    bit = 1 << poset.sort_key(atom)
    if down_mask[atom] != bit:
        raise DataError(f"evaluation point must be an atom, got {atom!r}")
    try:
        return sorted_sets(u for q, u in name.pairs if down_mask[q] & bit)
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
class RefinesName:
    """Holds at an atom when each set evaluated from `finer` is contained in
    some set evaluated from `coarser`."""

    finer: Name
    coarser: Name


Statement = ExistsSupersetInCover | RefinesName


def statement_holds_at(poset: Poset, statement: Statement, atom: Condition) -> bool:
    """Evaluate a statement in the extension determined by one atom.

    Every name of the statement is evaluated in full, so each of its
    conditions is validated."""
    if isinstance(statement, ExistsSupersetInCover):
        return any(statement.lower <= u for u in evaluate_name(poset, statement.name, atom))
    if isinstance(statement, RefinesName):
        coarse = evaluate_name(poset, statement.coarser, atom)
        return all(any(u <= v for v in coarse) for u in evaluate_name(poset, statement.finer, atom))
    raise DataError(f"unknown statement type: {type(statement).__name__}")


def value_masks(poset: Poset, name: Name) -> dict[frozenset[str], int]:
    """One atom mask per distinct value set of the name, in canonical order.

    The mask of U is the union of `atom_mask[q]` over the pairs (q, U), so
    bit j is set exactly when U is among the sets evaluated at atoms[j].
    The lookup of each pair's condition doubles as validation.
    """
    atom_mask = poset.atom_mask
    masks: dict[frozenset[str], int] = {}
    try:
        for q, u in name.pairs:
            masks[u] = masks.get(u, 0) | atom_mask[q]
    except KeyError:
        validate_name(poset, name)  # raises DataError naming the unknown condition
        raise
    return {u: masks[u] for u in sorted(masks, key=set_key)}


def superset_mask(masks: dict[frozenset[str], int], lower: frozenset[str]) -> int:
    """The atoms where some value set of a `value_masks` table contains `lower`."""
    out = 0
    for u, mask in masks.items():
        if lower <= u:
            out |= mask
    return out


def truth(poset: Poset, statement: Statement) -> int:
    """The atom mask of a statement: bit j is set when it holds at atoms[j].

    Read off the names' value masks, never by evaluating at an atom: the
    superset statement holds where some value containing the lower set is
    evaluated, and `finer` refines `coarser` where each evaluated finer
    value has an evaluated coarser superset.
    """
    if isinstance(statement, ExistsSupersetInCover):
        return superset_mask(value_masks(poset, statement.name), statement.lower)
    if isinstance(statement, RefinesName):
        coarse = value_masks(poset, statement.coarser)
        mask = (1 << len(poset.atoms)) - 1
        for u, present in value_masks(poset, statement.finer).items():
            mask &= ~present | superset_mask(coarse, u)
        return mask
    raise DataError(f"unknown statement type: {type(statement).__name__}")


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
