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
`Poset.from_pairs` maps to positions.  The constructor closes the given
masks, so `down_mask[p]` has bit i set when the condition at canonical
position i lies below p, and `atom_mask[p]` has bit j set when `atoms[j]`
lies below p.  Down masks carry the order, the positions of witnesses and
the oracles below.  `self_least` marks the self-least positions, those
whose own bit is the lowest bit of their down mask: a self-least condition
that forces a statement is its own least witness.  The built-in posets list
stronger conditions later, so every position of theirs is self-least; an
explicit poset that lists a stronger condition first has fewer.  A
`Stratification` keeps each level's position mask beside its conditions in
canonical order, built once with the stratification.

Atom masks are the one compatibility kernel.  Every common lower bound has
an atom below it, so p and q are compatible exactly when `atom_mask[p] &
atom_mask[q]` is nonzero, and a set is a maximal antichain exactly when
its members' atom masks are disjoint and together hold every atom
(`atoms_below`).  `compatible`, `is_antichain`, `is_maximal_antichain`,
`maximal_antichains` and `random_maximal_antichain` all read them;
the last makes exactly the draws of `random.Random.shuffle` first.
`atom_up[j]`, built on first use, marks by position the conditions above
`atoms[j]`, and `above_atoms` unions it over an atom mask, so the
conditions compatible with p are `above_atoms(atom_mask[p])`.

Names are read through `value_masks`: one atom mask per distinct value
set, the union of `atom_mask[q]` over the pairs (q, U).  `superset_mask`
and `refinement_mask` combine these into the atoms where a statement
holds, and `names.forcing_mask` turns such a mask into the conditions
forcing it; this is the route the pipeline takes.  Beside it stand the
frozenset oracles, which read no atom mask: `evaluate_name` evaluates a
name at one atom, pair by pair, `statement_holds_at` a statement, and
`forces`, the definition, checks the statement at every atom below p.
`forces_dense`, with the `is_dense_below` it rests on, decides the
superset statement by density without evaluating at atoms.

A `Poset` is read-only after construction: no caller writes its masks, so
one built-in poset can be shared by every command of a process.  Its three
lazy members, `atom_up`, `identifier_order` (the positions sorted by
identifier) and `text_table` (its conditions' canonical text, see
`canon.TextTable`), are pure functions of the poset: building them changes
no result.
"""

from __future__ import annotations

import json
import random
from functools import cached_property
from operator import lt
from typing import Iterable, NamedTuple, Sequence

from .bounds import DEFAULT_LIMITS, Limits
from .canon import TextMemo, TextTable, joined, set_key, sorted_sets, write_array
from .errors import DataError, ResourceError

Condition = str

# The most maximal antichains `Poset.maximal_antichains` enumerates.  Their
# number can be exponential in the conditions (4^g for g groups of a
# condition below three others), so `max_poset` alone does not bound it.
MAX_ANTICHAINS = 100_000


class AntichainCapReport(NamedTuple):
    """The partial report of an enumeration stopped past `MAX_ANTICHAINS`."""

    reached: int
    cap: int

    def to_jsonable(self) -> dict:
        return {"antichains_reached": self.reached, "cap": self.cap}


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
        # the self-least positions: those whose own bit is the lowest bit of
        # their down mask, so no stronger condition is listed before them
        self.self_least = sum(1 << i for i, mask in enumerate(down) if not mask & ((1 << i) - 1))
        self._atoms = tuple(p for i, p in enumerate(self._elements) if down[i] == 1 << i)
        atom_bit = {1 << pos[a]: 1 << j for j, a in enumerate(self._atoms)}
        atom_positions = sum(atom_bit)
        masks = []
        for mask in down:
            rest = mask & atom_positions
            bits = 0
            while rest:
                low = rest & -rest
                rest ^= low
                bits |= atom_bit[low]
            masks.append(bits)
        self._atom_masks = tuple(masks)  # `atom_mask` by canonical position
        self.atom_mask = dict(zip(self._elements, masks))

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
        for i, rest in enumerate(self._atom_masks):
            while rest:
                low = rest & -rest
                rest ^= low
                up[low.bit_length() - 1] |= 1 << i
        return tuple(up)

    @cached_property
    def identifier_order(self) -> tuple[int, ...]:
        """The positions sorted by condition identifier, the order a name's
        pairs take by condition; built on first use."""
        return tuple(sorted(range(len(self._elements)), key=self._elements.__getitem__))

    @cached_property
    def text_table(self) -> TextTable:
        """The canonical text of the conditions, shared by every certificate
        over the poset: each condition's string literal, and each level's
        identity skeleton once it is asked for; built on first use."""
        return TextTable(self._elements)

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
        """True when p and q have a common lower bound, that is, when some
        atom lies below both."""
        self.require(p)
        self.require(q)
        return self.atom_mask[p] & self.atom_mask[q] != 0

    def atoms_below(self, conditions: Iterable[Condition]) -> int:
        """Atom mask of the atoms below some member of the set, so p is
        compatible with some member exactly when `atom_mask[p]` meets it."""
        atoms = 0
        for q in conditions:
            self.require(q)
            atoms |= self.atom_mask[q]
        return atoms

    def is_antichain(self, conditions: Iterable[Condition]) -> bool:
        items = list(conditions)
        for p in items:
            self.require(p)
        union = 0  # atoms below the items before p
        for p in items:
            if self.atom_mask[p] & union:
                return False
            union |= self.atom_mask[p]
        return True

    def is_maximal_antichain(self, conditions: Iterable[Condition]) -> bool:
        """Antichain such that every condition is compatible with a member:
        every condition has an atom below it, so this holds exactly when
        the members' atoms are every atom."""
        items = frozenset(conditions)
        return self.is_antichain(items) and self.atoms_below(items) == (1 << len(self._atoms)) - 1

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
        random_maximal_antichain for those.  Past `MAX_ANTICHAINS` it raises
        ResourceError with an `AntichainCapReport` as its partial report.
        """
        n = len(self._elements)
        if n > limits.max_poset:
            raise ResourceError(
                f"exhaustive antichain enumeration capped at max_poset={limits.max_poset} conditions, got {n}")
        masks = self._atom_masks
        incompat = [{j for j in range(n) if masks[i] & masks[j] == 0} for i in range(n)]
        found: list[frozenset[Condition]] = []

        def extend(clique: list[int], cand: set[int], excl: set[int]) -> None:
            if not cand and not excl:
                found.append(frozenset(self._elements[i] for i in clique))
                if len(found) > MAX_ANTICHAINS:
                    raise ResourceError(f"exhaustive antichain enumeration capped at "
                                        f"{MAX_ANTICHAINS} maximal antichains, reached {len(found)}",
                                        AntichainCapReport(len(found), MAX_ANTICHAINS))
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
        it consumes the same bits.  That width is k for every i from
        2^(k−1)−1 to 2^k−2, so the steps run in blocks of one width each,
        widest first, and no step computes its own.  The greedy pass runs
        over the atom masks in the shuffled order: p and q are compatible
        exactly when some atom lies below both, so p is kept when its atom
        mask misses the union of the kept members' masks.  The pass stops
        once that union holds every atom.  The stop is exact: every later
        condition has an atom below it, that atom lies below a kept member,
        so the pass would skip the condition anyway.  It reads the masks by
        position from a tuple the constructor builds, so a draw copies no
        mask table.
        """
        elements = self._elements
        n = len(elements)
        order = list(range(n))
        getrandbits = rng.getrandbits
        hi = n - 1
        for k in range(n.bit_length(), 1, -1):
            lo = (1 << (k - 1)) - 1  # the least i drawn with k bits
            for i in range(hi, lo - 1, -1):
                j = getrandbits(k)
                while j > i:
                    j = getrandbits(k)
                order[i], order[j] = order[j], order[i]
            hi = lo - 1
        masks = self._atom_masks
        everything = (1 << len(self._atoms)) - 1
        chosen: list[Condition] = []
        union = 0  # atoms below the chosen members
        for i in order:
            mask = masks[i]
            if mask & union == 0:
                chosen.append(elements[i])
                union |= mask
                if union == everything:
                    break
        return frozenset(chosen)


class Stratification(NamedTuple):
    """An increasing chain of condition sets that exhausts the poset.

    `stabilization_index` is the least level equal to the whole poset.
    Levels beyond the recorded chain repeat the final one.  `ordered` holds
    each level's conditions in canonical order and `masks` each level's
    position mask, both built once.
    """

    levels: tuple[frozenset[Condition], ...]
    stabilization_index: int
    ordered: tuple[tuple[Condition, ...], ...]
    masks: tuple[int, ...]

    def at(self, n: int) -> frozenset[Condition]:
        return self.levels[self._index(n)]

    def ordered_at(self, n: int) -> tuple[Condition, ...]:
        """Level n in canonical order."""
        return self.ordered[self._index(n)]

    def mask_at(self, n: int) -> int:
        """Level n's position mask."""
        return self.masks[self._index(n)]

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
    masks = tuple(sum(1 << poset.sort_key(p) for p in level) for level in frozen)
    return Stratification(tuple(frozen), stabilization, ordered, masks)


# -- names and statements ---------------------------------------------------


class Name(NamedTuple):
    """A condition indexed family of value sets.

    A pair (q, U) contributes U to the evaluation at every atom below q.
    A canonical name holds its pairs without duplicates, ordered by (q,
    set_key(U)), each U a frozenset, so names compare and hash structurally.
    The constructor, `_make` and `_replace` take the pairs as given:
    `canonical` builds a name from pairs in any order where names enter the
    program, and the program builds its own names in canonical order.
    """

    pairs: tuple[tuple[Condition, frozenset[str]], ...]

    @classmethod
    def canonical(cls, pairs: Iterable[tuple[Condition, Iterable[str]]]) -> "Name":
        """The name of the pairs in canonical order.  Pairs already in that
        order, as every name read back from canonical text is, are kept as
        given after one pass that sees their (q, rank of U) keys strictly
        increase, U ranked among the name's distinct value sets in `set_key`
        order."""
        pairs = [(q, frozenset(u)) for q, u in pairs]
        rank = {u: r for r, u in enumerate(sorted({u for _, u in pairs}, key=set_key))}
        order = [(q, rank[u]) for q, u in pairs]
        if not all(map(lt, order, order[1:])):  # out of order or duplicated
            pairs = sorted(set(pairs), key=lambda pair: (pair[0], rank[pair[1]]))
        return cls(tuple(pairs))

    def conditions(self) -> tuple[Condition, ...]:
        return tuple(q for q, _ in self.pairs)

    def write(self, out: list[str], memo: TextMemo) -> None:
        """Append the canonical JSON text, the one layout of a name: one
        {"condition", "set"} object per pair, in the pairs' order."""
        quoted, sets = memo.quoted, memo.sets
        write_array(out, [f'{{"condition":{quoted[q]},"set":{sets[u]}}}' for q, u in self.pairs])

    def to_text(self, memo: TextMemo) -> str:
        return joined(self.write, memo)

    def to_jsonable(self) -> list[dict]:
        return json.loads(self.to_text(TextMemo()))


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


class ExistsSupersetInCover(NamedTuple):
    """Holds at an atom when some evaluated set contains `lower`."""

    name: Name
    lower: frozenset[str]


class RefinesName(NamedTuple):
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
    The name's conditions are trusted to belong to the poset: a name from
    outside has passed `names.check_cover_name`, and the program builds
    the others from the poset's own conditions.
    """
    atom_mask = poset.atom_mask
    masks: dict[frozenset[str], int] = {}
    for q, u in name.pairs:
        masks[u] = masks.get(u, 0) | atom_mask[q]
    return {u: masks[u] for u in sorted(masks, key=set_key)}


def superset_mask(masks: dict[frozenset[str], int], lower: frozenset[str]) -> int:
    """The atoms where some value set of a `value_masks` table contains `lower`."""
    out = 0
    for u, mask in masks.items():
        if lower <= u:
            out |= mask
    return out


def refinement_mask(
    poset: Poset, finer: dict[frozenset[str], int], coarser: dict[frozenset[str], int],
) -> int:
    """The atoms where the name of the `finer` value masks refines the name
    of the `coarser` ones: each evaluated finer value has an evaluated
    coarser superset."""
    mask = (1 << len(poset.atoms)) - 1
    for u, present in finer.items():
        mask &= ~present | superset_mask(coarser, u)
    return mask


def forces(poset: Poset, p: Condition, statement: Statement) -> bool:
    """True when the statement holds at every atom below p: the definition,
    evaluated atom by atom, with no mask read."""
    below = poset.down(p)
    return all(statement_holds_at(poset, statement, a) for a in poset.atoms if a in below)


def forces_dense(poset: Poset, p: Condition, name: Name, lower: Iterable[str]) -> bool:
    """Independent density oracle for the superset statement.

    p forces that some evaluated set contains `lower` exactly when the set
    of witnessing conditions {s : some pair (q, U) has s <= q and lower a
    subset of U} is dense below p.  This route never evaluates the name at
    an atom and reads no atom mask, so it cross checks both `forces` and
    the pipeline's forcing masks.
    """
    validate_name(poset, name)
    poset.require(p)
    lower = frozenset(lower)
    witnesses = set()
    for q, u in name.pairs:
        if lower <= u:
            witnesses.update(poset.down(q))
    return poset.is_dense_below(witnesses, p)
