"""Cover names and the approximation / refinement machinery.

A cover name is a name whose value sets are basic open sets and which is
forced to cover the space: for every point, the conditions committing the
point into some value set are dense.  From a valid cover name and an
endowment family one builds, level by level, a ground model open cover
approximating the named one, then a refined name whose evaluations land
inside a chosen ground family.  Certificates record the dense witnesses so
independent replays can confirm every step.

Every step reads names through their value masks (`poset.value_masks`, one
atom mask per distinct value set).  The atom mask of "some named set
contains V" is the union of the masks of the values containing V, and its
forcing mask marks, by canonical position, the conditions whose atoms all
lie inside it.  The least witness below p is then the lowest bit of
`down_mask[p]` and the forcing mask.  A condition that forces and is
self-least (`poset.self_least`: no stronger condition comes before it) is
its own least witness; every condition of a built-in poset is self-least.
Each level has one `WitnessTable`, built first from its name: every step
of the level reads its inputs from it.  It tables the name's value masks
once, computes each asked set's forcing mask once, and builds a run of
least witnesses over the level's conditions once per distinct forcing
mask, since the run depends on nothing else.  The run searches only the
level conditions, read off the level's position mask
(`Stratification.mask_at`), that are not self-least forcing ones; the
others are their own entries.  Both certificates of a level read the same
table, the approximation for its cover pieces and the refinement for its
ground sets, so sets with equal masks, and a set that is both, share one
search and one run; a ground set outside the cover gets its run from the
same table.  The certificates keep the runs, and derive their (set,
condition, witness) `triples` on demand; their writers lay each distinct
run's triples out once as a text skeleton, patched from the level's
identity skeleton where a witness differs from its condition, and join it
with each set's field (see `canon.TextMemo`).  The table's one pass over
the name's pairs also tables each value set's reach, the union of its
conditions' down masks.  The approximation builds its level in one pass
over the points: a point's commitment mask is the union of the reaches of
the values holding it, and `point_antichain`, the one greedy antichain
builder, checks each distinct mask once: its density against the atoms'
positions, its greedy scan, which drops each member's row of
`poset.compatible_masks`, and the scan's maximality from the members'
atom masks (`poset.atom_masks`).  Each distinct antichain is extracted
once, and a point's piece intersects the least values holding the members
used, never looking up another member's.  `derive_point_names`, which
`approx` prints, shares the helper and lists every member's committed
set.  The refined name pairs each ground set with the conditions of its
forcing mask.  Each set's mask becomes 0/1 bytes in identifier order
(`poset.identifier_order`), one column of the level's selector grid over
(condition, set) in the name's canonical order, and everything else is
read off that grid with no condition tested bit by bit: `compress` picks
the pairs, each set's value mask is the union of its column's selected
atom masks, and the certificate's `refined_names` text is one join of the
selected (pair head, set tail) cells per level.  The pipeline closes with
one pass over those masks that reads every closing fact (subfamily flags,
atom rows, covering verdict).  The frozenset oracles of `poset`
(`evaluate_name`, `forces`, `forces_dense`) stay out of these steps; they
serve the tests, and `selftest`'s oracle sweep, which checks this
module's forcing masks and `poset.refinement_mask` against them.  A
check that only a program fault can trip raises `errors.InvariantError`.
"""

from __future__ import annotations

import json
from functools import reduce
from itertools import chain, compress, product, repeat
from operator import itemgetter, or_
from typing import Iterable, NamedTuple, Sequence

from .canon import BOOL_TEXT, TextMemo, joined, set_key, sorted_sets, write_array
from .endowment import EndowmentFamily
from .errors import DataError, InvariantError
from .poset import (
    Condition,
    Name,
    Poset,
    Stratification,
    forces,  # unused here; kept so `names.forces` stays a binding the benchmark tracer rebinds
    refinement_mask,
    superset_mask,
    validate_name,
)
from .topology import FiniteSpace


def check_cover_name(poset: Poset, space: FiniteSpace, name: Name) -> None:
    """Check a name in place as a cover name's input: every condition must
    belong to the poset, checked first, and every value set to the
    subbase.  Raises DataError at the first failure.  Density, the rest of
    being a cover name, is checked by `point_antichain`, which
    `approximate` and `derive_point_names` call."""
    validate_name(poset, name)
    basic = set(space.base)
    for _, u in name.pairs:
        if u not in basic:
            raise DataError(f"cover name value {sorted(u)} is not a basic open set")


def point_commitments(table: WitnessTable, space: FiniteSpace):
    """Per point, in order: the point, the (value, reach) pairs of the values
    holding it in `set_key` order, and its commitment mask, the union of
    their reaches (`WitnessTable.reach`)."""
    reach = table.reach
    for x in sorted(space.points):
        values = [(u, r) for u, r in reach.items() if x in u]
        yield x, values, reduce(or_, [r for _, r in values], 0)


def point_antichain(poset: Poset, committed: int, x: str) -> list[int]:
    """The positions of the greedy antichain of point x's commitment mask,
    checked: the one place a commitment mask is scanned.

    A commitment mask is down closed, so it is dense exactly when it holds
    every atom (`poset.atom_positions`); one that is not raises DataError
    naming the point.  The greedy canonical scan keeps the lowest remaining
    position, then drops the positions compatible with it, read from
    `poset.compatible_masks`.  The scan drops the kept position itself too,
    so it ends whatever the table holds.  Density makes the result maximal
    in the whole poset, which is verified rather than assumed from the
    members' atom masks (`poset.atom_masks`): they must be pairwise
    disjoint and hold every atom between them.  An antichain that is not
    maximal is a program fault and raises InvariantError.
    """
    atoms = poset.atom_positions
    if committed & atoms != atoms:
        raise DataError(f"name is not a valid cover name; point {x!r} lacks dense commitments")
    compatible, atom_masks = poset.compatible_masks, poset.atom_masks
    positions = []
    rest = committed
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        positions.append(i)
        rest &= ~(low | compatible[i])
    reached = overlap = 0  # the atoms below the members so far, and those met twice
    for i in positions:
        overlap |= reached & atom_masks[i]
        reached |= atom_masks[i]
    if overlap or reached != (1 << len(poset.atoms)) - 1:
        raise InvariantError(f"point {x!r}: greedy antichain is not maximal")
    return positions


def least_values(
    values: list[tuple[frozenset[str], int]], wanted: int,
) -> list[tuple[frozenset[str], int]]:
    """The committed sets at the wanted positions.  A position's is the
    first of the (value, reach) pairs, in `set_key` order, whose reach
    holds it; each such value comes once, as (value, the wanted positions
    it is the first for), in `set_key` order."""
    least = []
    for u, r in values:
        if mine := r & wanted:
            least.append((u, mine))
            wanted ^= mine
            if not wanted:
                break
    return least


class PointName(NamedTuple):
    """Per point data: a maximal antichain of commitment conditions and, for
    each of its members, the canonically least value set committed below it."""

    point: str
    antichain: tuple[Condition, ...]
    values: tuple[tuple[Condition, frozenset[str]], ...]

    def to_jsonable(self) -> dict:
        return {
            "point": self.point,
            "antichain": list(self.antichain),
            "values": Name(self.values).to_jsonable(),
        }


def derive_point_names(table: WitnessTable, space: FiniteSpace) -> tuple[PointName, ...]:
    """The per point antichains and every member's committed set for the
    table's name, a valid name whose conditions `check_cover_name` has
    checked: what `approx` prints, and what `approximate` reads only for
    the members it uses.

    Each point's commitment mask comes from the reaches the table holds
    (`point_commitments`); `point_antichain` checks it and scans its
    antichain once per distinct mask, raising DataError at the first point
    that is not densely committed.  A member's committed set is the least
    value, in `set_key` order, whose reach holds the member's position.
    """
    elements = table.poset.elements
    # commitment mask -> antichain, its members' position bits, their union
    greedy: dict[int, tuple[tuple[Condition, ...], list[int], int]] = {}
    out = []
    for x, values, committed in point_commitments(table, space):
        found = greedy.get(committed)
        if found is None:
            positions = point_antichain(table.poset, committed, x)
            bits = [1 << i for i in positions]
            found = greedy[committed] = tuple([elements[i] for i in positions]), bits, sum(bits)
        antichain, bits, wanted = found
        least = least_values(values, wanted)
        committed_sets = [next(u for u, mine in least if mine & bit) for bit in bits]
        out.append(PointName(x, antichain, tuple(zip(antichain, committed_sets))))
    return tuple(out)


class Approximation(NamedTuple):
    """A level-n ground cover: per point, the family members used and the
    intersection of their committed sets."""

    level: int
    entries: tuple[tuple[str, tuple[Condition, ...], frozenset[str]], ...]
    cover: tuple[frozenset[str], ...]

    def write(self, out: list[str], memo: TextMemo) -> None:
        """Append the canonical JSON text, the one layout of an
        approximation; `used` keeps its canonical poset order."""
        quoted, sets = memo.quoted, memo.sets
        out.append('{"cover":')
        write_array(out, [sets[v] for v in self.cover])
        out.append(',"entries":')
        write_array(out, [
            f'{{"piece":{sets[v]},"point":{quoted[x]},'
            f'"used":[{",".join([quoted[p] for p in used])}]}}'
            for x, used, v in self.entries])
        out.append(f',"level":{self.level}}}')

    def to_text(self, memo: TextMemo) -> str:
        return joined(self.write, memo)

    def to_jsonable(self) -> dict:
        return json.loads(self.to_text(TextMemo()))


def approximate(table: WitnessTable, space: FiniteSpace, family: EndowmentFamily) -> Approximation:
    """The cover at the table's level, in one pass over the points: for
    each point, extract a family member from its antichain and intersect
    the committed sets of the members used.

    The table's name is a name whose conditions `check_cover_name` has
    checked.  Each point's commitment mask comes from the table's reaches
    (`point_commitments`), and `point_antichain` checks it and scans its
    antichain once per distinct mask, raising DataError at the first point
    that is not densely committed.  The extraction, its two checks and the
    members used, in canonical order, are worked out once per distinct
    antichain, the first time a point brings it; an extraction that is
    empty or leaves its antichain is a program fault and raises
    InvariantError, naming that point.  Each point then reads the committed
    set of each member used, the least value holding its position
    (`least_values`), and intersects them; the other members' committed
    sets, which `derive_point_names` lists, are never looked up.  Each
    piece contains its point, so the result covers the space.
    """
    poset, n = table.poset, table.level
    elements, sort_key = poset.elements, poset.sort_key
    # commitment mask, and antichain positions, -> the members used and their position mask
    by_mask: dict[int, tuple[tuple[Condition, ...], int]] = {}
    by_antichain: dict[tuple[int, ...], tuple[tuple[Condition, ...], int]] = {}
    entries = []
    pieces = []
    for x, values, committed in point_commitments(table, space):
        used = by_mask.get(committed)
        if used is None:
            positions = tuple(point_antichain(poset, committed, x))
            used = by_antichain.get(positions)
            if used is None:
                antichain = frozenset([elements[i] for i in positions])
                chosen = family.extract(n, antichain)
                if not chosen:
                    raise InvariantError(f"family extraction for point {x!r} is empty")
                if not chosen <= antichain:
                    raise InvariantError(f"family extraction for point {x!r} leaves the antichain")
                kept = sorted(map(sort_key, chosen))
                used = tuple([elements[i] for i in kept]), sum([1 << i for i in kept])
                by_antichain[positions] = used
            by_mask[committed] = used
        members, wanted = used
        piece = frozenset.intersection(*[u for u, _ in least_values(values, wanted)])
        entries.append((x, members, piece))
        pieces.append(piece)
    return Approximation(n, tuple(entries), sorted_sets(pieces))


def forcing_mask(poset: Poset, truth_mask: int) -> int:
    """The conditions forcing a statement with this truth mask, by position:
    bit i is set when every atom below elements[i] lies inside the mask,
    that is, when elements[i] lies above no atom outside it.  So the mask is
    every position minus `above_atoms` of those atoms."""
    outside = ~truth_mask & ((1 << len(poset.atoms)) - 1)
    return ((1 << len(poset)) - 1) & ~poset.above_atoms(outside)


class WitnessTable:
    """One level's inputs and witness data, read by every step of the level.

    Built from the level's name in one pass over its pairs, which tables,
    per distinct value set U in `set_key` order, its value mask (`masks`,
    as `poset.value_masks` defines it) and its reach (`reach`: the union of
    `down_mask[q]` over the pairs (q, U), the conditions committing some
    point into U).  For a set h, `forcing(h)` is the forcing mask of "some named set contains h",
    computed the first time h is asked for, and `run(h)` the least
    witnesses of h below the level's conditions, in canonical order, up to
    the first condition without one.  A run depends on the set only through
    its forcing mask, so runs are keyed by mask: sets with equal masks, and
    a set that is both a cover piece and a ground set, share one search and
    one run tuple.  A table serves one level of one run.
    """

    __slots__ = ("poset", "level", "name", "conditions", "level_mask", "masks", "reach",
                 "_forcing", "_runs")

    def __init__(self, poset: Poset, strat: Stratification, n: int, name: Name):
        self.poset = poset
        self.level = n
        self.name = name
        self.conditions = strat.ordered_at(n)
        self.level_mask = strat.mask_at(n)
        atom_mask, down_mask = poset.atom_mask, poset.down_mask
        masks: dict[frozenset[str], int] = {}
        reach: dict[frozenset[str], int] = {}
        for q, u in name.pairs:
            if u in masks:
                masks[u] |= atom_mask[q]
                reach[u] |= down_mask[q]
            else:
                masks[u] = atom_mask[q]
                reach[u] = down_mask[q]
        order = sorted(masks, key=set_key)
        self.masks = {u: masks[u] for u in order}
        self.reach = {u: reach[u] for u in order}
        self._forcing: dict[frozenset[str], int] = {}
        self._runs: dict[int, tuple[Condition, ...]] = {}  # forcing mask -> run

    def forcing(self, h: frozenset[str]) -> int:
        mask = self._forcing.get(h)
        if mask is None:
            mask = self._forcing[h] = forcing_mask(self.poset, superset_mask(self.masks, h))
        return mask

    def run(self, h: frozenset[str]) -> tuple[Condition, ...]:
        """Position bits run in canonical order, so the least witness below p
        is the lowest bit of `down_mask[p]` and the forcing mask.  A level
        condition in the forcing mask and in `poset.self_least` is its own
        least witness, so only the other level conditions are searched, in
        canonical order.  The first of them without a witness ends the run
        at its index in the level; otherwise the run is the level's
        conditions with the searched ones replaced by their witnesses."""
        forcing = self.forcing(h)
        run = self._runs.get(forcing)
        if run is None:
            poset, level_mask = self.poset, self.level_mask
            elements, down_mask = poset.elements, poset.down_mask
            found: dict[Condition, Condition] = {}  # searched condition -> its witness
            head = self.conditions
            rest = level_mask & ~(forcing & poset.self_least)
            while rest:
                bit = rest & -rest
                rest ^= bit
                p = elements[bit.bit_length() - 1]
                hits = down_mask[p] & forcing
                if not hits:
                    head = head[:(level_mask & (bit - 1)).bit_count()]
                    break
                found[p] = elements[(hits & -hits).bit_length() - 1]
            run = self._runs[forcing] = tuple(map(found.get, head, head)) if found else head
        return run


# a set and its run of least witnesses, one per level condition in turn
Run = tuple[frozenset[str], tuple[Condition, ...]]


def level_witnesses(
    table: WitnessTable, sets: Iterable[frozenset[str]],
) -> tuple[tuple[Run, ...], tuple[tuple[str, ...], Condition] | None]:
    """The (set, run) pairs of the table for the given sets in order,
    stopping after the first set whose run misses a level condition p,
    which is returned as (set key, p); a lazy iterable asks for no later
    set."""
    conditions = table.conditions
    runs = []
    for h in sets:
        run = table.run(h)
        runs.append((h, run))
        if len(run) < len(conditions):
            return tuple(runs), (set_key(h), conditions[len(run)])
    return tuple(runs), None


class LevelWitnesses:
    """Dense witnesses at one level: for each set of `runs`, the least
    witness below each of the level's `conditions` in turn, as
    `level_witnesses` returns them.  A mixin over each certificate's own
    fields, which start with `level`, `conditions`, `runs` and
    `counterexample`, and its own `write`."""

    __slots__ = ()

    @property
    def triples(self) -> tuple[tuple[tuple[str, ...], Condition, Condition], ...]:
        """One (set key, condition, witness) triple per witness, run by run."""
        conditions = self.conditions
        return tuple(chain.from_iterable(
            zip(repeat(set_key(h)), conditions, run) for h, run in self.runs))

    def _write_triples(self, out: list[str], memo: TextMemo, field: str) -> None:
        """Append the JSON array of the triples, the set under `field`.  A
        run's triples are its skeleton (see `TextMemo.skeletons`) joined by
        the set's field; an empty run writes nothing.  The level's
        skeletons are looked up once."""
        skeletons, sets = memo.skeletons[self.conditions], memo.sets
        key = f',"{field}":'
        write_array(out, [(key + sets[h]).join(skeletons[run]) for h, run in self.runs if run])

    def _counterexample_text(self, memo: TextMemo, field: str) -> str:
        counter = self.counterexample
        if counter is None:
            return "null"
        return f'{{"condition":{memo.quoted[counter[1]]},"{field}":{memo.sets[counter[0]]}}}'

    def to_text(self, memo: TextMemo) -> str:
        """Canonical JSON text, laid out by the certificate's `write`."""
        return joined(self.write, memo)

    def to_jsonable(self) -> dict:
        return json.loads(self.to_text(TextMemo()))


class _ApproxFields(NamedTuple):
    level: int
    conditions: tuple[Condition, ...]
    runs: tuple[Run, ...]
    counterexample: tuple[tuple[str, ...], Condition] | None


class ApproxCertificate(LevelWitnesses, _ApproxFields):
    """Dense domination witnesses: for each piece and each level condition,
    the canonically least extension forcing the piece into the named cover."""

    __slots__ = ()

    @property
    def positive(self) -> bool:
        return self.counterexample is None

    def write(self, out: list[str], memo: TextMemo) -> None:
        """Append the canonical JSON text, the one layout of this certificate."""
        out.append(f'{{"counterexample":{self._counterexample_text(memo, "piece")},'
                   f'"level":{self.level},"positive":{BOOL_TEXT[self.positive]},"triples":')
        self._write_triples(out, memo, "piece")
        out.append("}")


def check_approximation(table: WitnessTable, cover: Iterable[frozenset[str]]) -> ApproxCertificate:
    """For every piece V of the cover and level condition p, find r <= p
    forcing that some named set contains V.  Negative certificates carry the
    first failure."""
    runs, counterexample = level_witnesses(table, cover)
    return ApproxCertificate(table.level, table.conditions, runs, counterexample)


class _RefineFields(NamedTuple):
    level: int
    conditions: tuple[Condition, ...]
    runs: tuple[Run, ...]
    counterexample: tuple[tuple[str, ...], Condition] | None
    refine_counterexample: Condition | None  # atom where refinement fails
    # the refined name's selector grid (family, selectors); not a section
    grid: tuple[tuple[frozenset[str], ...], bytes] = ((), b"")


class RefineCertificate(LevelWitnesses, _RefineFields):
    """Witnesses for the two refinement clauses: evaluations refine the
    source name at every atom, and every ground set is forced in densely
    below the level."""

    __slots__ = ()

    @property
    def refines_everywhere(self) -> bool:
        return self.refine_counterexample is None

    @property
    def positive(self) -> bool:
        return self.refines_everywhere and self.counterexample is None

    def write(self, out: list[str], memo: TextMemo) -> None:
        """Append the canonical JSON text, the one layout of this certificate."""
        bad_atom = self.refine_counterexample
        out.append(f'{{"counterexample":{self._counterexample_text(memo, "set")},'
                   f'"level":{self.level},"positive":{BOOL_TEXT[self.positive]},'
                   f'"refine_counterexample":{"null" if bad_atom is None else memo.quoted[bad_atom]},'
                   f'"refines_everywhere":{BOOL_TEXT[self.refines_everywhere]},"triples":')
        self._write_triples(out, memo, "set")
        out.append("}")

    def refined_text(self, memo: TextMemo) -> str:
        """The refined name's canonical JSON text, read off the grid that
        built it: the selected cells of (pair head, set tail), rows in
        identifier order and sets in `set_key` order, joined once.  The
        heads come from the memo's table, which must be the poset's
        (`Poset.text_table`): heads that do not fill the grid's rows are a
        program fault and raise InvariantError.  Each tail is a set's
        field and the comma after the pair, and the last comma gives way
        to the bracket."""
        family, selectors = self.grid
        heads = memo.table.pair_heads
        if len(heads) * len(family) != len(selectors):
            raise InvariantError("the text table's pair heads are not the selector grid's rows")
        sets = memo.sets
        tails = [sets[h] + "}," for h in family]
        text = "".join(chain.from_iterable(compress(product(heads, tails), selectors)))
        return "[" + text[:-1] + "]" if text else "[]"


_FLAG_BYTES = bytes.maketrans(b"01", b"\0\1")  # binary digits to 0/1 bytes


def refine_name(
    table: WitnessTable,
    ground_family: Iterable[frozenset[str]],
) -> tuple[Name, RefineCertificate, dict[frozenset[str], int]]:
    """Build the definable refined name over a ground family of open sets.

    The ground sets are trusted to be open in the space: `cli.cmd_refine`
    checks the ones read from `--sets`, and `run_preservation` takes them
    from its selection: cover members that `make_selection_problem`
    checked, or members of `space.opens`.

    The refined name pairs every condition with every ground set it forces
    into the table's name.  Its evaluation at an atom is exactly the ground
    sets dominated there, so it refines the source name at every atom by
    construction; the certificate checks this rather than assuming it, and
    also records the dense witnesses for every ground set at the level.

    One selector grid per level holds the name: a 0/1 byte per (condition,
    ground set) cell, conditions in identifier order and sets in
    `set_key` order.  The pairs are its selected cells; the value mask of
    a set is the union of the atom masks of its column's selected
    conditions, and a set with no selected cell has none.  The masks, read
    for the refinement check, come back with the name and the
    certificate, and the grid rides on the certificate, whose
    `refined_text` writes the name from it.
    """
    poset = table.poset
    family = sorted_sets(frozenset(h) for h in ground_family)
    # the pairs run over the positions in identifier order and, at each,
    # over the family in set_key order: the name's canonical order, which
    # `Name` takes as given.  Set j's forcing mask, as 0/1 bytes in
    # identifier order, fills every width-th selector from j.  `pick` puts
    # a sequence by position into identifier order; with one position that
    # is the identity, and `itemgetter` of one index would return a bare item
    size, width = len(poset), len(family)
    pick = itemgetter(*poset.identifier_order) if size > 1 else tuple
    atom_masks = pick(poset.atom_masks)
    selectors = bytearray(size * width)
    masks = {}
    for j, h in enumerate(family):
        flags = bin(table.forcing(h))[:1:-1].ljust(size, "0").encode().translate(_FLAG_BYTES)
        selectors[j::width] = column = pick(flags)
        # every condition has an atom below it, so a selected cell adds a bit
        mask = reduce(or_, compress(atom_masks, column), 0)
        if mask:
            masks[h] = mask
    refined = Name(tuple(compress(product(pick(poset.elements), family), selectors)))
    missed = ~refinement_mask(poset, masks, table.masks)
    missed &= (1 << len(poset.atoms)) - 1
    bad_atom = poset.atoms[(missed & -missed).bit_length() - 1] if missed else None
    runs, counterexample = level_witnesses(table, family)
    cert = RefineCertificate(table.level, table.conditions, runs, counterexample, bad_atom,
                             (family, bytes(selectors)))
    return refined, cert, masks


class AtomRow(NamedTuple):
    """One certified covering fact: at this atom, this point lies in this
    evaluated set of the refined name at this level."""

    atom: str
    point: str
    level: int | None
    covering: frozenset[str] | None


class PipelineResult(NamedTuple):
    """Per level refined names and certificates, plus the closing pass: per
    level subfamily flags, one row per (atom, point), and the covering check
    at and above the stabilization floor."""

    refined: tuple[Name, ...]
    certificates: tuple[RefineCertificate, ...]
    subfamily_everywhere: tuple[bool, ...]
    atom_table: tuple[AtomRow, ...]
    union_covers: bool

    @property
    def positive(self) -> bool:
        return (
            all(c.positive for c in self.certificates)
            and all(self.subfamily_everywhere)
            and self.union_covers
        )


def run_pipeline(
    tables: Sequence[WitnessTable],
    ground_families: Sequence[Iterable[frozenset[str]]],
    space: FiniteSpace,
    floor: int,
) -> PipelineResult:
    """Refine every level, then certify the result in one pass over the atoms.

    Takes one witness table per level, levels 0, 1, ... in order, and one
    ground family per table; a count that differs, or none, is a program
    fault and raises ValueError.  The closing pass reads the refined
    names' value masks that `refine_name` read off each level's selector
    grid, the grid that also builds the pairs and the text, for its
    refinement check; the evaluation at atoms[j] is the values whose mask
    has bit j.  A row names
    the least level at or above the stabilization floor covering its point,
    or none; the covering statement holds exactly when every row has a
    level.
    """
    families = [sorted_sets(frozenset(h) for h in fam) for fam in ground_families]
    refined, certificates, refined_masks = zip(
        *(refine_name(table, family) for table, family in zip(tables, families, strict=True)))
    # every condition has an atom below it, so every tabled value is evaluated somewhere
    subfamily = tuple(all(u in fam for u in table) for fam, table in zip(families, refined_masks))
    points = sorted(space.points)
    # per point, the (level, set, atom mask) candidates in search order
    candidates = {
        x: [(n, u, mask) for n in range(floor, len(tables))
            for u, mask in refined_masks[n].items() if x in u]
        for x in points
    }
    rows = []
    for j, atom in enumerate(tables[0].poset.atoms):
        bit = 1 << j
        for x in points:
            level, covering = next(((n, u) for n, u, mask in candidates[x] if mask & bit), (None, None))
            rows.append(AtomRow(atom, x, level, covering))
    return PipelineResult(
        refined,
        certificates,
        subfamily,
        tuple(rows),
        all(row.level is not None for row in rows),
    )
