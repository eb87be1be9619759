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
with each set's field (see `canon.TextMemo`).  Point names read each
value set's reach (the union of its conditions' down masks) from one pass
over the name, and each point's density from the table's masks.  The
refined name pairs each ground set with the conditions of its forcing
mask.  Each set's mask
becomes 0/1 bytes in identifier order (`poset.identifier_order`), and
`compress` picks the pairs out of (condition, set) in the name's canonical
order, so no condition is tested bit by bit; the refinement check tables
its value masks.  The pipeline closes with one
pass over those masks that reads every closing fact (subfamily flags,
atom rows, covering verdict).  The frozenset oracles of `poset`
(`evaluate_name`, `forces`, `forces_dense`) stay out of these steps; they
serve the tests, and `selftest`'s oracle sweep, which checks this
module's forcing masks and `poset.refinement_mask` against them.  A
check that only a program fault can trip raises `errors.InvariantError`.
"""

from __future__ import annotations

import json
from itertools import chain, compress, product, repeat
from operator import itemgetter
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
    value_masks,
)
from .topology import FiniteSpace


def check_cover_name(poset: Poset, space: FiniteSpace, name: Name) -> None:
    """Check a name in place as a cover name's input: every condition must
    belong to the poset, checked first, and every value set to the
    subbase.  Raises DataError at the first failure.  Density, the rest of
    being a cover name, is checked by `derive_point_names`."""
    validate_name(poset, name)
    basic = set(space.base)
    for _, u in name.pairs:
        if u not in basic:
            raise DataError(f"cover name value {sorted(u)} is not a basic open set")


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
    """Build the per point antichains and committed sets for the table's
    name, a valid name whose conditions `check_cover_name` has checked.

    One pass over the name's pairs tables each value set's reach, the union
    of its conditions' down masks; a point's commitment mask is the union of
    the reaches of the values containing it.  Valid means every point's
    commitment mask is dense, that is, the values containing the point hold
    every atom between them (`table.masks`); the first point without raises
    DataError.  The antichain is the greedy canonical scan of that mask:
    keep the lowest remaining position, then drop every condition above an
    atom of it, which are exactly the conditions compatible with it.  The
    scan drops the kept position itself too, so it ends whatever
    `above_atoms` returns.  Density makes the result maximal in the whole
    poset, which is verified rather than assumed; an antichain that is not
    maximal is a program fault and raises InvariantError.
    Points with the same commitment mask share one antichain, built and
    verified once.  A member's committed set is the least value, in
    `set_key` order, whose reach holds the member's position bit.
    """
    poset = table.poset
    elements, down_mask, atom_mask = poset.elements, poset.down_mask, poset.atom_mask
    reach: dict[frozenset[str], int] = {}
    for q, u in table.name.pairs:
        reach[u] = reach.get(u, 0) | down_mask[q]
    masks = table.masks  # in set_key order
    everything = (1 << len(poset.atoms)) - 1
    # commitment mask -> verified antichain and its members' position bits
    greedy: dict[int, tuple[tuple[Condition, ...], list[int]]] = {}
    out = []
    for x in sorted(space.points):
        values = [(u, reach[u]) for u in masks if x in u]
        committed = atoms = 0
        for u, mask in values:
            committed |= mask
            atoms |= masks[u]
        if atoms != everything:
            raise DataError(f"name is not a valid cover name; point {x!r} lacks dense commitments")
        if committed not in greedy:
            bits = []
            rest = committed
            while rest:
                low = rest & -rest
                bits.append(low)
                rest &= ~(low | poset.above_atoms(atom_mask[elements[low.bit_length() - 1]]))
            members = tuple(elements[low.bit_length() - 1] for low in bits)
            if not poset.is_maximal_antichain(members):
                raise InvariantError(f"point {x!r}: greedy antichain is not maximal")
            greedy[committed] = members, bits
        antichain, bits = greedy[committed]
        chosen = []
        for p, bit in zip(antichain, bits):
            for u, mask in values:
                if mask & bit:
                    chosen.append((p, u))
                    break
        out.append(PointName(x, antichain, tuple(chosen)))
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


def approximate(
    table: WitnessTable, point_names: Sequence[PointName], family: EndowmentFamily,
) -> Approximation:
    """The cover at the table's level: for each point, extract a family
    member from its antichain and intersect the committed sets over it.

    Points with the same antichain share one extraction.  Each piece
    contains its point, so the result covers the space.  The antichains
    are trusted to be maximal, as `derive_point_names` verifies them; an
    extraction that is empty or leaves its antichain is a program fault
    and raises InvariantError.
    """
    n = table.level
    extracted: dict[frozenset[Condition], frozenset[Condition]] = {}
    entries = []
    pieces = []
    for pn in sorted(point_names, key=lambda pn: pn.point):
        antichain = frozenset(pn.antichain)
        if antichain not in extracted:
            extracted[antichain] = family.extract(n, antichain)
        chosen = extracted[antichain]
        if not chosen:
            raise InvariantError(f"family extraction for point {pn.point!r} is empty")
        if not chosen <= antichain:
            raise InvariantError(f"family extraction for point {pn.point!r} leaves the antichain")
        used = tuple(sorted(chosen, key=table.poset.sort_key))
        values = dict(pn.values)
        piece = frozenset.intersection(*(values[p] for p in used))
        entries.append((pn.point, used, piece))
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

    Built from the level's name, whose value masks it tables once.  For a
    set h, `forcing(h)` is the forcing mask of "some named set contains h",
    computed the first time h is asked for, and `run(h)` the least
    witnesses of h below the level's conditions, in canonical order, up to
    the first condition without one.  A run depends on the set only through
    its forcing mask, so runs are keyed by mask: sets with equal masks, and
    a set that is both a cover piece and a ground set, share one search and
    one run tuple.  A table serves one level of one run.
    """

    __slots__ = ("poset", "level", "name", "conditions", "level_mask", "masks", "_forcing", "_runs")

    def __init__(self, poset: Poset, strat: Stratification, n: int, name: Name):
        self.poset = poset
        self.level = n
        self.name = name
        self.conditions = strat.ordered_at(n)
        self.level_mask = strat.mask_at(n)
        self.masks = value_masks(poset, name)
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
        the set's field; an empty run writes nothing."""
        skeletons, sets, conditions = memo.skeletons, memo.sets, self.conditions
        key = f',"{field}":'
        write_array(out, [(key + sets[h]).join(skeletons[conditions, run])
                          for h, run in self.runs if run])

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
    The refined name's value masks, tabled from its pairs for that check,
    come back with the name and the certificate.
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
    selectors = bytearray(size * width)
    for j, h in enumerate(family):
        flags = bin(table.forcing(h))[:1:-1].ljust(size, "0").encode().translate(_FLAG_BYTES)
        selectors[j::width] = pick(flags)
    refined = Name(tuple(compress(product(pick(poset.elements), family), selectors)))
    masks = value_masks(poset, refined)
    missed = ~refinement_mask(poset, masks, table.masks)
    missed &= (1 << len(poset.atoms)) - 1
    bad_atom = poset.atoms[(missed & -missed).bit_length() - 1] if missed else None
    runs, counterexample = level_witnesses(table, family)
    cert = RefineCertificate(table.level, table.conditions, runs, counterexample, bad_atom)
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
    names' value masks that `refine_name` tabled for its refinement check.
    They are built from each refined name's pairs, never from the
    refinement's forcing masks, so the pass checks the construction rather
    than assuming it; the evaluation at atoms[j] is the values whose mask
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
