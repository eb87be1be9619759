"""Cover names and the approximation / refinement machinery.

A cover name is a name whose value sets are basic open sets and which is
forced to cover the space: for every point, the conditions committing the
point into some value set are dense.  From a valid cover name and an
endowment family one builds, level by level, a ground model open cover
approximating the named one, then a refined name whose evaluations land
inside a chosen ground family.  Certificates record the dense witnesses so
independent replays can confirm every step.

Every step reads names through their value masks (`poset.value_masks`, one
atom mask per distinct value set).  A name is tabled once per step; the
atom mask of "some named set contains V" is the union of the masks of the
values containing V, and its forcing mask marks, by canonical position,
the conditions whose atoms all lie inside it.  The least witness below p is
then the lowest bit of `down_mask[p]` and the forcing mask, and the refined
name pairs each ground set with the conditions of its forcing mask.  The
pipeline closes with one pass over the refined names' value masks that
reads every closing fact (subfamily flags, atom rows, covering verdict).
Per-atom evaluation on frozensets (`poset.evaluate_name`) stays out of
these steps and serves the tests as their reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .canon import BOOL_TEXT, TextMemo, array_text, object_text, set_key, sorted_sets
from .endowment import EndowmentFamily
from .errors import DataError
from .poset import (
    Condition,
    Name,
    Poset,
    RefinesName,
    Stratification,
    forces,  # unused here; kept so `names.forces` stays a binding the benchmark tracer rebinds
    pairs_text,
    superset_mask,
    truth,
    validate_name,
    value_masks,
)
from .topology import FiniteSpace


def make_cover_name(poset: Poset, space: FiniteSpace, pairs: Iterable[tuple[Condition, Iterable[str]]]) -> Name:
    """Package and validate a cover name's raw pairs.

    Conditions must belong to the poset and value sets to the subbase.
    """
    name = Name(tuple((q, frozenset(u)) for q, u in pairs))
    validate_name(poset, name)
    basic = set(space.base)
    for _, u in name.pairs:
        if u not in basic:
            raise DataError(f"cover name value {sorted(u)} is not a basic open set")
    return name


@dataclass(frozen=True)
class PointName:
    """Per point data: a maximal antichain of commitment conditions and, for
    each of its members, the canonically least value set committed below it."""

    point: str
    antichain: tuple[Condition, ...]
    values: tuple[tuple[Condition, frozenset[str]], ...]

    def value_at(self, p: Condition) -> frozenset[str]:
        for q, u in self.values:
            if q == p:
                return u
        raise DataError(f"condition {p!r} is not in the point antichain")

    def to_jsonable(self) -> dict:
        return {
            "point": self.point,
            "antichain": list(self.antichain),
            "values": json.loads(pairs_text(self.values, TextMemo())),
        }


def derive_point_names(poset: Poset, space: FiniteSpace, name: Name) -> tuple[PointName, ...]:
    """Build the per point antichains and committed sets for a valid name.

    Valid means every point's commitment conditions are dense; the first
    point without raises DataError.  The antichain is the greedy canonical
    scan of the commitment conditions: walking the bits of their reach (the
    commitment mask) from low to high, a condition is kept when its down
    mask misses those of the conditions kept so far.  Density makes the
    result maximal in the whole poset, which is verified rather than
    assumed.  Points with the same commitment mask share one antichain,
    built and verified once.  A member's committed set is the least value
    of a committing pair whose condition has the member's position bit in
    its down mask.
    """
    validate_name(poset, name)
    elements, down_mask = poset.elements, poset.down_mask
    greedy: dict[int, tuple[Condition, ...]] = {}  # commitment mask -> verified antichain
    out = []
    for x in sorted(space.points):
        # the pairs committing x, least value set first
        pairs = sorted(((q, u) for q, u in name.pairs if x in u), key=lambda pair: set_key(pair[1]))
        committed = poset.reach(q for q, _ in pairs)
        if not poset.meets_everything(committed):
            raise DataError(f"name is not a valid cover name; point {x!r} lacks dense commitments")
        antichain = greedy.get(committed)
        if antichain is None:
            members: list[Condition] = []
            chosen = 0  # union of the kept members' down masks
            rest = committed
            while rest:
                low = rest & -rest
                rest ^= low
                p = elements[low.bit_length() - 1]
                # p is compatible with a kept member iff their down-sets meet
                if down_mask[p] & chosen == 0:
                    members.append(p)
                    chosen |= down_mask[p]
            if not poset.is_maximal_antichain(members):
                raise DataError(f"point {x!r}: greedy antichain is not maximal")
            antichain = greedy[committed] = tuple(members)
        values = []
        for p in antichain:
            bit = 1 << poset.sort_key(p)
            values.append((p, next(u for q, u in pairs if down_mask[q] & bit)))
        out.append(PointName(x, antichain, tuple(values)))
    return tuple(out)


@dataclass(frozen=True)
class Approximation:
    """A level-n ground cover: per point, the family members used and the
    intersection of their committed sets."""

    level: int
    entries: tuple[tuple[str, tuple[Condition, ...], frozenset[str]], ...]
    cover: tuple[frozenset[str], ...]

    def to_jsonable(self) -> dict:
        return {
            "level": self.level,
            "entries": [
                {"point": x, "used": list(used), "piece": sorted(v)}
                for x, used, v in self.entries
            ],
            "cover": [sorted(v) for v in self.cover],
        }


def approximate(
    poset: Poset,
    point_names: Sequence[PointName],
    n: int,
    family: EndowmentFamily,
) -> Approximation:
    """The level-n cover: for each point, extract a family member from its
    antichain and intersect the committed sets over that member.

    Points with the same antichain share one extraction.  Each piece
    contains its point, so the result covers the space.  The antichains
    are trusted to be maximal, as `derive_point_names` verifies them.
    """
    if n < 0:
        raise DataError(f"level must be nonnegative, got {n}")
    extracted: dict[frozenset[Condition], frozenset[Condition]] = {}
    entries = []
    pieces = []
    for pn in sorted(point_names, key=lambda pn: pn.point):
        antichain = frozenset(pn.antichain)
        if antichain not in extracted:
            extracted[antichain] = family.extract(n, antichain)
        chosen = extracted[antichain]
        if not chosen:
            raise DataError(f"family extraction for point {pn.point!r} is empty")
        if not chosen <= antichain:
            raise DataError(f"family extraction for point {pn.point!r} leaves the antichain")
        used = tuple(sorted(chosen, key=poset.sort_key))
        piece = frozenset.intersection(*(pn.value_at(p) for p in used))
        entries.append((pn.point, used, piece))
        pieces.append(piece)
    return Approximation(n, tuple(entries), sorted_sets(pieces))


@dataclass(frozen=True)
class ApproxCertificate:
    """Dense domination witnesses: for each piece and each level condition,
    the canonically least extension forcing the piece into the named cover."""

    level: int
    positive: bool
    triples: tuple[tuple[tuple[str, ...], Condition, Condition], ...]
    counterexample: tuple[tuple[str, ...], Condition] | None

    def to_text(self, memo: TextMemo) -> str:
        """Canonical JSON text, the one layout of this certificate."""
        quoted, sets = memo.quoted, memo.sets
        counter = self.counterexample
        return object_text({
            "level": str(self.level),
            "positive": BOOL_TEXT[self.positive],
            "triples": array_text([
                f'{{"condition":{quoted[p]},"piece":{sets[v]},"witness":{quoted[r]}}}'
                for v, p, r in self.triples
            ]),
            "counterexample": "null" if counter is None else
                f'{{"condition":{quoted[counter[1]]},"piece":{sets[counter[0]]}}}',
        })

    def to_jsonable(self) -> dict:
        return json.loads(self.to_text(TextMemo()))


def forcing_mask(poset: Poset, truth_mask: int) -> int:
    """The conditions forcing a statement with this truth mask, by position:
    bit i is set when every atom below elements[i] lies inside the mask,
    that is, when elements[i] lies above no atom outside it.  So the mask is
    every position minus `above_atoms` of those atoms."""
    outside = ~truth_mask & ((1 << len(poset.atoms)) - 1)
    return ((1 << len(poset)) - 1) & ~poset.above_atoms(outside)


def level_witnesses(
    poset: Poset,
    strat: Stratification,
    n: int,
    forcing_sets: Iterable[tuple[frozenset[str], int]],
) -> tuple[tuple, tuple[tuple[str, ...], Condition] | None]:
    """The (set key, p, least witness) triples for every (set, forcing mask)
    and level-n condition p, stopping at the first p with no witness, which
    is returned as (set key, p); a lazy iterable computes no later mask.

    Position bits run in canonical order, so the least witness below p is
    the lowest bit of `down_mask[p] & forcing`.
    """
    elements, down_mask = poset.elements, poset.down_mask
    level = strat.ordered_at(n)
    triples = []
    for h, forcing in forcing_sets:
        key = set_key(h)
        for p in level:
            hits = down_mask[p] & forcing
            if not hits:
                return tuple(triples), (key, p)
            triples.append((key, p, elements[(hits & -hits).bit_length() - 1]))
    return tuple(triples), None


def check_approximation(
    poset: Poset,
    strat: Stratification,
    name: Name,
    approx: Approximation,
) -> ApproxCertificate:
    """For every piece V and level condition p, find r <= p forcing that some
    named set contains V.  Negative certificates carry the first failure."""
    table = value_masks(poset, name)
    triples, counterexample = level_witnesses(poset, strat, approx.level, (
        (v, forcing_mask(poset, superset_mask(table, v))) for v in approx.cover))
    return ApproxCertificate(approx.level, counterexample is None, triples, counterexample)


@dataclass(frozen=True)
class RefineCertificate:
    """Witnesses for the two refinement clauses: evaluations refine the
    source name at every atom, and every ground set is forced in densely
    below the level."""

    level: int
    refines_everywhere: bool
    refine_counterexample: Condition | None  # atom where refinement fails
    triples: tuple[tuple[tuple[str, ...], Condition, Condition], ...]
    counterexample: tuple[tuple[str, ...], Condition] | None

    @property
    def positive(self) -> bool:
        return self.refines_everywhere and self.counterexample is None

    def to_text(self, memo: TextMemo) -> str:
        """Canonical JSON text, the one layout of this certificate."""
        quoted, sets = memo.quoted, memo.sets
        counter, bad_atom = self.counterexample, self.refine_counterexample
        return object_text({
            "level": str(self.level),
            "positive": BOOL_TEXT[self.positive],
            "refines_everywhere": BOOL_TEXT[self.refines_everywhere],
            "refine_counterexample": "null" if bad_atom is None else quoted[bad_atom],
            "triples": array_text([
                f'{{"condition":{quoted[p]},"set":{sets[h]},"witness":{quoted[r]}}}'
                for h, p, r in self.triples
            ]),
            "counterexample": "null" if counter is None else
                f'{{"condition":{quoted[counter[1]]},"set":{sets[counter[0]]}}}',
        })

    def to_jsonable(self) -> dict:
        return json.loads(self.to_text(TextMemo()))


def refine_name(
    poset: Poset,
    strat: Stratification,
    n: int,
    name: Name,
    ground_family: Iterable[frozenset[str]],
    space: FiniteSpace,
) -> tuple[Name, RefineCertificate]:
    """Build the definable refined name over a ground family of open sets.

    The refined name pairs every condition with every ground set it forces
    into the named cover.  Its evaluation at an atom is exactly the ground
    sets dominated there, so it refines the source name at every atom by
    construction; the certificate checks this rather than assuming it, and
    also records the dense witnesses for every ground set at the level.
    """
    if n < 0:
        raise DataError(f"level must be nonnegative, got {n}")
    table = value_masks(poset, name)
    family = sorted_sets(frozenset(h) for h in ground_family)
    for h in family:
        if not space.is_open(h):
            raise DataError(f"ground family member {sorted(h)} is not open")
    forcing = [forcing_mask(poset, superset_mask(table, h)) for h in family]
    refined = Name(tuple(
        (p, h) for h, mask in zip(family, forcing) for p in poset.conditions_in(mask)))
    missed = ~truth(poset, RefinesName(refined, name)) & ((1 << len(poset.atoms)) - 1)
    bad_atom = poset.atoms[(missed & -missed).bit_length() - 1] if missed else None
    triples, counterexample = level_witnesses(poset, strat, n, zip(family, forcing))
    return refined, RefineCertificate(n, bad_atom is None, bad_atom, triples, counterexample)


@dataclass(frozen=True)
class AtomRow:
    """One certified covering fact: at this atom, this point lies in this
    evaluated set of the refined name at this level."""

    atom: str
    point: str
    level: int | None
    covering: frozenset[str] | None

    def to_jsonable(self) -> dict:
        return {
            "atom": self.atom,
            "point": self.point,
            "level": self.level,
            "set": None if self.covering is None else sorted(self.covering),
        }


@dataclass(frozen=True)
class PipelineResult:
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
    poset: Poset,
    strat: Stratification,
    space: FiniteSpace,
    names: Sequence[Name],
    ground_families: Sequence[Iterable[frozenset[str]]],
) -> PipelineResult:
    """Refine every level, then certify the result in one pass over the atoms.

    Requires one ground family per name.  The closing pass tables each
    refined name's value masks from its pairs, never from the refinement's
    forcing masks, so it checks the construction rather than assuming it;
    the evaluation at atoms[j] is the values whose mask has bit j.  A row
    names the least level at or above the stabilization floor covering its
    point, or none; the covering statement holds exactly when every row has
    a level.
    """
    if len(names) != len(ground_families):
        raise DataError("need exactly one ground family per name")
    if not names:
        raise DataError("pipeline needs at least one level")
    floor = strat.stabilization_index
    families = [sorted_sets(frozenset(h) for h in fam) for fam in ground_families]
    refined = []
    certificates = []
    for n, name in enumerate(names):
        w, cert = refine_name(poset, strat, n, name, families[n], space)
        refined.append(w)
        certificates.append(cert)
    tables = [value_masks(poset, w) for w in refined]
    # every condition has an atom below it, so every tabled value is evaluated somewhere
    subfamily = tuple(all(u in fam for u in table) for fam, table in zip(families, tables))
    points = sorted(space.points)
    # per point, the (level, set, atom mask) candidates in search order
    candidates = {
        x: [(n, u, mask) for n in range(floor, len(names)) for u, mask in tables[n].items() if x in u]
        for x in points
    }
    rows = []
    for j, atom in enumerate(poset.atoms):
        bit = 1 << j
        for x in points:
            level, covering = next(((n, u) for n, u, mask in candidates[x] if mask & bit), (None, None))
            rows.append(AtomRow(atom, x, level, covering))
    return PipelineResult(
        tuple(refined),
        tuple(certificates),
        subfamily,
        tuple(rows),
        all(row.level is not None for row in rows),
    )
