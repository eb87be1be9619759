"""Cover names and the approximation / refinement machinery.

A cover name is a name whose value sets are basic open sets and which is
forced to cover the space: for every point, the conditions committing the
point into some value set are dense.  From a valid cover name and an
endowment family one builds, level by level, a ground model open cover
approximating the named one, then a refined name whose evaluations land
inside a chosen ground family.  Certificates record the dense witnesses so
independent replays can confirm every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .canon import set_key, sorted_sets
from .endowment import EndowmentFamily
from .errors import DataError
from .poset import (
    Condition,
    ExistsSupersetInCover,
    FamilyUnionCovers,
    Name,
    Poset,
    RefinesName,
    Stratification,
    SubfamilyOf,
    forces,  # unused here; kept so `names.forces` stays a binding the benchmark tracer rebinds
    statement_holds_at,
    truth,
    validate_name,
)
from .topology import FiniteSpace


class CoverName(Name):
    """A name whose pairs commit basic open sets."""


class RefinedName(Name):
    """A name produced by the refinement step; pairs commit ground sets."""


def make_cover_name(poset: Poset, space: FiniteSpace, pairs: Iterable[tuple[Condition, Iterable[str]]]) -> CoverName:
    """Package and validate a cover name's raw pairs.

    Conditions must belong to the poset and value sets to the subbase.
    """
    name = CoverName(tuple((q, frozenset(u)) for q, u in pairs))
    validate_name(poset, name)
    basic = set(space.base)
    for _, u in name.pairs:
        if u not in basic:
            raise DataError(f"cover name value {sorted(u)} is not a basic open set")
    return name


def commitment_mask(poset: Poset, name: Name, point: str) -> int:
    """Down mask of the conditions that commit `point` into some value set."""
    validate_name(poset, name)
    out = 0
    for q, u in name.pairs:
        if point in u:
            out |= poset.down_mask[q]
    return out


@dataclass(frozen=True)
class CoverReport:
    ok: bool
    entries: tuple[tuple[str, bool, Condition | None], ...]  # point, dense, uncommitted condition

    def to_jsonable(self) -> dict:
        return {
            "ok": self.ok,
            "points": [
                {"point": x, "dense": dense, "counterexample": bad}
                for x, dense, bad in self.entries
            ],
        }


def check_cover_name(poset: Poset, space: FiniteSpace, name: Name) -> CoverReport:
    """Validity check: per point, the commitment conditions are dense.

    A failing point comes with the canonically least condition with no
    commitment below it.
    """
    validate_name(poset, name)
    entries = []
    ok = True
    for x in sorted(space.points):
        committed = commitment_mask(poset, name, x)
        bad = next(
            (p for p in poset.elements if poset.down_mask[p] & committed == 0),
            None,
        )
        entries.append((x, bad is None, bad))
        ok = ok and bad is None
    return CoverReport(ok, tuple(entries))


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
            "values": [{"condition": q, "set": sorted(u)} for q, u in self.values],
        }


def derive_point_names(poset: Poset, space: FiniteSpace, name: Name) -> tuple[PointName, ...]:
    """Build the per point antichains and committed sets for a valid name.

    The antichain is the greedy canonical scan of the commitment conditions;
    density of those conditions makes the result maximal in the whole poset,
    which is verified rather than assumed.
    """
    report = check_cover_name(poset, space, name)
    if not report.ok:
        bad = next(x for x, dense, _ in report.entries if not dense)
        raise DataError(f"name is not a valid cover name; point {bad!r} lacks dense commitments")
    out = []
    for x in sorted(space.points):
        committed = commitment_mask(poset, name, x)
        antichain: list[Condition] = []
        chosen = 0  # union of the chosen members' down masks
        for i, p in enumerate(poset.elements):
            below = poset.down_mask[p]
            # p is compatible with a chosen member iff their down-sets meet
            if committed >> i & 1 and below & chosen == 0:
                antichain.append(p)
                chosen |= below
        if not poset.is_maximal_antichain(antichain):
            raise DataError(f"point {x!r}: greedy antichain is not maximal")
        values = []
        for p in antichain:
            committed = sorted(
                (u for q, u in name.pairs if x in u and poset.leq(p, q)),
                key=set_key,
            )
            values.append((p, committed[0]))
        out.append(PointName(x, tuple(antichain), tuple(values)))
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

    Each piece contains its point, so the result covers the space.
    """
    if n < 0:
        raise DataError(f"level must be nonnegative, got {n}")
    entries = []
    pieces = []
    for pn in sorted(point_names, key=lambda pn: pn.point):
        chosen = family.extract(n, frozenset(pn.antichain))
        if not chosen:
            raise DataError(f"family extraction for point {pn.point!r} is empty")
        if not chosen <= frozenset(pn.antichain):
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

    def to_jsonable(self) -> dict:
        return {
            "level": self.level,
            "positive": self.positive,
            "triples": [
                {"piece": list(v), "condition": p, "witness": r} for v, p, r in self.triples
            ],
            "counterexample": None if self.counterexample is None else
                {"piece": list(self.counterexample[0]), "condition": self.counterexample[1]},
        }


def least_witness(poset: Poset, p: Condition, truth_mask: int) -> Condition | None:
    """The canonically least r <= p forcing a statement with this truth mask.

    Down mask bits run in canonical order, so the first r whose atoms all
    lie inside the truth mask is the least one; None when there is none.
    """
    poset.require(p)
    elements, atom_mask = poset.elements, poset.atom_mask
    below = poset.down_mask[p]
    while below:
        low = below & -below
        r = elements[low.bit_length() - 1]
        if atom_mask[r] & ~truth_mask == 0:
            return r
        below ^= low
    return None


def check_approximation(
    poset: Poset,
    strat: Stratification,
    name: Name,
    approx: Approximation,
) -> ApproxCertificate:
    """For every piece V and level condition p, find r <= p forcing that some
    named set contains V.  Negative certificates carry the first failure."""
    validate_name(poset, name)
    level = sorted(strat.at(approx.level), key=poset.sort_key)
    triples = []
    for v in approx.cover:
        mask = truth(poset, ExistsSupersetInCover(name, v))
        for p in level:
            r = least_witness(poset, p, mask)
            if r is None:
                return ApproxCertificate(approx.level, False, tuple(triples), (set_key(v), p))
            triples.append((set_key(v), p, r))
    return ApproxCertificate(approx.level, True, tuple(triples), None)


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

    def to_jsonable(self) -> dict:
        return {
            "level": self.level,
            "positive": self.positive,
            "refines_everywhere": self.refines_everywhere,
            "refine_counterexample": self.refine_counterexample,
            "triples": [
                {"set": list(h), "condition": p, "witness": r} for h, p, r in self.triples
            ],
            "counterexample": None if self.counterexample is None else
                {"set": list(self.counterexample[0]), "condition": self.counterexample[1]},
        }


def refine_name(
    poset: Poset,
    strat: Stratification,
    n: int,
    name: Name,
    ground_family: Iterable[frozenset[str]],
    space: FiniteSpace,
) -> tuple[RefinedName, RefineCertificate]:
    """Build the definable refined name over a ground family of open sets.

    The refined name pairs every condition with every ground set it forces
    into the named cover.  Its evaluation at an atom is exactly the ground
    sets dominated there, so it refines the source name at every atom by
    construction; the certificate checks this rather than assuming it, and
    also records the dense witnesses for every ground set at the level.
    """
    if n < 0:
        raise DataError(f"level must be nonnegative, got {n}")
    validate_name(poset, name)
    family = sorted_sets(frozenset(h) for h in ground_family)
    for h in family:
        if not space.is_open(h):
            raise DataError(f"ground family member {sorted(h)} is not open")
    masks = [truth(poset, ExistsSupersetInCover(name, h)) for h in family]
    refined = RefinedName(tuple(
        (p, h) for h, mask in zip(family, masks)
        for p in poset.elements if poset.atom_mask[p] & ~mask == 0
    ))
    refine_stmt = RefinesName(refined, name)
    bad_atom = next(
        (a for a in poset.atoms if not statement_holds_at(poset, refine_stmt, a)),
        None,
    )
    level = sorted(strat.at(n), key=poset.sort_key)
    triples = []
    counterexample = None
    for h, mask in zip(family, masks):
        for p in level:
            r = least_witness(poset, p, mask)
            if r is None:
                counterexample = (set_key(h), p)
                break
            triples.append((set_key(h), p, r))
        if counterexample is not None:
            break
    return refined, RefineCertificate(n, bad_atom is None, bad_atom, tuple(triples), counterexample)


@dataclass(frozen=True)
class PipelineResult:
    """Per level refined names and certificates, plus the top level covering
    check at and above the stabilization floor."""

    refined: tuple[RefinedName, ...]
    certificates: tuple[RefineCertificate, ...]
    subfamily_everywhere: tuple[bool, ...]
    union_covers: bool
    union_counterexample: Condition | None  # atom where covering fails

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
    *,
    check_horizon: bool = True,
) -> PipelineResult:
    """Refine every level and certify the combined covering statement.

    Requires one ground family per name.  The horizon hypothesis asks that
    every point lies in some ground set at a level at or above the
    stabilization floor; without it the covering statement is hopeless, so
    it is rejected up front (naming an uncovered point) unless the caller
    disables the check to watch the honest failure.
    """
    if len(names) != len(ground_families):
        raise DataError("need exactly one ground family per name")
    if not names:
        raise DataError("pipeline needs at least one level")
    floor = strat.stabilization_index
    families = [sorted_sets(frozenset(h) for h in fam) for fam in ground_families]
    if check_horizon:
        reachable: set[str] = set()
        for n in range(floor, len(names)):
            for h in families[n]:
                reachable |= h
        missing = sorted(space.points - reachable)
        if missing:
            raise DataError(
                f"horizon hypothesis fails: point {missing[0]!r} lies in no ground set "
                f"at levels {floor}..{len(names) - 1}"
            )
    refined = []
    certificates = []
    subfamily_flags = []
    for n, name in enumerate(names):
        w, cert = refine_name(poset, strat, n, name, families[n], space)
        refined.append(w)
        certificates.append(cert)
        stmt = SubfamilyOf(w, families[n])
        subfamily_flags.append(all(statement_holds_at(poset, stmt, a) for a in poset.atoms))
    tail = tuple(refined[n] for n in range(floor, len(names)))
    union_stmt = FamilyUnionCovers(tail, space.points)
    bad_atom = next(
        (a for a in poset.atoms if not statement_holds_at(poset, union_stmt, a)),
        None,
    ) if tail else (poset.atoms[0] if space.points else None)
    return PipelineResult(
        tuple(refined),
        tuple(certificates),
        tuple(subfamily_flags),
        bad_atom is None,
        bad_atom,
    )
