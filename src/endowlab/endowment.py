"""Endowment families and their verification.

An endowment family assigns to each level n a collection of finite
antichains.  The weak property asks that every maximal antichain contains a
member hitting every condition of the level (clause by clause: members are
antichains; extraction from a maximal antichain yields a member inside it;
every level-n condition is compatible with some member element).  The full
property additionally asks that level-n members combine: any n of them and
any level-n condition admit a common extension scheme.

The verifier is generic over the family interface, so the same code checks
the staged construction on partial assignment posets, the measure bound
family, the trivial maximal antichain family, and the adversarial singleton
family used as a negative control.
"""

from __future__ import annotations

from itertools import compress, count, product
from typing import Callable, Iterable, NamedTuple, Sequence

from .cohen import CohenPoset
from .errors import ResourceError
from .measure import MeasurePoset, extract_measure_endowment, measure_endowment_member
from .poset import Condition, Poset, Stratification


class EndowmentFamily(NamedTuple):
    """A labeled family given by a membership test and an extractor.

    `member(n, L)` decides whether L belongs to level n; `extract(n, A)`
    picks a candidate member out of a maximal antichain A.  The extractor
    trusts that A is one: `extract_each` hands it the antichains that the
    enumerators built, and `approximate` those that `names.point_antichain`
    verified.  Its output is not trusted; the endowment verifiers check it.
    """

    label: str
    member: Callable[[int, frozenset[str]], bool]
    extract: Callable[[int, frozenset[str]], frozenset[str]]


class DowStage(NamedTuple):
    """One stage of the staged construction: the conditions whose chosen
    antichain elements were added, the elements, and the support so far."""

    handled: tuple[Condition, ...]
    added: tuple[Condition, ...]
    support: tuple[int, ...]


class DowTrace(NamedTuple):
    """The staged construction on one antichain: its seed and result, and
    what its stage records are built from, on demand, by `stages`.

    `supports` holds the support mask after each stage that ran, from
    stage 0, and `met`, for each later stage that ran, the (claim bit,
    element) pairs of the elements it added, in the order the stage's
    scan met them.  A construction that stopped at a fixed point leaves
    the stages after it unrecorded: each would repeat it and add nothing.
    """

    seed: Condition
    result: frozenset[Condition]
    cohen: CohenPoset
    n: int
    supports: list[int]
    met: list[list[tuple[int, Condition]]]

    @property
    def stages(self) -> tuple[DowStage, ...]:
        """One record per stage 0..n.  A stage handles the conditions of
        the support set before it (`CohenPoset.within`) and adds its met
        elements, ordered by their claim bits, the order a scan of the
        handled conditions would meet them in; the claims are disjoint,
        so those bits differ.  The stages after a fixed point copy its
        record and add nothing."""
        cohen, supports = self.cohen, self.supports
        stages = [DowStage((), (self.seed,), cohen.indices_in(supports[0]))]
        for before, support, met in zip(supports, supports[1:], self.met):
            stages.append(DowStage(cohen.within(before), tuple([a for _, a in sorted(met)]),
                                   cohen.indices_in(support)))
        stages += [stages[-1]._replace(added=())] * (self.n + 1 - len(stages))
        return tuple(stages)

    def to_jsonable(self) -> dict:
        return {
            "seed": self.seed,
            "stages": [
                {"handled": list(s.handled), "added": list(s.added), "support": list(s.support)}
                for s in self.stages
            ],
            "result": sorted(self.result),
        }


def dow_construct(cohen: CohenPoset, antichain: Iterable[Condition], n: int) -> DowTrace:
    """Thin a maximal antichain to a small hitting set, in n+1 stages.

    The antichain is trusted to be maximal, as an extractor's is (see
    `EndowmentFamily`); `cmd_dow` checks the one that comes from outside.

    Stage 0 keeps the canonically least element; its support opens the
    support set.  Each later stage handles every condition supported inside
    the current support set and keeps, for each, the canonically least
    antichain element compatible with it, then widens the support set by
    the keepers' supports.  The result is compatible with every condition
    of support size at most n: such a condition misses one of the n+1
    disjoint support increments, and the keeper chosen for its restriction
    to the stage below works.  Once a stage leaves the support set
    unchanged, each later stage would repeat it and add nothing, so the
    construction stops there.

    The keepers are read off masks.  Before the stages, one pass over the
    elements' positions, sorted as integers, gives each element its
    *claim*: the positions whose least compatible element it is.  The
    compatible positions are the element's row of `poset.compatible_masks`,
    and each claim is what that row leaves after the earlier claims.  A stage
    handles `within_mask[support]`.  One pass over the elements not yet
    kept splits them into those whose claim meets that mask, which the
    stage adds, widening the support set as it goes, and the rest, which
    wait.  The result is the seed and every added element, so a repeated
    element, whose later copies claim nothing, changes nothing.  The loop
    builds no stage record: the trace keeps each stage's support mask and
    met elements, and builds the records only when `DowTrace.stages` is
    read, as `dow` and the tests do; the Cohen family's extractor reads
    only the result.
    """
    poset = cohen.poset
    elements, compatible = poset.elements, poset.compatible_masks
    support_mask, within_mask = cohen.support_mask, cohen.within_mask

    claims: list[tuple[Condition, int]] = []
    rest = (1 << len(poset)) - 1  # positions not yet claimed
    for i in sorted(map(poset.sort_key, antichain)):
        claims.append((elements[i], rest & compatible[i]))
        rest &= ~compatible[i]
    seed = claims[0][0]
    pending = claims[1:]  # the elements not yet kept, with their claims
    support = support_mask[seed]
    supports = [support]
    mets: list[list[tuple[int, Condition]]] = []
    for _ in range(n):
        handled = within_mask[support]
        before = support
        met: list[tuple[int, Condition]] = []
        waiting: list[tuple[Condition, int]] = []
        for a, claim in pending:
            if mine := claim & handled:
                met.append((mine & -mine, a))
                support |= support_mask[a]
            else:
                waiting.append((a, claim))
        pending = waiting
        supports.append(support)
        mets.append(met)
        if support == before:
            break
    result = frozenset([seed, *[a for met in mets for _, a in met]])
    return DowTrace(seed, result, cohen, n, supports, mets)


def hits_level(poset: Poset, level_mask: int, conditions: Iterable[Condition]) -> bool:
    """Weak clause 3': every condition of the level, given by its position
    mask, is compatible with a member.  The conditions compatible with some
    member are `above_atoms` of the members' `atoms_below`, so the clause
    holds when the level has no position outside them; `verify_weak_endowment`
    lists those positions as its clause 3' violations."""
    return level_mask & ~poset.above_atoms(poset.atoms_below(conditions)) == 0


# -- concrete families -------------------------------------------------------


def cohen_dow_family(cohen: CohenPoset, strat: Stratification) -> EndowmentFamily:
    """Level n: antichains hitting every condition of support size at most n.

    The extractor runs the staged construction; the membership test checks
    the hitting property directly, so the two sides stay independent.
    `strat` is the poset's stratification.
    """
    def member(n: int, conditions: frozenset[str]) -> bool:
        if not cohen.poset.is_antichain(conditions):
            return False
        return hits_level(cohen.poset, strat.mask_at(n), conditions)

    def extract(n: int, antichain: frozenset[str]) -> frozenset[str]:
        return dow_construct(cohen, antichain, n).result

    return EndowmentFamily("staged-hitting", member, extract)


def measure_total_family(algebra: MeasurePoset) -> EndowmentFamily:
    """Level n: antichains of total measure strictly above 1 - 2^-n."""

    def member(n: int, conditions: frozenset[str]) -> bool:
        return measure_endowment_member(algebra, n, conditions)

    def extract(n: int, antichain: frozenset[str]) -> frozenset[str]:
        return extract_measure_endowment(algebra, n, antichain)

    return EndowmentFamily("measure-total", member, extract)


def maximal_antichain_family(poset: Poset) -> EndowmentFamily:
    """Every level: all maximal antichains; extraction is the identity."""

    def member(n: int, conditions: frozenset[str]) -> bool:
        return poset.is_maximal_antichain(conditions)

    def extract(n: int, antichain: frozenset[str]) -> frozenset[str]:
        return frozenset(antichain)

    return EndowmentFamily("maximal-antichain", member, extract)


def adversarial_singleton_family(poset: Poset) -> EndowmentFamily:
    """Negative control: keeps only the canonically least antichain element.

    A singleton generally fails to hit whole levels, so the weak verifier
    must flag it.
    """

    def member(n: int, conditions: frozenset[str]) -> bool:
        return len(conditions) == 1 and all(p in poset for p in conditions)

    def extract(n: int, antichain: frozenset[str]) -> frozenset[str]:
        return frozenset([min(antichain, key=poset.sort_key)])

    return EndowmentFamily("adversarial-singleton", member, extract)


# -- verification ------------------------------------------------------------


class Violation(NamedTuple):
    clause: str
    antichain: tuple[Condition, ...]
    witness: Condition | None
    detail: str

    def to_jsonable(self) -> dict:
        return {
            "clause": self.clause,
            "antichain": list(self.antichain),
            "witness": self.witness,
            "detail": self.detail,
        }


class EndowmentReport(NamedTuple):
    family: str
    level: int
    checked: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_jsonable(self) -> dict:
        return {
            "family": self.family,
            "level": self.level,
            "antichains_checked": self.checked,
            "ok": self.ok,
            "violations": [v.to_jsonable() for v in self.violations],
        }


Extraction = tuple[frozenset[Condition], frozenset[Condition]]


def extract_each(
    family: EndowmentFamily,
    n: int,
    antichains: Iterable[Iterable[Condition]],
) -> tuple[Extraction, ...]:
    """Run the family's extractor once on each antichain.

    Returns (antichain, extraction) pairs in input order, the input both
    verifiers read.  The antichains are trusted to be maximal: in the
    program they come from `Poset.maximal_antichains` or
    `random_maximal_antichain`, which build maximal ones.
    """
    return tuple((items, frozenset(family.extract(n, items)))
                 for items in map(frozenset, antichains))


def verify_weak_endowment(
    poset: Poset,
    strat: Stratification,
    family: EndowmentFamily,
    n: int,
    extractions: Sequence[Extraction],
) -> EndowmentReport:
    """Check the weak property clause by clause over `extract_each` pairs.

    Each extraction is checked to be an antichain (clause 1), a family
    member lying inside its antichain (clause 2), and compatible with
    every level-n condition (clause 3').

    Clause 3' is read off atom masks.  The reach of an extraction is down
    closed, so a condition meets it exactly when some atom of the reach
    lies below the condition: the failing conditions are the level's
    positions outside `above_atoms` of the extraction's `atoms_below`,
    reported in level order.  An antichain is sorted into canonical order,
    the order its violations report it in, only when it has one.
    """
    level_mask = strat.mask_at(n)
    violations: list[Violation] = []
    for items, chosen in extractions:
        found = []  # (clause, witness, detail) in report order
        if not poset.is_antichain(chosen):
            found.append(("1", None, "extraction is not an antichain"))
        if not chosen <= items:
            found.append(("2", min(chosen - items, key=poset.sort_key), "extraction leaves the antichain"))
        if not family.member(n, chosen):
            found.append(("2", None, "extraction is not a family member"))
        for p in poset.conditions_in(level_mask & ~poset.above_atoms(poset.atoms_below(chosen))):
            found.append(("3'", p, "level condition incompatible with every member"))
        if found:
            key = tuple(sorted(items, key=poset.sort_key))
            violations.extend(Violation(clause, key, witness, detail) for clause, witness, detail in found)
    return EndowmentReport(family.label, n, len(extractions), tuple(violations))


DEFAULT_FULL_BUDGET = 2_000_000


def verify_full_endowment(
    poset: Poset,
    strat: Stratification,
    family: EndowmentFamily,
    n: int,
    extractions: Sequence[Extraction],
    budget: int = DEFAULT_FULL_BUDGET,
) -> EndowmentReport:
    """Check the joint extension clause over the extractions of `extract_each`.

    For every level-n condition p and every n-tuple of extraction results
    there must be a common lower bound scheme: some r <= p lying below a
    member of each tuple entry.  The clause is read off atom masks.  Each
    entry's reach is down closed, and so is the intersection of the
    entries' reaches, so p meets that intersection exactly when some atom
    below p lies in it.  The atoms in the intersection are the AND of the
    entries' `atoms_below` masks, and the failing conditions are the
    level's positions outside `above_atoms` of that AND, reported in level
    order.

    The tuples are scanned in rows, in `product` order: a row holds the
    tuples that share their first n-1 entries, whose AND is taken once,
    and one list comprehension ANDs it with each last entry.  Many tuples
    share an AND ((a, b) and (b, a) always do), so the failing list is
    built once per distinct AND, and the row's failing tuples are picked
    out by `compress` over those lists.  The empty tuple of n = 0 is a row
    of one entry that constrains nothing.

    The budget counts (tuple, level condition) pairs, so the clause needs
    (distinct extractions)^n * |level| of them, known before the scan.
    When they pass the budget, the tuple that trips it is known too: the
    first whose pairs end past the budget, tuple `budget // |level|` in
    `product` order.  The scan stops there, keeps only that tuple's
    failures among the level conditions still within the budget, and
    raises ResourceError carrying that partial report.  A level with no
    conditions checks no budget.
    """
    level, level_mask = strat.ordered_at(n), strat.mask_at(n)
    atoms: dict[frozenset[Condition], int] = {}  # distinct extraction outputs, in first-seen order
    for _, chosen in extractions:
        if chosen not in atoms:
            atoms[chosen] = poset.atoms_below(chosen)
    pairs = len(atoms) ** n * len(level)
    everything = (1 << len(poset.atoms)) - 1
    trip = max(budget // len(level), 0) if level and pairs > budget else -1  # tuple index, or none
    lasts = atoms if n else {frozenset(): everything}  # the empty tuple constrains nothing
    parts, masks = list(lasts), list(lasts.values())
    width = len(parts)
    failing_at: dict[int, list[Condition]] = {}  # AND of a tuple's atom masks -> failing p
    violations: list[Violation] = []
    for start, prefix in zip(count(0, width), product(atoms, repeat=max(n - 1, 0))):
        common = everything
        for part in prefix:
            common &= atoms[part]
        row = [common & mask for mask in masks]
        stop = trip - start  # the tripping tuple's place in this row
        tripped = 0 <= stop < width
        if tripped:
            del row[stop + 1:]
        for new in set(row).difference(failing_at):
            failing_at[new] = poset.conditions_in(level_mask & ~poset.above_atoms(new))
        union = frozenset().union(*prefix)
        for j in compress(range(len(row)), map(failing_at.__getitem__, row)):
            failing = failing_at[row[j]]
            if j == stop:
                first = frozenset(level[:max(budget - trip * len(level), 0)])
                failing = [p for p in failing if p in first]
            flat = tuple(sorted(union | parts[j], key=poset.sort_key))
            violations.extend(Violation("3", flat, p, "no common extension scheme for tuple") for p in failing)
        if tripped:
            partial = EndowmentReport(family.label, n, len(extractions), tuple(violations))
            raise ResourceError(
                f"joint extension scan exceeded budget {budget} (the clause needs {pairs} pairs)",
                partial=partial)
    return EndowmentReport(family.label, n, len(extractions), tuple(violations))
