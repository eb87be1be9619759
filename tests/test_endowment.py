"""The staged construction, the four families, and the two verifiers."""

import random
from bisect import bisect_right
from collections import Counter
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endowlab.cohen import CohenPoset, parse_condition
from endowlab.endowment import (
    DowStage,
    EndowmentFamily,
    EndowmentReport,
    Violation,
    adversarial_singleton_family,
    cohen_dow_family,
    dow_construct,
    extract_each,
    hits_level,
    maximal_antichain_family,
    measure_total_family,
    verify_full_endowment,
    verify_weak_endowment,
)
from endowlab.errors import DataError, ResourceError
from endowlab.measure import MeasurePoset
from endowlab.poset import make_stratification
from test_kernel import random_explicit_poset, traced


def test_staged_construction_two_sided_example():
    c = CohenPoset([0, 1])
    trace = dow_construct(c, ["0:0", "0:1"], 1)
    assert trace.seed == "0:0"
    assert trace.stages[0].added == ("0:0",)
    assert trace.stages[0].support == (0,)
    # stage 1 scans the three conditions supported in {0} and keeps both
    assert set(trace.stages[1].handled) == {"", "0:0", "0:1"}
    assert trace.result == frozenset({"0:0", "0:1"})


def test_staged_construction_zero_stages_keeps_only_seed():
    c = CohenPoset([0, 1])
    trace = dow_construct(c, ["0:0", "0:1"], 0)
    assert trace.result == frozenset({"0:0"})
    assert len(trace.stages) == 1


def test_staged_construction_supports_grow():
    c = CohenPoset([0, 1, 2])
    for antichain in [a for a in c.poset.maximal_antichains()[:20]]:
        trace = dow_construct(c, antichain, 2)
        supports = [set(stage.support) for stage in trace.stages]
        for lo, hi in zip(supports, supports[1:]):
            assert lo <= hi


def support_of(literal):
    return frozenset(parse_condition(literal))


def reference_dow_construct(cohen, antichain, n):
    """The stage loop as it was before support masks, copied verbatim apart
    from returning its trace's (seed, stages, result) as a plain tuple:
    every stage rescans the poset against a set of indices, with no early
    stop."""
    poset = cohen.poset
    items = frozenset(antichain)
    by_canon = sorted(items, key=poset.sort_key)
    down = poset.down_mask
    seed = by_canon[0]
    chosen = {seed}
    support = set(support_of(seed))
    stages = [DowStage((), (seed,), tuple(sorted(support)))]
    for _ in range(1, n + 1):
        handled = [p for p in poset.elements if support_of(p) <= support]
        added = []
        for p in handled:
            pick = next(a for a in by_canon if down[a] & down[p])
            if pick not in chosen:
                chosen.add(pick)
                added.append(pick)
            support.update(support_of(pick))
        stages.append(DowStage(tuple(handled), tuple(added), tuple(sorted(support))))
    return seed, tuple(stages), frozenset(chosen)


@pytest.mark.parametrize("indices", [[0], [0, 1], [0, 1, 2], [-3, 7]])
def test_staged_construction_matches_the_stage_loop_reference(indices):
    # n runs past the stage where the support stops growing, so the repeated
    # records after the fixed point are compared too; [-3, 7] checks that the
    # support masks follow the positions of sparse and negative indices.  A
    # list naming each member twice, as repeated `dow --member` options do,
    # gives the same trace
    c = CohenPoset(indices)
    for antichain in c.poset.maximal_antichains():
        for n in range(7):
            trace = traced(dow_construct(c, antichain, n))
            assert trace == reference_dow_construct(c, antichain, n), (sorted(antichain), n)
            assert traced(dow_construct(c, [*antichain, *antichain], n)) == trace, (sorted(antichain), n)


@pytest.mark.parametrize("width", [4, 5])
def test_staged_construction_matches_the_reference_on_sampled_antichains(width):
    # the claim masks and within_mask stages against the per-condition scan,
    # at the sizes the certify path runs; n = 8 lies past every fixed point,
    # so the copied records are compared too
    c = CohenPoset(range(width))
    rng = random.Random(8000 + width)
    copied = 0
    for _ in range(12):
        antichain = c.poset.random_maximal_antichain(rng)
        for n in range(9):
            trace = dow_construct(c, antichain, n)
            assert traced(trace) == reference_dow_construct(c, antichain, n), (sorted(antichain), n)
        copied += trace.stages[-1].added == () and trace.stages[-1] == trace.stages[-2]
    assert copied


def test_hitting_guarantee_exhaustive_small():
    # every maximal antichain, every level up to the index count plus one
    for indices in ([0], [0, 1]):
        c = CohenPoset(indices)
        strat = c.stratification()
        for antichain in c.poset.maximal_antichains():
            for n in range(len(indices) + 2):
                result = dow_construct(c, antichain, n).result
                for p in strat.ordered_at(n):
                    assert any(c.poset.compatible(p, q) for q in result), (antichain, n, p)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=10_000))
def test_hitting_guarantee_sampled_three_indices(n, seed):
    c = CohenPoset([0, 1, 2])
    antichain = c.poset.random_maximal_antichain(random.Random(seed))
    result = dow_construct(c, antichain, n).result
    assert result <= antichain
    for p in c.stratification().ordered_at(n):
        assert any(c.poset.compatible(p, q) for q in result)


@pytest.mark.parametrize("poset, strat", [
    (c.poset, c.stratification()) for c in (CohenPoset([0, 1]), MeasurePoset(2))])
def test_hits_level_agrees_with_pairwise_compatibility(poset, strat):
    # every subset of every maximal antichain, so both answers occur
    answers = set()
    for antichain in poset.maximal_antichains():
        members = sorted(antichain, key=poset.sort_key)
        for picked in product((False, True), repeat=len(members)):
            subset = [q for q, keep in zip(members, picked) if keep]
            for n in range(strat.stabilization_index + 1):
                expected = all(any(poset.compatible(p, q) for q in subset) for p in strat.ordered_at(n))
                assert hits_level(poset, strat.mask_at(n), subset) == expected, (subset, n)
                answers.add(expected)
    assert answers == {False, True}


def test_a_member_outside_the_poset_is_a_data_error_in_each_atoms_below_user():
    c = CohenPoset([0])
    strat = c.stratification()
    with pytest.raises(DataError, match="unknown condition"):
        hits_level(c.poset, strat.mask_at(1), ["0:0", "nowhere"])
    family = EndowmentFamily("stray", lambda n, chosen: True, lambda n, antichain: antichain | {"nowhere"})
    extractions = extract_each(family, 1, c.poset.maximal_antichains())
    for verify in (verify_weak_endowment, verify_full_endowment):
        with pytest.raises(DataError, match="unknown condition"):
            verify(c.poset, strat, family, 1, extractions)


def test_weak_verifier_accepts_staged_family():
    c = CohenPoset([0, 1])
    family = cohen_dow_family(c, c.stratification())
    extractions = extract_each(family, 1, c.poset.maximal_antichains())
    report = verify_weak_endowment(c.poset, c.stratification(), family, 1, extractions)
    assert report.ok
    assert report.checked == 8
    assert report.family == "staged-hitting"


def test_weak_verifier_accepts_measure_family():
    m = MeasurePoset(2)
    family = measure_total_family(m)
    for n in range(3):
        extractions = extract_each(family, n, m.poset.maximal_antichains())
        report = verify_weak_endowment(m.poset, m.stratification(), family, n, extractions)
        assert report.ok, report.violations


def test_weak_verifier_accepts_maximal_family():
    m = MeasurePoset(1)
    family = maximal_antichain_family(m.poset)
    extractions = extract_each(family, 1, m.poset.maximal_antichains())
    assert verify_weak_endowment(m.poset, m.stratification(), family, 1, extractions).ok


def test_weak_verifier_flags_adversarial_family():
    c = CohenPoset([0, 1])
    family = adversarial_singleton_family(c.poset)
    atoms = frozenset(c.poset.atoms)
    extractions = extract_each(family, 1, [atoms])
    report = verify_weak_endowment(c.poset, c.stratification(), family, 1, extractions)
    assert not report.ok
    # the kept singleton is the least atom; the opposite value at index 0
    # is a level 1 condition incompatible with it
    clauses = {(v.clause, v.witness) for v in report.violations}
    assert ("3'", "0:1") in clauses



NOT_ANTICHAIN = "extraction is not an antichain"
LEAVES = "extraction leaves the antichain"
NOT_MEMBER = "extraction is not a family member"

# Faulty families on Cohen D=2 and measure k=1 at level 1, one per weak
# clause 1 and 2 violation: (poset, antichain, faulty extractor or None,
# faulty membership test or None, the exact violations).  Each antichain
# is maximal and already in canonical order.
WEAK_FAULTS = {
    "cohen-not-antichain": (
        lambda: CohenPoset([0, 1]), ("0:0", "0:1"), lambda n, a: frozenset({"", "0:0"}), None,
        [("1", None, NOT_ANTICHAIN), ("2", "", LEAVES), ("2", None, NOT_MEMBER)]),
    "cohen-leaves": (
        lambda: CohenPoset([0, 1]), ("0:0", "0:1"),
        lambda n, a: frozenset({"0:0,1:0", "0:0,1:1", "0:1,1:0", "0:1,1:1"}), None,
        [("2", "0:0,1:0", LEAVES)]),
    "cohen-not-member": (
        lambda: CohenPoset([0, 1]), ("0:0", "0:1"), None, lambda n, c: False,
        [("2", None, NOT_MEMBER)]),
    "measure-not-antichain": (
        lambda: MeasurePoset(1), ("0", "1"), lambda n, a: frozenset({"0,1", "0"}), None,
        [("1", None, NOT_ANTICHAIN), ("2", "0,1", LEAVES), ("2", None, NOT_MEMBER)]),
    "measure-leaves": (
        lambda: MeasurePoset(1), ("0", "1"), lambda n, a: frozenset({"0,1"}), None,
        [("2", "0,1", LEAVES)]),
    "measure-not-member": (
        lambda: MeasurePoset(1), ("0", "1"), None, lambda n, c: False,
        [("2", None, NOT_MEMBER)]),
}


@pytest.mark.parametrize("case", WEAK_FAULTS.values(), ids=WEAK_FAULTS.keys())
def test_weak_verifier_reports_faulty_extractions(case):
    # a faulty extraction is reported clause by clause, never raised: the
    # measure family's membership test answers False on a set that is not
    # an antichain, as the Cohen family's does
    make, antichain, extract, member, expected = case
    built = make()
    poset, strat = built.poset, built.stratification()
    assert poset.is_maximal_antichain(antichain)
    real = cohen_dow_family(built, strat) if isinstance(built, CohenPoset) else measure_total_family(built)
    family = EndowmentFamily("faulty", member or real.member, extract or real.extract)
    report = verify_weak_endowment(poset, strat, family, 1, extract_each(family, 1, [antichain]))
    assert report.violations == tuple(Violation(clause, antichain, witness, detail)
                                      for clause, witness, detail in expected)


def test_weak_violations_report_the_canonically_sorted_antichain():
    # the verifier sorts an antichain only when it has a violation to report
    for built in (CohenPoset([0, 1]), MeasurePoset(2)):
        poset, strat = built.poset, built.stratification()
        family = adversarial_singleton_family(poset)
        antichains = poset.maximal_antichains()
        extractions = extract_each(family, 1, antichains)
        report = verify_weak_endowment(poset, strat, family, 1, extractions)
        assert report.violations
        canonical = {frozenset(a): tuple(sorted(a, key=poset.sort_key)) for a in antichains}
        for v in report.violations:
            assert v.antichain == canonical[frozenset(v.antichain)]
        # violations come in extraction order, each antichain's in one run
        runs = [v.antichain for i, v in enumerate(report.violations)
                if i == 0 or report.violations[i - 1].antichain != v.antichain]
        assert runs == [canonical[a] for a in antichains if canonical[a] in set(runs)]

def test_weak_and_full_verification_extract_each_antichain_once():
    c = CohenPoset([0, 1])
    inner = cohen_dow_family(c, c.stratification())
    calls = []

    def extract(n, antichain):
        calls.append(antichain)
        return inner.extract(n, antichain)

    family = EndowmentFamily(inner.label, inner.member, extract)
    antichains = c.poset.maximal_antichains()
    extractions = extract_each(family, 2, antichains)
    assert [items for items, _ in extractions] == list(antichains)
    weak = verify_weak_endowment(c.poset, c.stratification(), family, 2, extractions)
    full = verify_full_endowment(c.poset, c.stratification(), family, 2, extractions)
    assert weak.ok and full.ok
    assert weak.checked == full.checked == len(antichains) == 8
    assert calls == list(antichains)


def test_weak_report_jsonable_shape():
    c = CohenPoset([0])
    family = adversarial_singleton_family(c.poset)
    extractions = extract_each(family, 1, [frozenset(c.poset.atoms)])
    data = verify_weak_endowment(c.poset, c.stratification(), family, 1, extractions).to_jsonable()
    assert data["ok"] is False
    assert data["antichains_checked"] == 1
    violation = data["violations"][0]
    assert set(violation) == {"clause", "antichain", "witness", "detail"}


def test_full_verifier_level_zero_is_vacuous():
    # 0-tuples impose no constraint beyond p extending itself
    c = CohenPoset([0])
    family = cohen_dow_family(c, c.stratification())
    extractions = extract_each(family, 0, c.poset.maximal_antichains())
    assert verify_full_endowment(c.poset, c.stratification(), family, 0, extractions).ok


def test_full_verifier_positive_small_cases():
    c = CohenPoset([0, 1])
    family = cohen_dow_family(c, c.stratification())
    for n in (1, 2):
        extractions = extract_each(family, n, c.poset.maximal_antichains())
        report = verify_full_endowment(c.poset, c.stratification(), family, n, extractions)
        assert report.ok, report.violations
    m = MeasurePoset(1)
    family = measure_total_family(m)
    extractions = extract_each(family, 1, m.poset.maximal_antichains())
    assert verify_full_endowment(m.poset, m.stratification(), family, 1, extractions).ok


def test_full_verifier_flags_adversarial_family():
    c = CohenPoset([0, 1])
    family = adversarial_singleton_family(c.poset)
    extractions = extract_each(family, 1, [frozenset(c.poset.atoms)])
    report = verify_full_endowment(c.poset, c.stratification(), family, 1, extractions)
    assert not report.ok
    assert all(v.clause == "3" for v in report.violations)


def test_full_verifier_budget():
    # 8 antichains give 8 distinct extractions; level 2 is all 9 conditions
    c = CohenPoset([0, 1])
    family = cohen_dow_family(c, c.stratification())
    extractions = extract_each(family, 2, c.poset.maximal_antichains())
    with pytest.raises(ResourceError) as info:
        verify_full_endowment(c.poset, c.stratification(), family, 2, extractions, budget=10)
    assert str(info.value) == "joint extension scan exceeded budget 10 (the clause needs 576 pairs)"
    assert info.value.partial == EndowmentReport("staged-hitting", 2, 8, ())


def test_full_verifier_budget_trips_at_the_exact_pair():
    # the singleton family at n=2 on Cohen D=2: 6 distinct extractions, the
    # first two {''} and {'0:0'}, and 9 level conditions, so 36 * 9 pairs
    c = CohenPoset([0, 1])
    strat = c.stratification()
    level = strat.ordered_at(2)
    family = adversarial_singleton_family(c.poset)
    extractions = extract_each(family, 2, c.poset.maximal_antichains())

    def tripped(budget):
        with pytest.raises(ResourceError) as info:
            verify_full_endowment(c.poset, strat, family, 2, extractions, budget=budget)
        assert str(info.value) == f"joint extension scan exceeded budget {budget} (the clause needs 324 pairs)"
        return info.value.partial.violations

    violations = verify_full_endowment(c.poset, strat, family, 2, extractions, budget=324).violations
    assert len(violations) == 183
    # the last pair, (the last tuple, the last level condition), fails
    assert tripped(323) == violations[:182]
    # tuple 6, ({'0:0'}, {''}), has the AND that tuple 1, ({''}, {'0:0'}),
    # built; it fails at level[2], level[7] and level[8], so a budget 4 pairs
    # into it keeps only the first of those
    assert violations[17:20] == tuple(
        Violation("3", ("", "0:0"), level[i], "no common extension scheme for tuple") for i in (2, 7, 8))
    assert tripped(6 * 9 + 4) == violations[:18]
    assert tripped(6 * 9) == violations[:17]


def test_full_verifier_empty_level_checks_no_budget():
    # a level with no conditions has no pairs to charge, so it returns the
    # report even under a negative budget
    c = CohenPoset([0])
    strat = make_stratification(c.poset, [[], c.poset.elements])
    family = maximal_antichain_family(c.poset)
    extractions = extract_each(family, 0, c.poset.maximal_antichains())
    report = verify_full_endowment(c.poset, strat, family, 0, extractions, budget=-1)
    assert report.ok and report.checked == 2


# -- the mask scan against the per-r scan it replaced -------------------------


def reference_scan(poset, strat, family, n, antichains):
    """The joint extension scan as verify_full_endowment ran it before it used
    masks: for each tuple and level condition p, walk down(p) in canonical
    order until some r lies below a member of every tuple entry.

    Each (tuple, p) pair is one unit of budget.  Where the verifier compares
    its charged pairs with the budget, this records the pairs so far and the
    number of violations found before, so one run answers every budget (see
    `reference_outcome`).  Inputs are trusted to be maximal antichains.
    """
    level = strat.ordered_at(n)
    outputs = []
    seen = set()
    checked = 0
    for antichain in antichains:
        checked += 1
        chosen = frozenset(family.extract(n, frozenset(antichain)))
        if chosen not in seen:
            seen.add(chosen)
            outputs.append(chosen)
    below = {p: sorted(poset.down(p), key=poset.sort_key) for p in level}
    up = {r: poset.up(r) for r in poset.elements}
    events = []
    violations = []
    steps = 0
    for combo in product(outputs, repeat=n):
        for p in level:
            found = False
            steps += 1
            for r in below[p]:
                if all(not up[r].isdisjoint(part) for part in combo):
                    found = True
                    break
            events.append((steps, len(violations)))
            if not found:
                flat = tuple(sorted(frozenset().union(*combo), key=poset.sort_key)) if combo else ()
                violations.append(Violation("3", flat, p, "no common extension scheme for tuple"))
    return checked, events, violations


def reference_outcome(label, n, scan, budget):
    """The per-r scan's answer under `budget`: its report, or the message and
    partial report of the ResourceError it raised at the first pair that
    passed the budget."""
    checked, events, violations = scan
    i = bisect_right([steps for steps, _ in events], budget)
    if i < len(events):
        partial = EndowmentReport(label, n, checked, tuple(violations[:events[i][1]]))
        message = f"joint extension scan exceeded budget {budget} (the clause needs {len(events)} pairs)"
        return ("raise", message, partial)
    return ("report", EndowmentReport(label, n, checked, tuple(violations)))


def verifier_outcome(poset, strat, family, n, extractions, budget):
    try:
        return ("report", verify_full_endowment(poset, strat, family, n, extractions, budget=budget))
    except ResourceError as error:
        return ("raise", str(error), error.partial)


# every budget is checked when the reference's total is at most this; above
# it, only the budgets where the reference's answer can change
EVERY_BUDGET_UP_TO = 1200


def budgets_to_check(events):
    """Budgets 0..total+1 for small scans.  For large ones: 0..59, and each
    budget s-1 and s where s is the pair count at which the partial report
    would next grow (or the scan finish), thinned to about a dozen.

    Between two such points the reference's answer is constant, and the
    verifier's raise point only moves forward as the budget grows, so the
    two ends of each stretch decide the stretch."""
    total = events[-1][0] if events else 0
    if total <= EVERY_BUDGET_UP_TO:
        return range(total + 2)
    changes = [steps for i, (steps, before) in enumerate(events)
               if i + 1 == len(events) or events[i + 1][1] != before]
    changes = changes[::max(1, len(changes) // 12)] + [total]
    return sorted(set(range(60)) | {b for s in changes for b in (s - 1, s, s + 1)})


def random_stratified_poset(rng):
    poset = random_explicit_poset(rng)
    elements = poset.elements
    return poset, make_stratification(poset, [elements[:rng.randint(1, len(elements))], elements])


def joint_extension_cases():
    for d in (1, 2, 3):
        c = CohenPoset(list(range(d)))
        antichains = c.poset.maximal_antichains()
        for family in (cohen_dow_family(c, c.stratification()), maximal_antichain_family(c.poset),
                       adversarial_singleton_family(c.poset)):
            # n = 3 gives each row a two-entry prefix; the maximal family's
            # 154^2 tuples at D=3 would take the reference seconds and add
            # no new kind of step
            for n in (0, 1, 2, 3) if d < 3 else (0, 1, 2):
                if (d, n, family.label) != (3, 2, "maximal-antichain"):
                    yield f"cohen-D{d}-{family.label}-n{n}", c.poset, c.stratification(), family, n, antichains
    for k in (1, 2):
        m = MeasurePoset(k)
        rng = random.Random(k)
        antichains = [m.poset.random_maximal_antichain(rng) for _ in range(20)]
        for family in (measure_total_family(m), maximal_antichain_family(m.poset),
                       adversarial_singleton_family(m.poset)):
            for n in (0, 1, 2, 3) if k == 1 else (0, 1, 2):
                yield f"measure-k{k}-{family.label}-n{n}", m.poset, m.stratification(), family, n, antichains
    rng = random.Random(4)
    for i in range(4):
        poset, strat = random_stratified_poset(rng)
        antichains = poset.maximal_antichains()
        for family in (maximal_antichain_family(poset), adversarial_singleton_family(poset)):
            for n in (0, 1, 2):
                yield f"explicit{i}-{family.label}-n{n}", poset, strat, family, n, antichains


@pytest.mark.parametrize("case", joint_extension_cases(), ids=lambda case: case[0])
def test_full_verifier_matches_the_per_r_scan_at_every_budget(case):
    _, poset, strat, family, n, antichains = case
    # extraction runs once per antichain, not once per budget
    family = EndowmentFamily(family.label, family.member, cache(family.extract))
    scan = reference_scan(poset, strat, family, n, antichains)
    extractions = extract_each(family, n, antichains)
    for budget in budgets_to_check(scan[1]):
        expected = reference_outcome(family.label, n, scan, budget)
        assert verifier_outcome(poset, strat, family, n, extractions, budget) == expected, budget


def tuple_intersections(poset, n, extractions):
    """The intersection of the entries' reaches for each n-tuple of distinct
    extraction outputs, in the order the joint extension scan visits them."""
    outputs = list(dict.fromkeys(chosen for _, chosen in extractions))
    commons = []
    for combo in product(outputs, repeat=n):
        common = frozenset(poset.elements)
        for part in combo:
            common &= frozenset().union(*map(poset.down, part))
        commons.append(common)
    return outputs, commons


def test_full_verifier_builds_each_distinct_failing_list_once(monkeypatch):
    # (a, b) and (b, a) share an intersection, and so do tuples where one
    # reach contains the other; the failing conditions (one `above_atoms`
    # call) are built once per distinct AND of atom masks, not once per
    # tuple, and that AND marks the atoms in the tuple's reach intersection
    c = CohenPoset([0, 1])
    strat = c.stratification()
    family = maximal_antichain_family(c.poset)
    extractions = extract_each(family, 2, c.poset.maximal_antichains())
    _, commons = tuple_intersections(c.poset, 2, extractions)
    ands = [sum(1 << j for j, a in enumerate(c.poset.atoms) if a in common) for common in commons]
    assert len(set(ands)) < len(ands) == 64
    built = Counter()
    above_atoms = c.poset.above_atoms

    def counted(mask):
        built[mask] += 1
        return above_atoms(mask)

    monkeypatch.setattr(c.poset, "above_atoms", counted)
    assert verify_full_endowment(c.poset, strat, family, 2, extractions).ok
    assert built == Counter(set(ands))


def test_some_case_trips_the_budget_mid_tuple_on_an_and_already_built():
    # such a trip filters a memoized failing list down to the tuple's first
    # pairs; the per-r comparison above must reach that path at a budget it
    # checks
    for _, poset, strat, family, n, antichains in joint_extension_cases():
        level = strat.ordered_at(n)
        scan = reference_scan(poset, strat, family, n, antichains)
        extractions = extract_each(family, n, antichains)
        _, commons = tuple_intersections(poset, n, extractions)
        pairs = [pairs for pairs, _ in scan[1]]
        for budget in budgets_to_check(scan[1]):
            tripped = bisect_right(pairs, budget)
            if tripped < len(pairs) and tripped % len(level):
                at = tripped // len(level)
                if commons[at] in commons[:at]:
                    return
    pytest.fail("no case trips the budget mid-tuple on an intersection already built")


def reference_weak(poset, strat, family, n, extractions):
    """verify_weak_endowment as it was before it read clause 3' off atom
    masks: each level condition's down set is tested against the reach, the
    union of the members' down sets."""
    level = strat.ordered_at(n)
    violations = []
    for items, chosen in extractions:
        key = tuple(sorted(items, key=poset.sort_key))
        if not poset.is_antichain(chosen):
            violations.append(Violation("1", key, None, "extraction is not an antichain"))
        if not chosen <= items:
            stray = min(chosen - items, key=poset.sort_key)
            violations.append(Violation("2", key, stray, "extraction leaves the antichain"))
        if not family.member(n, chosen):
            violations.append(Violation("2", key, None, "extraction is not a family member"))
        reach = frozenset().union(*map(poset.down, chosen))
        for p in level:
            if reach.isdisjoint(poset.down(p)):
                violations.append(Violation("3'", key, p, "level condition incompatible with every member"))
    return EndowmentReport(family.label, n, len(extractions), tuple(violations))


def test_weak_reference_cases_include_clause_three_prime_violations():
    # the comparison below covers failing level conditions, not only passes
    assert any(
        any(v.clause == "3'" for v in reference_weak(poset, strat, family, n,
                                                   extract_each(family, n, antichains)).violations)
        for _, poset, strat, family, n, antichains in joint_extension_cases())


@pytest.mark.parametrize("case", joint_extension_cases(), ids=lambda case: case[0])
def test_weak_verifier_matches_the_per_condition_scan(case):
    _, poset, strat, family, n, antichains = case
    extractions = extract_each(family, n, antichains)
    assert (verify_weak_endowment(poset, strat, family, n, extractions)
            == reference_weak(poset, strat, family, n, extractions))
