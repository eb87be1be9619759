"""Cover names: validity, point antichains, approximation with its dense
witness certificate, refinement, and the pipeline."""

import random
from dataclasses import replace

import pytest

from endowlab.bounds import DEFAULT_LIMITS, Limits
from endowlab.canon import set_key, sorted_sets
from endowlab.cohen import CohenPoset
from endowlab.endowment import cohen_dow_family, maximal_antichain_family, measure_total_family
from endowlab.errors import DataError
from endowlab.measure import MeasurePoset
from endowlab.names import (
    Approximation,
    AtomRow,
    PointName,
    approximate,
    check_approximation,
    derive_point_names,
    make_cover_name,
    refine_name,
    run_pipeline,
)
from endowlab.poset import evaluate_name, forces, ExistsSupersetInCover, Poset, validate_name
from endowlab.preservation import build_bundle, generate_scenario, run_preservation
from endowlab.selection import MODES
from endowlab.topology import FiniteSpace


def pair_setup():
    """Two index poset over the two point space with the branching name:
    the 0 -> 0 side commits {x} and {x,y}; the 0 -> 1 side commits {x,y}."""
    c = CohenPoset([0, 1])
    space = FiniteSpace(["x", "y"], [["x"], ["x", "y"]])
    name = make_cover_name(c.poset, space, [
        ("0:0", {"x"}),
        ("0:0", {"x", "y"}),
        ("0:1", {"x", "y"}),
    ])
    return c, space, name


def test_make_cover_name_validates():
    c, space, _ = pair_setup()
    with pytest.raises(DataError):
        make_cover_name(c.poset, space, [("5:0", {"x"})])
    with pytest.raises(DataError):
        make_cover_name(c.poset, space, [("0:0", {"y"})])  # not a basic open set


def test_cover_name_validity():
    c, space, name = pair_setup()
    assert len(derive_point_names(c.poset, space, name)) == 2
    # dropping the 0 -> 1 side breaks density for both points below 0:1;
    # the first point in sorted order is the one named
    partial = make_cover_name(c.poset, space, [("0:0", {"x"}), ("0:0", {"x", "y"})])
    with pytest.raises(DataError, match="point 'x' lacks dense commitments"):
        derive_point_names(c.poset, space, partial)
    # with x committed everywhere, y is the point that fails
    only_y = make_cover_name(c.poset, space, [("", {"x"}), ("0:0", {"x", "y"})])
    with pytest.raises(DataError, match="point 'y' lacks dense commitments"):
        derive_point_names(c.poset, space, only_y)
    # two atoms and no top: only the first condition in canonical order lacks
    # a commitment below it
    pair = Poset.from_pairs(["a", "b"], [])
    single = FiniteSpace(["x"], [["x"]])
    with pytest.raises(DataError, match="point 'x' lacks dense commitments"):
        derive_point_names(pair, single, make_cover_name(pair, single, [("b", {"x"})]))


def test_point_names_on_pair_fixture():
    c, space, name = pair_setup()
    pns = derive_point_names(c.poset, space, name)
    by_point = {pn.point: pn for pn in pns}
    assert set(by_point) == {"x", "y"}
    # both points split along index 0
    assert by_point["x"].antichain == ("0:0", "0:1")
    assert by_point["y"].antichain == ("0:0", "0:1")
    # least committed set per side
    assert by_point["x"].value_at("0:0") == frozenset({"x"})
    assert by_point["x"].value_at("0:1") == frozenset({"x", "y"})
    assert by_point["y"].value_at("0:0") == frozenset({"x", "y"})
    assert by_point["y"].value_at("0:1") == frozenset({"x", "y"})


def test_point_antichains_are_maximal_and_committed():
    c, space, name = pair_setup()
    for pn in derive_point_names(c.poset, space, name):
        assert c.poset.is_maximal_antichain(pn.antichain)
        for p, u in pn.values:
            assert pn.point in u
            # the committed set is forced in below p
            assert forces(c.poset, p, ExistsSupersetInCover(name, u))


def reference_point_names(poset, space, name):
    """The per point greedy loop over every position, before points with
    one commitment mask shared their antichain, copied verbatim."""
    validate_name(poset, name)
    down_mask = poset.down_mask
    out = []
    for x in sorted(space.points):
        pairs = sorted(((q, u) for q, u in name.pairs if x in u), key=lambda pair: set_key(pair[1]))
        committed = poset.reach(q for q, _ in pairs)
        if not poset.meets_everything(committed):
            raise DataError(f"name is not a valid cover name; point {x!r} lacks dense commitments")
        antichain = []
        chosen = 0
        for i, p in enumerate(poset.elements):
            below = poset.down_mask[p]
            if committed >> i & 1 and below & chosen == 0:
                antichain.append(p)
                chosen |= below
        if not poset.is_maximal_antichain(antichain):
            raise DataError(f"point {x!r}: greedy antichain is not maximal")
        values = []
        for p in antichain:
            bit = 1 << poset.sort_key(p)
            values.append((p, next(u for q, u in pairs if down_mask[q] & bit)))
        out.append(PointName(x, tuple(antichain), tuple(values)))
    return tuple(out)


def point_name_cases():
    """(poset, space, name) triples whose points share one commitment mask,
    share it in part, or each have their own."""
    rng = random.Random(77)
    cases = []
    for poset in (CohenPoset(range(3)).poset, MeasurePoset(2).poset):
        space = FiniteSpace(["x", "y", "z"], [["x"], ["y"], ["z"], ["x", "y", "z"]])
        for _ in range(6):
            a, b = (sorted(poset.random_maximal_antichain(rng), key=poset.sort_key) for _ in range(2))
            extra = [(rng.choice(poset.elements), {rng.choice("xyz")}) for _ in range(3)]
            # every point committed to the whole space on one antichain
            shared = [(q, {"x", "y", "z"}) for q in a]
            # x and z on one antichain, y on another, each through its singleton
            split = [(q, {x}) for q in a for x in "xz"] + [(q, {"y"}) for q in b]
            for pairs in (shared, split, shared + extra, split + extra):
                cases.append((poset, space, make_cover_name(poset, space, pairs)))
    for seed in range(30):
        scenario = generate_scenario(seed)
        bundle = build_bundle(scenario.poset)
        space = FiniteSpace(scenario.points, scenario.base)
        cases += [(bundle.poset, space, name) for name in scenario.names]
    return cases


def test_point_names_match_the_per_point_reference():
    sharing = set()
    for poset, space, name in point_name_cases():
        pns = derive_point_names(poset, space, name)
        assert pns == reference_point_names(poset, space, name)
        distinct = len({pn.antichain for pn in pns})
        sharing.add(distinct == 1 if len(pns) > 1 else None)
    assert {True, False} <= sharing  # shared and unshared commitment masks both ran


def test_approximate_extracts_once_per_distinct_antichain():
    c = CohenPoset(range(3))
    space = FiniteSpace(["x", "y", "z"], [["x"], ["y"], ["z"], ["x", "y", "z"]])
    rng = random.Random(3)
    a, b = (sorted(c.poset.random_maximal_antichain(rng), key=c.poset.sort_key) for _ in range(2))
    assert a != b
    family = cohen_dow_family(c, c.stratification())
    calls = []

    def extract(n, antichain):
        calls.append(antichain)
        return family.extract(n, antichain)

    counted = replace(family, extract=extract)
    for pairs, distinct in (
        ([(q, {"x", "y", "z"}) for q in a], 1),
        ([(q, {x}) for q in a for x in "xz"] + [(q, {"y"}) for q in b], 2),
        ([(q, {"x"}) for q in a] + [(q, {x}) for q in b for x in "yz"], 2),
    ):
        name = make_cover_name(c.poset, space, pairs)
        pns = derive_point_names(c.poset, space, name)
        for n in range(4):
            calls.clear()
            approx = approximate(c.poset, pns, n, counted)
            assert len(calls) == len(set(calls)) == distinct
            assert approx == approximate(c.poset, pns, n, family)


def test_approximate_trusts_the_point_antichains(monkeypatch):
    # derive_point_names verifies each antichain; the extractors do not repeat it
    checks = []
    real = Poset.is_maximal_antichain

    def counted(self, items):
        checks.append(frozenset(items))
        return real(self, items)

    monkeypatch.setattr(Poset, "is_maximal_antichain", counted)
    c, space, name = pair_setup()
    m = MeasurePoset(2)
    measure_name = make_cover_name(m.poset, space, [
        ("00,01", {"x"}), ("00,01", {"x", "y"}), ("10,11", {"x", "y"})])
    for poset, family, cover_name in ((c.poset, cohen_dow_family(c, c.stratification()), name),
                                      (m.poset, measure_total_family(m), measure_name)):
        checks.clear()
        pns = derive_point_names(poset, space, cover_name)
        assert checks == [frozenset(pn.antichain) for pn in pns[:1]]  # one shared antichain
        for n in range(3):
            approximate(poset, pns, n, family)
        assert len(checks) == 1


def test_derive_rejects_invalid_names():
    c, space, _ = pair_setup()
    partial = make_cover_name(c.poset, space, [("0:0", {"x"}), ("0:0", {"x", "y"})])
    with pytest.raises(DataError):
        derive_point_names(c.poset, space, partial)


def test_approximation_on_pair_fixture():
    c, space, name = pair_setup()
    pns = derive_point_names(c.poset, space, name)
    family = cohen_dow_family(c, c.stratification())
    approx = approximate(c.poset, pns, 1, family)
    assert approx.level == 1
    # x uses both sides: {x} meet {x,y} = {x}; y gets {x,y}
    assert {x: v for x, _, v in approx.entries} == {
        "x": frozenset({"x"}), "y": frozenset({"x", "y"})}
    assert approx.cover == (frozenset({"x"}), frozenset({"x", "y"}))


def test_approximation_pieces_contain_their_points():
    m = MeasurePoset(2)
    space = FiniteSpace(["x", "y"], [["x"], ["x", "y"]])
    name = make_cover_name(m.poset, space, [
        ("00,01", {"x"}),
        ("00,01", {"x", "y"}),
        ("10,11", {"x", "y"}),
    ])
    pns = derive_point_names(m.poset, space, name)
    for n in range(3):
        approx = approximate(m.poset, pns, n, measure_total_family(m))
        for x, _, piece in approx.entries:
            assert x in piece


def test_approximation_certificate_positive_with_witness_counts():
    c, space, name = pair_setup()
    pns = derive_point_names(c.poset, space, name)
    approx = approximate(c.poset, pns, 1, cohen_dow_family(c, c.stratification()))
    cert = check_approximation(c.poset, c.stratification(), name, approx)
    assert cert.positive
    # 2 cover pieces, 5 level-1 conditions: one witness each
    assert len(cert.triples) == 10
    assert cert.counterexample is None
    # a piece is forced in below the witness
    for piece_key, p, r in cert.triples:
        assert c.poset.leq(r, p)
        assert forces(c.poset, r, ExistsSupersetInCover(name, frozenset(piece_key)))


def test_approximation_certificate_flags_undominated_piece():
    # three point discrete space, name forced everywhere: each singleton is
    # committed at the top, so a two point piece is never dominated
    c = CohenPoset([0])
    space = FiniteSpace(["x", "y", "z"], [["x"], ["y"], ["z"]])
    name = make_cover_name(c.poset, space, [
        ("", {"x"}), ("", {"y"}), ("", {"z"}),
    ])
    pns = derive_point_names(c.poset, space, name)
    approx = approximate(c.poset, pns, 1, maximal_antichain_family(c.poset))
    cert = check_approximation(c.poset, c.stratification(), name, approx)
    assert cert.positive
    tampered = Approximation(
        approx.level,
        approx.entries,
        approx.cover + (frozenset({"y", "z"}),),
    )
    cert = check_approximation(c.poset, c.stratification(), name, tampered)
    assert not cert.positive
    piece, p = cert.counterexample
    assert frozenset(piece) == frozenset({"y", "z"})
    assert p == ""


def test_refined_name_evaluation_law():
    c, space, name = pair_setup()
    pns = derive_point_names(c.poset, space, name)
    approx = approximate(c.poset, pns, 1, cohen_dow_family(c, c.stratification()))
    refined, cert = refine_name(c.poset, c.stratification(), 1, name, approx.cover, space)
    assert cert.positive
    for atom in c.poset.atoms:
        got = set(evaluate_name(c.poset, refined, atom))
        expect = {
            h for h in approx.cover
            if any(h <= u for u in evaluate_name(c.poset, name, atom))
        }
        assert got == expect


def test_refinement_certificate_clauses():
    c, space, name = pair_setup()
    strat = c.stratification()
    pns = derive_point_names(c.poset, space, name)
    approx = approximate(c.poset, pns, 1, cohen_dow_family(c, strat))
    refined, cert = refine_name(c.poset, strat, 1, name, approx.cover, space)
    assert cert.refines_everywhere
    assert cert.counterexample is None
    # every (ground set, level condition) pair has a dense witness
    assert len(cert.triples) == len(approx.cover) * len(strat.at(1))
    for h_key, p, r in cert.triples:
        assert c.poset.leq(r, p)
        assert (r, frozenset(h_key)) in set(refined.pairs)


def test_refinement_flags_undominated_ground_set():
    c = CohenPoset([0])
    space = FiniteSpace(["x", "y", "z"], [["x"], ["y"], ["z"]])
    name = make_cover_name(c.poset, space, [("", {"x"}), ("", {"y"}), ("", {"z"})])
    refined, cert = refine_name(
        c.poset, c.stratification(), 0, name, [frozenset({"y", "z"})], space)
    assert not cert.positive
    assert cert.counterexample == (("y", "z"), "")
    assert refined.pairs == ()


def test_refinement_requires_open_ground_sets():
    c, space, name = pair_setup()
    with pytest.raises(DataError):
        refine_name(c.poset, c.stratification(), 1, name, [frozenset({"y"})], space)


def test_pipeline_positive_on_pair_fixture():
    c, space, name = pair_setup()
    strat = c.stratification()
    family = cohen_dow_family(c, strat)
    names = [name, name, name]
    approxes = [
        approximate(c.poset, derive_point_names(c.poset, space, nm), n, family)
        for n, nm in enumerate(names)
    ]
    result = run_pipeline(c.poset, strat, space, names, [a.cover for a in approxes])
    assert result.positive
    assert all(result.subfamily_everywhere)
    assert result.union_covers


def test_pipeline_single_level_with_trivial_stratification():
    from endowlab.poset import Poset, make_stratification
    p = Poset.from_pairs(["t"], [])
    strat = make_stratification(p, [["t"]])
    space = FiniteSpace(["x"], [["x"]])
    name = make_cover_name(p, space, [("t", {"x"})])
    result = run_pipeline(p, strat, space, [name], [[frozenset({"x"})]])
    assert result.positive


def test_pipeline_horizon_precondition():
    c, space, name = pair_setup()
    strat = c.stratification()
    names = [name, name, name]
    # y only appears below the stabilization floor (level 0 < 2)
    families = [[frozenset({"x", "y"})], [frozenset({"x"})], [frozenset({"x"})]]
    # the run completes and honestly fails to cover
    result = run_pipeline(c.poset, strat, space, names, families)
    assert not result.positive
    assert not result.union_covers


def test_pipeline_needs_one_family_per_name():
    c, space, name = pair_setup()
    with pytest.raises(DataError):
        run_pipeline(c.poset, c.stratification(), space, [name], [])


# -- the closing pass against the separate checks it replaced -----------------
#
# `reference_closing_checks` copies the earlier closing code verbatim: the
# subfamily loop and the union pass of run_pipeline, with the bodies of the
# subfamily and union statements' atom evaluations inlined, and the atom
# table loop of run_preservation.  Each evaluates the refined names again.


def ref_subfamily_holds(poset, name, family, atom):
    allowed = set(sorted_sets(family))
    return all(u in allowed for u in evaluate_name(poset, name, atom))


def ref_union_holds(poset, names, points, atom):
    covered = set()
    for name in names:
        for u in evaluate_name(poset, name, atom):
            covered.update(u)
    return frozenset(points) <= covered


def reference_closing_checks(poset, strat, space, refined, families):
    floor = strat.stabilization_index
    subfamily_flags = []
    for n, w in enumerate(refined):
        subfamily_flags.append(all(ref_subfamily_holds(poset, w, families[n], a) for a in poset.atoms))
    tail = tuple(refined[n] for n in range(floor, len(refined)))
    bad_atom = next(
        (a for a in poset.atoms if not ref_union_holds(poset, tail, space.points, a)),
        None,
    ) if tail else (poset.atoms[0] if space.points else None)
    atom_rows = []
    complete = True
    for atom in poset.atoms:
        evaluations = [
            evaluate_name(poset, refined[n], atom)
            for n in range(len(refined))
        ]
        for x in sorted(space.points):
            hit = next(
                ((n, h) for n in range(floor, len(refined)) for h in evaluations[n] if x in h),
                None,
            )
            if hit is None:
                atom_rows.append(AtomRow(atom, x, None, None))
                complete = False
            else:
                atom_rows.append(AtomRow(atom, x, hit[0], hit[1]))
    return tuple(subfamily_flags), tuple(atom_rows), bad_atom is None, complete


def assert_matches_reference(poset, strat, space, result, families):
    flags, rows, union_ok, complete = reference_closing_checks(
        poset, strat, space, result.refined, families)
    assert result.subfamily_everywhere == flags
    assert result.atom_table == rows
    assert result.union_covers == union_ok == complete
    return union_ok


# Tighter generation bounds draw other scenarios than the defaults.
SMALL_BOUNDS = Limits(max_indices=1, max_k=1, max_points=2, max_base=3, max_poset=4, max_levels=4)


@pytest.mark.parametrize("bounds", [DEFAULT_LIMITS, SMALL_BOUNDS], ids=["default", "small"])
@pytest.mark.parametrize("mode", MODES)
def test_closing_pass_matches_the_separate_checks(mode, bounds):
    for seed in range(15):
        scenario = generate_scenario(seed, mode, bounds)
        cert = run_preservation(scenario)
        bundle = build_bundle(scenario.poset)
        space = FiniteSpace(scenario.points, scenario.base)
        assert assert_matches_reference(
            bundle.poset, bundle.strat, space, cert.pipeline, cert.ground_families)


def test_closing_pass_matches_the_separate_checks_when_covering_fails():
    c, space, name = pair_setup()
    strat = c.stratification()
    families = [[frozenset({"x", "y"})], [frozenset({"x"})], [frozenset({"x"})]]
    result = run_pipeline(c.poset, strat, space, [name, name, name], families)
    assert not assert_matches_reference(c.poset, strat, space, result, families)
    assert {row.level for row in result.atom_table if row.point == "y"} == {None}
