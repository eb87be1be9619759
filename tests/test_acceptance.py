"""Acceptance gate: the eight headline guarantees, one pass/fail line each.

Run with -s to see the PASS lines; under plain pytest each criterion is one
test whose pass/fail status is the verdict.  The discrete triple fixture of
the negative controls, with its shape check, lives here too.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from endowlab.canon import canonical_json
from endowlab.cohen import CohenPoset
from endowlab.endowment import (
    adversarial_singleton_family,
    cohen_dow_family,
    extract_each,
    measure_total_family,
    verify_weak_endowment,
)
from endowlab.errors import ScenarioError
from endowlab.instances import (
    fixture_cohen_pair,
    fixture_measure_pair,
    validate_instance,
    wrap_instance,
)
from endowlab.measure import MeasurePoset, extract_measure_endowment
from endowlab.names import (
    Approximation,
    approximate,
    check_approximation,
    derive_point_names,
    make_cover_name,
    refine_name,
)
from endowlab.poset import ExistsSupersetInCover, Name, Poset, forces, forces_dense
from endowlab.preservation import (
    build_bundle,
    generate_scenario,
    replay_certificate,
    run_preservation,
)
from endowlab.selection import MODES
from endowlab.topology import FiniteSpace

GOLDEN = Path(__file__).parent / "golden"
SEEDED_SAMPLES = 500


def _seeded_antichains(poset: Poset, count: int, seed: int):
    rng = random.Random(seed)
    return [poset.random_maximal_antichain(rng) for _ in range(count)]


def test_criterion_1_weak_endowment_on_assignment_posets():
    start = time.monotonic()
    checked = 0
    for size in (1, 2, 3):
        cohen = CohenPoset(range(size))
        strat = cohen.stratification()
        family = cohen_dow_family(cohen, strat)
        if size <= 2:
            antichains = cohen.poset.maximal_antichains()
        else:
            antichains = _seeded_antichains(cohen.poset, SEEDED_SAMPLES, seed=size)
        for n in range(4):
            extractions = extract_each(cohen.poset, family, n, antichains)
            report = verify_weak_endowment(cohen.poset, strat, family, n, extractions)
            assert report.ok, (size, n, report.violations[:1])
            checked += report.checked
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"budget exceeded: {elapsed:.1f}s"
    print(f"PASS criterion 1: staged families satisfy all weak endowment clauses "
          f"({checked} antichain checks in {elapsed:.1f}s)")


def test_criterion_2_measure_algebra_endowment():
    checked = 0
    for k in (1, 2, 3):
        algebra = MeasurePoset(k)
        strat = algebra.stratification()
        family = measure_total_family(algebra)
        if k <= 2:
            antichains = algebra.poset.maximal_antichains()
        else:
            antichains = _seeded_antichains(algebra.poset, SEEDED_SAMPLES, seed=k)
        for n in (0, 1, 2):
            bound = 1 - Fraction(1, 2 ** n)
            for antichain in antichains:
                member = extract_measure_endowment(algebra, n, antichain)
                total = sum((algebra.measure(c) for c in member), Fraction(0))
                assert isinstance(total, Fraction)
                assert total > bound, (k, n, sorted(antichain))
            extractions = extract_each(algebra.poset, family, n, antichains)
            report = verify_weak_endowment(algebra.poset, strat, family, n, extractions)
            assert report.ok, (k, n, report.violations[:1])
            checked += report.checked
    print(f"PASS criterion 2: measure extraction exceeds every level bound exactly "
          f"({checked} antichain checks)")


def _oracle_pool():
    pool = [
        CohenPoset([0]).poset,
        CohenPoset([0, 1]).poset,
        MeasurePoset(1).poset,
        MeasurePoset(2).poset,
    ]
    rng = random.Random(97)
    for _ in range(3):
        size = rng.randint(3, 8)
        elements = [f"e{i}" for i in range(size)]
        leq = [
            (elements[j], elements[i])
            for j in range(size)
            for i in range(j)
            if rng.random() < 0.35
        ]
        pool.append(Poset.from_pairs(elements, leq))
    return pool


def test_criterion_3_forcing_oracles_agree():
    pool = _oracle_pool()
    rng = random.Random(31)
    agreements = 0
    for _ in range(1000):
        poset = pool[rng.randrange(len(pool))]
        pairs = tuple(
            (poset.elements[rng.randrange(len(poset))],
             frozenset(x for x in "xyz" if rng.random() < 0.5))
            for _ in range(rng.randint(0, 5))
        )
        name = Name(pairs)
        p = poset.elements[rng.randrange(len(poset))]
        lower = frozenset(x for x in "xyz" if rng.random() < 0.4)
        direct = forces(poset, p, ExistsSupersetInCover(name, lower))
        dense = forces_dense(poset, p, name, lower)
        assert direct == dense, (p, sorted(lower), name.pairs)
        agreements += 1
    print(f"PASS criterion 3: atom and density forcing oracles agree on "
          f"{agreements}/1000 seeded quadruples")


def test_criterion_4_approximation_replays():
    positives = 0
    for seed in range(200):
        scenario = generate_scenario(seed)
        bundle = build_bundle(scenario.poset)
        space = FiniteSpace(scenario.points, scenario.base)
        for n, raw in enumerate(scenario.names):
            name = make_cover_name(bundle.poset, space, raw.pairs)
            point_names = derive_point_names(bundle.poset, space, name)
            approx = approximate(bundle.poset, point_names, n, bundle.family)
            cert = check_approximation(bundle.poset, bundle.strat, name, approx)
            assert cert.positive, (seed, n, cert.counterexample)
            positives += 1
    print(f"PASS criterion 4: {positives} positive approximation certificates "
          f"across 200 seeded scenarios")


def test_criterion_5_refinement_replays():
    rng = random.Random(52)
    done = 0
    seed = 1000
    while done < 200:
        scenario = generate_scenario(seed)
        seed += 1
        bundle = build_bundle(scenario.poset)
        space = FiniteSpace(scenario.points, scenario.base)
        n = rng.randrange(len(scenario.names))
        name = make_cover_name(bundle.poset, space, scenario.names[n].pairs)
        point_names = derive_point_names(bundle.poset, space, name)
        approx = approximate(bundle.poset, point_names, n, bundle.family)
        ground = []
        for piece in approx.cover:
            if rng.random() < 0.7:
                ground.append(piece)
            else:
                inside = [o for o in space.opens if o and o <= piece]
                ground.append(inside[rng.randrange(len(inside))])
        refined, cert = refine_name(bundle.poset, bundle.strat, n, name, ground, space)
        assert cert.refines_everywhere, (seed - 1, n, cert.refine_counterexample)
        assert cert.positive, (seed - 1, n, cert.counterexample)
        assert refined.pairs
        done += 1
    print(f"PASS criterion 5: {done} refinement certificates positive on both clauses")


def test_criterion_6_preservation_replays_across_properties():
    start = time.monotonic()
    runs = 0
    for mode in MODES:
        for seed in range(200):
            scenario = generate_scenario(seed, mode)
            cert = run_preservation(scenario)
            assert cert.selection_checked, (mode, seed)
            assert cert.verdict == "positive", (mode, seed)
            runs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"budget exceeded: {elapsed:.1f}s"
    print(f"PASS criterion 6: {runs} preservation runs positive across "
          f"{len(MODES)} properties in {elapsed:.1f}s")


def test_criterion_7_fixture_certificates_match_goldens():
    expectations = {
        "cohen-pair": (fixture_cohen_pair, 2),
        "measure-pair": (fixture_measure_pair, 1),
    }
    for label, (fixture, floor) in expectations.items():
        golden = (GOLDEN / f"{label}.cert.json").read_text()
        first = canonical_json(run_preservation(fixture()).to_jsonable()) + "\n"
        second = canonical_json(run_preservation(fixture()).to_jsonable()) + "\n"
        assert first == golden, f"{label} differs from the checked-in certificate"
        assert second == first, f"{label} not deterministic across runs"
        data = json.loads(golden)
        assert data["floor"] == floor
        assert data["verdict"] == "positive"
        assert data["selection"]["solution"] == [["x"], ["x"], ["x", "y"]]
    print("PASS criterion 7: both fixture certificates byte-identical to goldens "
          "and across runs")


def test_criterion_8_negative_controls():
    # (a) the adversarial family violates the compatibility clause with the
    # documented witness on the four-atom antichain
    cohen = CohenPoset([0, 1])
    family = adversarial_singleton_family(cohen.poset)
    extractions = extract_each(cohen.poset, family, 1, [frozenset(cohen.poset.atoms)])
    report = verify_weak_endowment(cohen.poset, cohen.stratification(), family, 1, extractions)
    assert not report.ok
    assert any(v.clause == "3'" and v.witness == "0:1" for v in report.violations)

    # (b) a tampered approximation is rejected at the exact condition
    recipe, space_payload, raw = fixture_discrete_triple()
    bundle = build_bundle(recipe)
    space = FiniteSpace(space_payload["points"], space_payload["base"])
    name = make_cover_name(bundle.poset, space, raw.pairs)
    point_names = derive_point_names(bundle.poset, space, name)
    approx = approximate(bundle.poset, point_names, 1, bundle.family)
    tampered = Approximation(
        approx.level, approx.entries, approx.cover + (frozenset({"y", "z"}),))
    cert = check_approximation(bundle.poset, bundle.strat, name, tampered)
    assert not cert.positive
    assert cert.counterexample == (("y", "z"), "")

    # (c) a tampered certificate fails replay on the edited section
    data = json.loads(canonical_json(run_preservation(fixture_cohen_pair()).to_jsonable()))
    data["verdict"] = "negative"
    replay = replay_certificate(canonical_json(data) + "\n")
    assert not replay.ok
    assert replay.mismatches == ("verdict",)

    # (d) a name sequence no longer than the floor is a scenario error
    with pytest.raises(ScenarioError):
        run_preservation(fixture_cohen_pair(levels=2))

    print("PASS criterion 8: adversarial family, tampered approximation, tampered "
          "certificate, and short scenario all rejected")


def fixture_discrete_triple() -> tuple[dict, dict, Name]:
    """Three point discrete space with a name forced everywhere.

    Used by tamper tests: every singleton is committed at the top, so any
    candidate piece not contained in a singleton is genuinely undominated.
    """
    recipe = {"kind": "cohen", "indices": [0]}
    space_payload = {"points": ["x", "y", "z"], "base": [["x"], ["y"], ["z"]]}
    name = Name((("", frozenset({"x"})), ("", frozenset({"y"})), ("", frozenset({"z"}))))
    return recipe, space_payload, name


def test_discrete_triple_fixture_shape():
    recipe, space_payload, name = fixture_discrete_triple()
    assert recipe["kind"] == "cohen"
    assert validate_instance(wrap_instance("space", space_payload)) == "space"
    assert len(name.pairs) == 3
    assert {u for _, u in name.pairs} == {
        frozenset({"x"}), frozenset({"y"}), frozenset({"z"})}
