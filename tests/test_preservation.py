"""End to end runs: fixtures, determinism, replay, scenario errors, and the
seeded generator."""

import json
from pathlib import Path

import pytest

import endowlab.names as names
import endowlab.preservation as preservation
from endowlab.bounds import Limits, limits_from_env
from endowlab.canon import canonical_json
from endowlab.cli import main
from endowlab.errors import DataError, ResourceError, ScenarioError
from endowlab.instances import fixture_cohen_pair, fixture_measure_pair
from endowlab.poset import Name
from endowlab.preservation import (
    Scenario,
    MAX_SHARED,
    build_bundle,
    generate_scenario,
    replay_certificate,
    run_preservation,
)
from endowlab.selection import MODES


def test_cohen_pair_fixture_run():
    cert = run_preservation(fixture_cohen_pair())
    assert cert.verdict == "positive"
    assert cert.floor == 2
    assert cert.family_label == "staged-hitting"
    assert cert.selection == (frozenset({"x"}), frozenset({"x"}), frozenset({"x", "y"}))
    # every approximation level yields the same two piece cover
    for approx in cert.approximations:
        assert approx.cover == (frozenset({"x"}), frozenset({"x", "y"}))
    # 4 atoms, 2 points
    assert len(cert.pipeline.atom_table) == 8
    for row in cert.pipeline.atom_table:
        assert row.level == 2
        assert row.point in row.covering


def test_measure_pair_fixture_run():
    cert = run_preservation(fixture_measure_pair())
    assert cert.verdict == "positive"
    assert cert.floor == 1
    assert cert.family_label == "measure-total"
    assert len(cert.pipeline.atom_table) == 4  # 2 atoms, 2 points
    levels = {row.level for row in cert.pipeline.atom_table}
    assert levels <= {1, 2}


def test_modes_all_positive_on_fixtures():
    for mode in MODES:
        for fixture in (fixture_cohen_pair(mode=mode), fixture_measure_pair(mode=mode)):
            cert = run_preservation(fixture)
            assert cert.verdict == "positive", (fixture.poset["kind"], mode)


def test_certificates_are_byte_identical_across_runs():
    a = canonical_json(json.loads(run_preservation(fixture_cohen_pair()).to_text()))
    b = canonical_json(json.loads(run_preservation(fixture_cohen_pair()).to_text()))
    assert a == b


def test_replay_accepts_fresh_and_flags_tampered():
    text = run_preservation(fixture_cohen_pair()).to_text()
    assert replay_certificate(text + "\n").ok
    tampered = json.loads(text)
    tampered["atom_table"][0]["set"] = ["x", "y"] \
        if tampered["atom_table"][0]["set"] == ["x"] else ["x"]
    report = replay_certificate(canonical_json(tampered))
    assert not report.ok
    assert "atom_table" in report.mismatches


def test_replay_rejects_malformed_certificates():
    with pytest.raises(DataError):
        replay_certificate('{"kind":"nope"}')
    cert = json.loads(run_preservation(fixture_cohen_pair()).to_text())
    # true and 1.0 compare equal to 1 in Python but are not the integer 1
    for version in (99, True, 1.0):
        cert["format_version"] = version
        with pytest.raises(DataError, match=f"unsupported certificate format version {version!r}$"):
            replay_certificate(canonical_json(cert))


def test_scenario_error_when_floor_leaves_no_level():
    short = fixture_cohen_pair(levels=2)  # floor is 2
    with pytest.raises(ScenarioError):
        run_preservation(short)


def test_scenario_error_when_selection_unsolvable():
    # floor 1, two levels, but three isolated points and singleton picks:
    # one usable pick per level cannot cover three points (rothberger)
    payload = {
        "poset": {"kind": "measure", "k": 1},
        "space": {"points": ["x", "y", "z"], "base": [["x"], ["y"], ["z"]]},
        "names": [
            [
                {"condition": "0,1", "set": ["x"]},
                {"condition": "0,1", "set": ["y"]},
                {"condition": "0,1", "set": ["z"]},
            ]
        ] * 2,
        "property": "rothberger",
    }
    with pytest.raises(ScenarioError) as raised:
        run_preservation(Scenario.from_jsonable(payload))
    assert str(raised.value) == (
        "selection problem has no solution at or above the floor: property rothberger, "
        "floor 1, usable levels [1], points ['x', 'y', 'z']")


def test_invalid_cover_name_is_data_error():
    payload = fixture_cohen_pair().to_jsonable()
    payload["names"][0] = [{"condition": "0:0", "set": ["x", "y"]}]  # not dense below 0:1
    with pytest.raises(DataError):
        run_preservation(Scenario.from_jsonable(payload))


@pytest.mark.parametrize("golden", sorted((Path(__file__).parent / "golden").glob("*.cert.json")),
                         ids=lambda path: path.name)
def test_run_builds_only_the_refined_names(golden, monkeypatch):
    # the scenario's names were normalised where they entered, in
    # `Scenario.from_jsonable`, so a run normalises no name, and the only
    # names it builds are the refined ones, one per level
    scenario = Scenario.from_jsonable(json.loads(golden.read_text())["scenario"])
    built = []
    new = Name.__new__

    def record(cls, pairs):
        built.append(new(cls, pairs))
        return built[-1]

    def refuse(pairs):
        raise AssertionError("a run normalised a name")

    monkeypatch.setattr(Name, "__new__", record)
    monkeypatch.setattr(Name, "canonical", refuse)
    cert = run_preservation(scenario)
    assert len(built) == len(scenario.names)
    assert all(a is b for a, b in zip(built, cert.pipeline.refined))


def assert_names_canonical(cert) -> None:
    """Every name the certificate writes, the scenario's and the refined
    ones, is canonical: `Name` takes its pairs as given, so this checks the
    names that entered and the names the pipeline built."""
    for name in cert.scenario.names + cert.pipeline.refined:
        assert name.pairs == Name.canonical(name.pairs).pairs, name
        assert all(type(u) is frozenset for _, u in name.pairs), name


@pytest.mark.parametrize("golden", sorted((Path(__file__).parent / "golden").glob("*.cert.json")),
                         ids=lambda path: path.name)
def test_golden_certificates_write_canonical_names(golden):
    assert_names_canonical(run_preservation(
        Scenario.from_jsonable(json.loads(golden.read_text())["scenario"])))


@pytest.mark.parametrize("mode", MODES)
def test_generated_certificates_write_canonical_names(mode):
    for seed in range(60):
        assert_names_canonical(run_preservation(generate_scenario(seed, mode)))


def test_scenario_roundtrip():
    s = fixture_cohen_pair()
    assert Scenario.from_jsonable(s.to_jsonable()) == s


def test_scenario_names_are_normalised_where_they_enter():
    # each name's pairs reversed, with its first pair repeated
    payload = fixture_cohen_pair().to_jsonable()
    payload["names"] = [entry[::-1] + entry[:1] for entry in payload["names"]]
    assert Scenario.from_jsonable(payload) == fixture_cohen_pair()


def test_explicit_poset_scenario():
    payload = {
        "poset": {"kind": "explicit", "elements": ["t", "a", "b"],
                  "leq": [["a", "t"], ["b", "t"]]},
        "space": {"points": ["x", "y"], "base": [["x"], ["x", "y"]]},
        "names": [
            [
                {"condition": "a", "set": ["x"]},
                {"condition": "a", "set": ["x", "y"]},
                {"condition": "b", "set": ["x", "y"]},
            ]
        ] * 2,
        "property": "rothberger",
    }
    cert = run_preservation(Scenario.from_jsonable(payload))
    assert cert.floor == 0
    assert cert.family_label == "maximal-antichain"
    assert cert.verdict == "positive"
    assert replay_certificate(cert.to_text() + "\n").ok


def test_build_bundle_validates():
    with pytest.raises(DataError):
        build_bundle({"kind": "mystery"})
    big = {"kind": "explicit", "elements": [f"e{i}" for i in range(41)], "leq": []}
    with pytest.raises(ResourceError):
        build_bundle(big)


# -- shared bundles -------------------------------------------------------------


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty cache of bundles for the test's duration."""
    monkeypatch.setattr(preservation, "_SHARED", {})
    return preservation._SHARED


EXPLICIT = {"kind": "explicit", "elements": ["t", "a", "b"], "leq": [["a", "t"], ["b", "t"]]}


@pytest.mark.parametrize("recipe", [{"kind": "cohen", "indices": [0, 1, 2]}, {"kind": "measure", "k": 2},
                                    EXPLICIT])
def test_equal_recipes_and_limits_share_one_structure(recipe):
    first = build_bundle(json.loads(json.dumps(recipe)))
    again = build_bundle(dict(recipe))
    assert again is first
    # limits parsed from equal bounds JSON are equal keys
    a = limits_from_env({"ENDOWLAB_BOUNDS": '{"max_k": 3, "max_indices": 4}'})
    b = limits_from_env({"ENDOWLAB_BOUNDS": '{ "max_indices":4,"max_k":3 }'})
    assert a is not b
    assert build_bundle(dict(recipe), a) is build_bundle(dict(recipe), b)
    assert build_bundle(dict(recipe), a).poset is not first.poset


def test_only_a_built_in_bundle_has_a_structure():
    assert build_bundle(EXPLICIT).structure is None
    cohen = build_bundle({"kind": "cohen", "indices": [0]})
    assert cohen.structure.poset is cohen.poset and cohen.structure.indices == (0,)
    measure = build_bundle({"kind": "measure", "k": 1})
    assert measure.structure.poset is measure.poset and measure.structure.k == 1


def test_a_build_that_raises_stores_nothing(fresh_cache):
    for _ in range(2):
        with pytest.raises(ResourceError):
            build_bundle({"kind": "cohen", "indices": [0, 1]}, Limits(max_indices=1))
        with pytest.raises(DataError):
            build_bundle({"kind": "measure", "k": -1})
    assert fresh_cache == {}


@pytest.mark.parametrize("recipe,error,message", [
    ({"kind": "explicit", "elements": [f"e{i}" for i in range(41)], "leq": []},
     ResourceError, "explicit posets capped at 40 conditions, got 41"),
    ({"kind": "explicit", "elements": ["a", "b"], "leq": [["a", "c"]]},
     DataError, "order pair mentions unknown condition"),
    ({"kind": "explicit", "elements": ["a", "b"], "leq": [["a", "b"], ["b", "a"]]},
     DataError, "order is not antisymmetric"),
])
def test_an_explicit_build_that_raises_stores_nothing(recipe, error, message, fresh_cache):
    for _ in range(2):
        with pytest.raises(error, match=message):
            build_bundle(recipe)
    assert fresh_cache == {}


@pytest.mark.parametrize("order", [([1], [True]), ([True], [1])])
def test_true_never_aliases_one(order, fresh_cache):
    for indices in order + order:
        recipe = {"kind": "cohen", "indices": indices}
        if indices[0] is True:  # [True] == [1] as Python values
            with pytest.raises(DataError, match="indices must be integers"):
                build_bundle(recipe)
        else:
            assert build_bundle(recipe).poset.elements == ("", "1:0", "1:1")
    assert list(fresh_cache) == [('{"indices":[1],"kind":"cohen"}', Limits())]


def test_the_cache_keeps_at_most_its_bound(fresh_cache):
    recipes = [{"kind": "cohen", "indices": [i]} for i in range(MAX_SHARED + 1)]
    first = build_bundle(recipes[0]).poset
    for recipe in recipes[1:]:
        build_bundle(recipe)
    assert len(fresh_cache) == MAX_SHARED
    # the oldest entry made way, so it is built again
    assert build_bundle(recipes[0]).poset is not first


def test_a_hit_entry_outlives_a_newer_one(fresh_cache):
    recipes = [{"kind": "cohen", "indices": [i]} for i in range(MAX_SHARED + 1)]
    bundles = [build_bundle(recipe) for recipe in recipes[:MAX_SHARED]]
    assert build_bundle(recipes[0]) is bundles[0]  # the hit moves the oldest entry to the end
    build_bundle(recipes[MAX_SHARED])
    assert len(fresh_cache) == MAX_SHARED
    assert build_bundle(recipes[0]) is bundles[0]
    # the entry built second was the oldest unused one, so it made way
    assert build_bundle(recipes[1]) is not bundles[1]


def test_every_bundle_key_is_recipe_text_and_limits(fresh_cache, capsys):
    # records compare equal to any tuple with equal fields, so the one
    # record used as a key, `Limits`, sits beside the recipe's text, which
    # no record equals (see "Records as keys" in the README)
    seen = set()

    def check_keys():
        for key in fresh_cache:
            assert type(key) is tuple and len(key) == 2, key
            text, limits = key
            assert type(text) is str and type(limits) is Limits, key
            seen.add((json.loads(text)["kind"], limits))

    wider = Limits(max_levels=9)
    for seed in range(12):
        for limits in (Limits(), wider):
            scenario = generate_scenario(seed, limits=limits)
            assert replay_certificate(run_preservation(scenario, limits).to_text() + "\n", limits).ok
            check_keys()
    for argv in (["endow-verify", "cohen:D=2", "--n", "1"], ["dow", "cohen:D=1", "--member", "0:0",
                 "--member", "0:1", "--n", "1"], ["endow-verify", "measure:k=1", "--n", "1"]):
        assert main(argv) == 0
        check_keys()
    capsys.readouterr()
    assert {kind for kind, _ in seen} == {"cohen", "measure", "explicit"}
    assert {limits for _, limits in seen} == {Limits(), wider}


# -- generator ----------------------------------------------------------------


def test_generator_is_deterministic():
    a = generate_scenario(7)
    b = generate_scenario(7)
    assert a == b
    assert canonical_json(a.to_jsonable()) == canonical_json(b.to_jsonable())


def test_generator_respects_mode_argument():
    for mode in MODES:
        assert generate_scenario(3, mode).mode == mode


def test_generator_headroom_guarantee():
    for seed in range(30):
        s = generate_scenario(seed)
        bundle = build_bundle(s.poset)
        floor = bundle.strat.stabilization_index
        assert len(s.names) >= floor + len(s.points)


def test_generated_scenarios_run_positive():
    for seed in range(12):
        s = generate_scenario(seed, MODES[seed % 3])
        cert = run_preservation(s)
        assert cert.verdict == "positive", (seed, s.mode)
        # the file as written, and the same certificate without its newline
        text = cert.to_text()
        assert replay_certificate(text + "\n").ok and replay_certificate(text).ok


def test_generator_bound_validation():
    big = Limits(max_points=12)
    with pytest.raises(ResourceError):
        generate_scenario(0, bounds=big)
    # but fine when the resource limits are raised to match
    s = generate_scenario(0, bounds=big, limits=big)
    assert s is not None


@pytest.mark.parametrize("bounds", [{"max_base": 3}, {"max_points": 2, "max_base": 2}],
                         ids=["base-3", "points-2-base-2"])
def test_generator_caps_the_subbase(bounds):
    # the base is drawn before the cap is applied, with the same draws for
    # any cap, so the same seed under the default cap shows the drawn size
    capped, uncapped = Limits(**bounds), Limits(**{**bounds, "max_base": Limits().max_base})
    over = 0
    for seed in range(100):
        for mode in MODES:
            s = generate_scenario(seed, mode, bounds=capped)
            assert len(s.base) <= capped.max_base, (seed, mode)
            assert frozenset().union(*s.base) == frozenset(s.points), (seed, mode)
            assert run_preservation(s).verdict == "positive", (seed, mode)
            over += len(generate_scenario(seed, mode, bounds=uncapped).base) > capped.max_base
    assert over  # the cap branch ran


def test_an_unknown_mode_is_rejected_by_the_selection_problem():
    # a scenario file's mode passes SCENARIO_SHAPE and `--property` passes
    # argparse; in process, `make_selection_problem` is the one mode check
    scenario = fixture_cohen_pair()._replace(mode="banach-mazur")
    with pytest.raises(DataError, match="unknown mode 'banach-mazur'"):
        run_preservation(scenario)


def test_names_are_checked_before_point_names_are_derived(monkeypatch):
    # `approximate` derives each point's antichain and trusts its name, so
    # an unknown condition at the last level must be caught before the
    # first level is approximated
    def refuse(*args):
        raise AssertionError("point names derived from an unchecked name")

    monkeypatch.setattr(preservation, "approximate", refuse)
    scenario = fixture_cohen_pair()
    bad = Name((("9:9", frozenset({"x"})),))
    scenario = scenario._replace(names=scenario.names[:-1] + (bad,))
    with pytest.raises(DataError, match="unknown condition: '9:9'"):
        run_preservation(scenario)


def test_each_level_tables_value_masks_once(monkeypatch):
    # each level builds one witness table, whose one pass over the cover
    # name's pairs tables its value masks and reaches together; every other
    # step of the level reads the table, so apart from `check_cover_name`
    # no step walks the name's pairs again, and the refined name's masks
    # come from its selector grid, with no `value_masks` call
    tabled, walked, checking = [], [], []
    real_init, real_check, field = names.WitnessTable.__init__, preservation.check_cover_name, Name.pairs

    def counted_init(self, poset, strat, n, name):
        tabled.append(name)
        real_init(self, poset, strat, n, name)

    def counted_check(poset, space, name):
        checking.append(name)
        real_check(poset, space, name)
        checking.pop()

    def pairs(name):
        if not checking:
            walked.append(name)
        return field.__get__(name)

    def refuse(*args):
        raise AssertionError("a name tabled outside its witness table")

    monkeypatch.setattr(names.WitnessTable, "__init__", counted_init)
    monkeypatch.setattr(preservation, "check_cover_name", counted_check)
    monkeypatch.setattr(Name, "pairs", property(pairs))
    monkeypatch.setattr(names, "value_masks", refuse, raising=False)
    for scenario in (fixture_cohen_pair(), fixture_measure_pair(),
                     generate_scenario(8, "selective-screenability")):
        tabled.clear()
        walked.clear()
        cert = run_preservation(scenario)
        assert tabled == [*scenario.names]
        assert [name for name in walked if any(name is given for given in scenario.names)] == tabled
        assert cert.verdict == "positive"


# -- metamorphic relations ---------------------------------------------------------


def metamorphic_inputs() -> list[Scenario]:
    goldens = sorted((Path(__file__).parent / "golden").glob("*.cert.json"))
    scenarios = [Scenario.from_jsonable(json.loads(g.read_text())["scenario"]) for g in goldens]
    return scenarios + [generate_scenario(seed) for seed in range(60)]


def certificate_shape(scenario: Scenario) -> tuple:
    """The verdict, the floor and the length of every list section."""
    data = json.loads(run_preservation(scenario).to_text())
    return data["verdict"], data["floor"], {k: len(v) for k, v in data.items() if isinstance(v, list)}


def renamed(scenario: Scenario) -> Scenario:
    """The scenario with its points renamed so that their order reverses,
    and its base and each name's pairs listed in reverse."""
    points = sorted(scenario.points)
    new = dict(zip(points, [f"p{i}" for i in reversed(range(len(points)))]))

    def rename(u):
        return frozenset(new[x] for x in u)

    return Scenario(
        scenario.poset,
        tuple(sorted(new.values())),
        tuple(rename(b) for b in reversed(scenario.base)),
        tuple(Name.canonical((q, rename(u)) for q, u in reversed(name.pairs)) for name in scenario.names),
        scenario.mode,
    )


def explicit_copy(scenario: Scenario) -> Scenario:
    """The scenario over an explicit poset with the same conditions and order."""
    poset = build_bundle(scenario.poset).poset
    leq = [[a, b] for b in poset.elements for a in sorted(poset.down(b), key=poset.sort_key) if a != b]
    recipe = {"kind": "explicit", "elements": list(poset.elements), "leq": leq}
    return scenario._replace(poset=recipe)


def test_renaming_points_and_reordering_entries_keeps_the_certificate_shape():
    for scenario in metamorphic_inputs():
        assert certificate_shape(renamed(scenario)) == certificate_shape(scenario), scenario


def test_an_explicit_copy_of_a_built_in_poset_keeps_the_verdict():
    verdicts = []
    for scenario in metamorphic_inputs():
        if scenario.poset["kind"] != "explicit":
            verdicts.append(run_preservation(scenario).verdict)
            assert run_preservation(explicit_copy(scenario)).verdict == verdicts[-1], scenario
    assert len(verdicts) == 52 and "positive" in verdicts
