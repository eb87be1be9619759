"""End to end runs: fixtures, determinism, replay, scenario errors, and the
seeded generator."""

import json

import pytest

import endowlab.preservation as preservation
from endowlab.bounds import Limits, limits_from_env
from endowlab.canon import canonical_json
from endowlab.errors import DataError, ResourceError, ScenarioError
from endowlab.instances import fixture_cohen_pair, fixture_measure_pair
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
    a = canonical_json(run_preservation(fixture_cohen_pair()).to_jsonable())
    b = canonical_json(run_preservation(fixture_cohen_pair()).to_jsonable())
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
    cert = run_preservation(fixture_cohen_pair()).to_jsonable()
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
    with pytest.raises(ScenarioError):
        run_preservation(Scenario.from_jsonable(payload))


def test_invalid_cover_name_is_data_error():
    payload = fixture_cohen_pair().to_jsonable()
    payload["names"][0] = [{"condition": "0:0", "set": ["x", "y"]}]  # not dense below 0:1
    with pytest.raises(DataError):
        run_preservation(Scenario.from_jsonable(payload))


def test_scenario_roundtrip():
    s = fixture_cohen_pair()
    assert Scenario.from_jsonable(s.to_jsonable()) == s


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


def test_generator_rejects_unknown_mode():
    with pytest.raises(DataError):
        generate_scenario(0, "banach-mazur")
