"""Instance file shapes, round trips, and the built-in fixtures."""

import json

import pytest

from endowlab.errors import DataError
from endowlab.instances import (
    FORMAT_VERSION,
    cohen_pair_name_payload,
    fixture_cohen_pair,
    fixture_measure_pair,
    load_instance,
    measure_pair_name_payload,
    pair_space_payload,
    save_instance,
    validate_instance,
    wrap_instance,
)
from endowlab.canon import check_shape
from endowlab.poset import NAME_SHAPE, Name
from endowlab.preservation import Scenario, run_preservation


def test_wrap_and_validate_roundtrip():
    data = wrap_instance("space", pair_space_payload())
    assert data["format_version"] == FORMAT_VERSION
    assert validate_instance(data) == "space"
    assert validate_instance(data, "space") == "space"


def test_wrap_rejects_unknown_kind():
    with pytest.raises(DataError):
        wrap_instance("widget", {})


def test_validate_rejects_kind_mismatch():
    data = wrap_instance("space", pair_space_payload())
    with pytest.raises(DataError):
        validate_instance(data, "name")


def test_validate_rejects_bad_shapes():
    bad = [
        "not an object",
        {"format_version": FORMAT_VERSION},
        {"format_version": 2, "kind": "space", "payload": pair_space_payload()},
        {"format_version": FORMAT_VERSION, "kind": "space", "payload": {"points": ["x"]}},
        {"format_version": FORMAT_VERSION, "kind": "space",
         "payload": {"points": ["x"], "base": [["x"]], "extra": 1}},
        {"format_version": FORMAT_VERSION, "kind": "name",
         "payload": [{"condition": 3, "set": ["x"]}]},
        {"format_version": FORMAT_VERSION, "kind": "poset",
         "payload": {"elements": ["a"], "leq": [["a"]]}},
        {"format_version": FORMAT_VERSION, "kind": "scenario",
         "payload": {"poset": {"kind": "cohen", "indices": [0]},
                     "space": pair_space_payload(),
                     "names": [],
                     "property": "compactness"}},
    ]
    for data in bad:
        with pytest.raises(DataError):
            validate_instance(data)


# A list of flat objects is checked one field at a time over all its items;
# a fault sends it back to the item by item check, whose messages these are.
FLAT_ITEM_FAULTS = {
    "not-an-object": (["0:0", "x"], "name[2] must be an object"),
    "missing-key": ({"condition": "0:0"}, "name[2] needs key 'set'"),
    "unknown-key": ({"condition": "0:0", "set": ["x"], "extra": 1}, "name[2] has unknown key 'extra'"),
    "wrong-leaf-type": ({"condition": 0, "set": ["x"]}, "name[2].condition must be a string"),
    "set-not-a-list": ({"condition": "0:0", "set": "x"}, "name[2].set must be a list"),
    "non-string-member": ({"condition": "0:0", "set": ["x", True]}, "name[2].set[1] must be a string"),
}


@pytest.mark.parametrize("case", FLAT_ITEM_FAULTS.values(), ids=FLAT_ITEM_FAULTS.keys())
def test_flat_object_list_faults_name_the_item(case):
    bad, message = case
    good = {"condition": "0:1", "set": ["x", "y"]}
    with pytest.raises(DataError) as info:
        check_shape([good, good, bad, good], NAME_SHAPE, "name")
    assert str(info.value) == message
    # a later fault waits for the first
    with pytest.raises(DataError) as info:
        check_shape([good, good, bad, {}], NAME_SHAPE, "name")
    assert str(info.value) == message


def test_flat_object_list_checks_integer_fields():
    shape = [{"n": int, "ks": [int]}]
    check_shape([{"n": 1, "ks": []}, {"n": 2, "ks": [3, 4]}], shape, "rows")
    for bad, message in (({"n": True, "ks": []}, "rows[1].n must be an integer"),
                         ({"n": 2, "ks": [3, "4"]}, "rows[1].ks[1] must be an integer")):
        with pytest.raises(DataError) as info:
            check_shape([{"n": 1, "ks": []}, bad], shape, "rows")
        assert str(info.value) == message


def test_scenario_payload_validates():
    payload = fixture_cohen_pair().to_jsonable()
    assert validate_instance(wrap_instance("scenario", payload)) == "scenario"


def test_save_and_load(tmp_path):
    path = tmp_path / "space.json"
    save_instance(path, "space", pair_space_payload())
    assert load_instance(path) == pair_space_payload()
    assert load_instance(path, "space") == pair_space_payload()
    with pytest.raises(DataError):
        load_instance(path, "poset")


def test_load_rejects_missing_and_malformed(tmp_path):
    with pytest.raises(DataError):
        load_instance(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataError):
        load_instance(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"kind": "space"}))
    with pytest.raises(DataError):
        load_instance(wrong)


def test_name_payloads_validate():
    for payload in (cohen_pair_name_payload(), measure_pair_name_payload()):
        assert validate_instance(wrap_instance("name", payload)) == "name"
        assert Name.canonical((entry["condition"], entry["set"]) for entry in payload).pairs  # builds


def test_fixture_scenarios_run():
    assert run_preservation(fixture_cohen_pair()).verdict == "positive"
    assert run_preservation(fixture_measure_pair()).verdict == "positive"


def test_fixture_scenarios_roundtrip_through_files(tmp_path):
    for fixture in (fixture_cohen_pair(), fixture_measure_pair()):
        path = tmp_path / "scenario.json"
        save_instance(path, "scenario", fixture.to_jsonable())
        payload = load_instance(path, "scenario")
        assert Scenario.from_jsonable(payload) == fixture

