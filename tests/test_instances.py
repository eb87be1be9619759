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
from endowlab.poset import Name
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
        assert Name(tuple((entry["condition"], entry["set"]) for entry in payload)).pairs  # builds


def test_fixture_scenarios_run():
    assert run_preservation(fixture_cohen_pair()).verdict == "positive"
    assert run_preservation(fixture_measure_pair()).verdict == "positive"


def test_fixture_scenarios_roundtrip_through_files(tmp_path):
    for fixture in (fixture_cohen_pair(), fixture_measure_pair()):
        path = tmp_path / "scenario.json"
        save_instance(path, "scenario", fixture.to_jsonable())
        payload = load_instance(path, "scenario")
        assert Scenario.from_jsonable(payload) == fixture

