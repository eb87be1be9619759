"""Command line behaviour: subcommands, exit codes, files, and bounds."""

import copy
import json
import os
import subprocess
import sys
import tempfile
from functools import cache
from pathlib import Path

import endowlab
import endowlab.cli as cli
from endowlab.canon import canonical_json
from endowlab.cli import main, parse_bounds, parse_poset_spec
from endowlab.errors import UsageError
from endowlab.instances import (
    cohen_pair_name_payload,
    fixture_cohen_pair,
    pair_space_payload,
    save_instance,
    wrap_instance,
)
from endowlab.preservation import generate_scenario, run_preservation
from endowlab.selection import MODES

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


# -- argument parsing ----------------------------------------------------------


def test_parse_poset_spec():
    assert parse_poset_spec("cohen:D=2").indices == (0, 1)
    assert parse_poset_spec("measure:k=1").k == 1
    for bad in ("cohen", "cohen:D=x", "measure:k=", "random:3"):
        with pytest.raises(UsageError):
            parse_poset_spec(bad)


def test_parse_poset_spec_from_file(tmp_path):
    path = tmp_path / "poset.json"
    save_instance(path, "poset", {"elements": ["t", "a"], "leq": [["a", "t"]]})
    spec = parse_poset_spec(f"@{path}")
    assert spec.kind == "explicit"
    assert spec.elements == ("t", "a")


def test_parse_bounds():
    assert parse_bounds("default").max_k == 3
    assert parse_bounds("large").max_k == 4
    assert parse_bounds('{"max_k": 2}').max_k == 2
    for bad in ("huge", '{"max_q": 1}', "[1]", '{"max_k": "x"}', '{"max_k": -1}'):
        with pytest.raises(UsageError):
            parse_bounds(bad)


def test_usage_errors_are_exit_64(capsys):
    assert main([]) == 64
    assert main(["frobnicate"]) == 64
    assert main(["endow-verify", "cohen:D=1"]) == 64  # missing --n
    assert main(["endow-verify", "random:1", "--n", "0"]) == 64
    assert main(["dow", "measure:k=1", "--member", "0", "--n", "0"]) == 64
    assert "usage error" in capsys.readouterr().err


# -- endow-verify ---------------------------------------------------------------


def test_endow_verify_ok(capsys):
    assert main(["endow-verify", "cohen:D=2", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "weak endowment: ok" in out
    assert "8" in out  # all eight maximal antichains, exhaustively


def test_endow_verify_full_clause(capsys):
    assert main(["endow-verify", "measure:k=1", "--n", "1", "--full"]) == 0
    assert "joint extension clause: ok" in capsys.readouterr().out


def test_endow_verify_explicit_exhaustive_flag(capsys):
    assert main(["endow-verify", "measure:k=2", "--n", "1", "--exhaustive"]) == 0
    assert "antichains checked: 15 (exhaustive)" in capsys.readouterr().out


def test_endow_verify_adversarial_family_fails(capsys):
    assert main(["endow-verify", "cohen:D=2", "--n", "1", "--family", "adversarial"]) == 3
    out = capsys.readouterr().out
    assert "VIOLATIONS" in out
    assert "clause 3'" in out


def test_endow_verify_json_output(capsys):
    assert main(["endow-verify", "cohen:D=1", "--n", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["weak"]["ok"] is True
    assert data["weak"]["antichains_checked"] == 2


def test_endow_verify_seeded_sampling(capsys):
    assert main(["endow-verify", "cohen:D=2", "--n", "1", "--seeded", "50", "--seed", "9"]) == 0
    assert "seeded:50" in capsys.readouterr().out


def test_endow_verify_parallel_jobs_match_serial(capsys):
    assert main(["endow-verify", "cohen:D=2", "--n", "1", "--jobs", "2", "--json"]) == 0
    parallel = json.loads(capsys.readouterr().out)
    assert main(["endow-verify", "cohen:D=2", "--n", "1", "--json"]) == 0
    serial = json.loads(capsys.readouterr().out)
    assert parallel["weak"]["ok"] and serial["weak"]["ok"]
    assert parallel["weak"]["antichains_checked"] == serial["weak"]["antichains_checked"]


def test_endow_verify_parallel_output_is_canonical_with_violations(capsys):
    args = ["endow-verify", "cohen:D=2", "--n", "1", "--family", "adversarial", "--json"]
    assert main(args + ["--jobs", "2"]) == 3
    parallel = capsys.readouterr().out
    assert main(args) == 3
    serial = capsys.readouterr().out
    assert parallel == serial
    assert json.loads(serial)["weak"]["violations"]


def test_bounds_env_var_is_honoured(monkeypatch, capsys):
    monkeypatch.setenv("ENDOWLAB_BOUNDS", '{"max_indices": 1}')
    assert main(["endow-verify", "cohen:D=2", "--n", "1"]) == 70
    assert "resource error" in capsys.readouterr().err
    monkeypatch.setenv("ENDOWLAB_BOUNDS", "{bad json")
    assert main(["endow-verify", "cohen:D=1", "--n", "1"]) == 65


def test_resource_error_json_carries_the_partial_report(capsys):
    argv = ["endow-verify", "cohen:D=2", "--n", "2", "--full", "--budget", "10", "--json"]
    assert main(argv) == 70
    captured = capsys.readouterr()
    assert "resource error" in captured.err
    data = json.loads(captured.out)
    assert data["error"] == "joint extension scan exceeded budget 10"
    assert data["partial"]["family"] == "staged-hitting"
    assert data["partial"]["antichains_checked"] > 0


# -- dow -------------------------------------------------------------------------


def test_dow_trace(capsys):
    rc = main(["dow", "cohen:D=2", "--member", "0:0", "--member", "0:1", "--n", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "seed: '0:0'" in out
    assert "result (2 conditions)" in out
    assert "hits every level 1 condition: yes" in out


def test_dow_rejects_non_antichain(capsys):
    rc = main(["dow", "cohen:D=1", "--member", "0:0", "--n", "1"])
    assert rc == 65  # not a maximal antichain
    assert "error" in capsys.readouterr().err


# -- approx / refine -------------------------------------------------------------


@pytest.fixture
def pair_files(tmp_path):
    space = tmp_path / "space.json"
    name = tmp_path / "name.json"
    save_instance(space, "space", pair_space_payload())
    save_instance(name, "name", cohen_pair_name_payload())
    return str(space), str(name)


def test_approx_positive(pair_files, capsys):
    space, name = pair_files
    rc = main(["approx", "--poset", "cohen:D=2", "--space", space,
               "--name", name, "--n", "1", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["certificate"]["positive"] is True
    assert data["approximation"]["cover"] == [["x"], ["x", "y"]]


def test_approx_missing_file_is_65(tmp_path, pair_files, capsys):
    _, name = pair_files
    rc = main(["approx", "--poset", "cohen:D=2", "--space",
               str(tmp_path / "absent.json"), "--name", name, "--n", "1"])
    assert rc == 65


def test_refine_positive(pair_files, tmp_path, capsys):
    space, name = pair_files
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps([["x"]]))
    rc = main(["refine", "--poset", "cohen:D=2", "--space", space,
               "--name", name, "--n", "1", "--sets", str(sets)])
    assert rc == 0
    assert "positive" in capsys.readouterr().out


def test_refine_malformed_ground_family_is_65(pair_files, tmp_path, capsys):
    space, name = pair_files
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps([["x", 1]]))
    rc = main(["refine", "--poset", "cohen:D=2", "--space", space,
               "--name", name, "--n", "1", "--sets", str(sets)])
    assert rc == 65
    assert "ground family[0][1] must be a string" in capsys.readouterr().err


def test_refine_undominated_set_is_3(tmp_path, capsys):
    space = tmp_path / "space.json"
    name = tmp_path / "name.json"
    sets = tmp_path / "sets.json"
    save_instance(space, "space", {"points": ["x", "y", "z"],
                                   "base": [["x"], ["y"], ["z"]]})
    save_instance(name, "name", [
        {"condition": "", "set": ["x"]},
        {"condition": "", "set": ["y"]},
        {"condition": "", "set": ["z"]},
    ])
    sets.write_text(json.dumps([["y", "z"]]))
    rc = main(["refine", "--poset", "cohen:D=1", "--space", str(space),
               "--name", str(name), "--n", "1", "--sets", str(sets)])
    assert rc == 3
    assert "NEGATIVE" in capsys.readouterr().out


# -- preserve / verify / gen / selftest -------------------------------------------


def test_preserve_verify_roundtrip(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    cert = tmp_path / "cert.json"
    save_instance(scenario, "scenario", fixture_cohen_pair().to_jsonable())
    assert main(["preserve", "--scenario", str(scenario), "--cert", str(cert)]) == 0
    out = capsys.readouterr().out
    assert "verdict: positive" in out
    assert main(["verify", "--cert", str(cert)]) == 0
    assert "replay: ok" in capsys.readouterr().out


def test_preserve_property_override(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    cert = tmp_path / "cert.json"
    save_instance(scenario, "scenario", fixture_cohen_pair().to_jsonable())
    rc = main(["preserve", "--scenario", str(scenario), "--cert", str(cert),
               "--property", "menger"])
    assert rc == 0
    assert json.loads(cert.read_text())["scenario"]["property"] == "menger"


def test_preserve_short_name_sequence_is_2(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    save_instance(scenario, "scenario", fixture_cohen_pair(levels=2).to_jsonable())
    rc = main(["preserve", "--scenario", str(scenario), "--cert",
               str(tmp_path / "cert.json")])
    assert rc == 2
    assert "scenario error" in capsys.readouterr().err


def test_verify_tampered_certificate_is_3(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    cert = tmp_path / "cert.json"
    save_instance(scenario, "scenario", fixture_cohen_pair().to_jsonable())
    assert main(["preserve", "--scenario", str(scenario), "--cert", str(cert)]) == 0
    data = json.loads(cert.read_text())
    data["verdict"] = "negative"
    cert.write_text(canonical_json(data))
    capsys.readouterr()
    assert main(["verify", "--cert", str(cert)]) == 3
    assert "MISMATCH" in capsys.readouterr().out


def test_verify_missing_cert_is_65(tmp_path):
    assert main(["verify", "--cert", str(tmp_path / "nope.json")]) == 65
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    for cert in (binary, deep):
        assert main(["verify", "--cert", str(cert)]) == 65


@cache
def _pair_certificate() -> dict:
    return run_preservation(fixture_cohen_pair()).to_jsonable()


SCENARIO_MUTATIONS = {
    "names-not-list": lambda s: s.update(names=5),
    "set-is-string": lambda s: s["names"][0][0].update(set="x"),
    "points-not-list": lambda s: s["space"].update(points=7),
    "index-not-int": lambda s: s["poset"].update(indices=[0, "a"]),
    "indices-not-list": lambda s: s["poset"].update(indices=3),
    "extra-key": lambda s: s.update(extra=1),
    "leq-triple": lambda s: s.update(poset={
        "kind": "explicit", "elements": ["a", "b", "c"], "leq": [["a", "b", "c"]]}),
}


@pytest.mark.parametrize("mutate", SCENARIO_MUTATIONS.values(), ids=SCENARIO_MUTATIONS.keys())
def test_verify_malformed_embedded_scenario_is_65(mutate, tmp_path, capsys):
    data = copy.deepcopy(_pair_certificate())
    mutate(data["scenario"])
    cert = tmp_path / "cert.json"
    cert.write_text(canonical_json(data))
    assert main(["verify", "--cert", str(cert)]) == 65
    assert "error: scenario" in capsys.readouterr().err


def _paths(node, path=()):
    """Every position in a JSON document, the root included."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.text("xy01:,", max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("kx", max_size=2), inner, max_size=2),
    max_leaves=6,
)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fuzzed_scenario_or_certificate_exits_with_a_documented_code(data):
    command = data.draw(st.sampled_from(["preserve", "verify"]))
    if command == "preserve":
        doc = wrap_instance("scenario", fixture_cohen_pair().to_jsonable())
    else:
        doc = _pair_certificate()
    path = data.draw(st.sampled_from(list(_paths(doc))))
    doc = _replaced(doc, path, data.draw(JSON_VALUES))
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "in.json"
        source.write_text(json.dumps(doc))
        if command == "preserve":
            argv = ["preserve", "--scenario", str(source), "--cert", str(Path(tmp) / "cert.json")]
        else:
            argv = ["verify", "--cert", str(source)]
        assert main(argv) in {0, 2, 3, 64, 65, 70}


def test_gen_writes_valid_deterministic_scenarios(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["gen", "--seed", "11", "--out", str(a)]) == 0
    assert main(["gen", "--seed", "11", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
    cert = tmp_path / "cert.json"
    capsys.readouterr()
    assert main(["preserve", "--scenario", str(a), "--cert", str(cert)]) == 0
    assert "verdict: positive" in capsys.readouterr().out


def test_gen_to_stdout(capsys):
    assert main(["gen", "--seed", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "scenario"


@pytest.mark.parametrize("bounds", [{"max_points": 1}, {"max_base": 1}])
def test_gen_rejects_bounds_it_cannot_honour(bounds, capsys):
    assert main(["gen", "--seed", "0", "--bounds", json.dumps(bounds)]) == 65
    assert next(iter(bounds)) in capsys.readouterr().err


def test_gen_large_bounds_exceed_default_limits(capsys):
    assert main(["gen", "--seed", "0", "--bounds", "large"]) == 70
    assert "resource error" in capsys.readouterr().err


def test_gen_large_bounds_with_matching_env(monkeypatch, capsys):
    monkeypatch.setenv(
        "ENDOWLAB_BOUNDS",
        json.dumps({"max_indices": 6, "max_k": 4, "max_points": 12,
                    "max_base": 24, "max_poset": 200, "max_levels": 16}))
    assert main(["gen", "--seed", "0", "--bounds", "large"]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "scenario"


def test_selftest_passes(capsys):
    assert main(["selftest", "--count", "3", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "forcing oracles agree: 200/200" in out
    assert "staged hitting guarantee (exhaustive D<=2, n<=3): ok" in out
    assert "measure extraction bound (exhaustive k<=2, n<=2): ok" in out
    assert "fixed scenarios positive and replayed: 3/3" in out
    assert "scenarios run: 3" in out
    assert "failures: 0" in out


def test_selftest_reports_a_failing_seed_and_continues(monkeypatch, capsys):
    monkeypatch.delenv("ENDOWLAB_BOUNDS", raising=False)
    bad = generate_scenario(3, MODES[1])
    real = cli.run_preservation

    def flaky(scenario, limits):
        if scenario == bad:
            raise RuntimeError("boom")
        return real(scenario, limits)

    monkeypatch.setattr(cli, "run_preservation", flaky)
    assert main(["selftest", "--count", "3", "--seed", "2", "--jobs", "1", "--json"]) == 3
    data = json.loads(capsys.readouterr().out)
    assert data["scenarios"] == 3
    assert data["problems"] == []
    assert data["failures"] == [{"seed": 3, "mode": MODES[1], "verdict": None,
                                 "replay_ok": False, "error": "RuntimeError: boom"}]


def test_selftest_large_bounds_exceed_default_limits(capsys):
    assert main(["selftest", "--count", "1", "--bounds", "large"]) == 70
    assert "resource error" in capsys.readouterr().err


def test_selftest_parallel(capsys):
    assert main(["selftest", "--count", "4", "--seed", "5", "--jobs", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["scenarios"] == 4
    assert data["failures"] == []


def test_cli_imports_only_the_standard_library():
    code = ("import sys; before = set(sys.modules); import endowlab.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(Path(endowlab.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    loaded = {name.split(".")[0] for name in run.stdout.split()}
    # multiprocessing registers the main module again under this alias
    assert loaded - set(sys.stdlib_module_names) - {"__mp_main__"} == {"endowlab"}
