"""Command line behaviour: subcommands, exit codes, files, and bounds."""

import copy
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import fields
from functools import cache
from pathlib import Path

import endowlab
import endowlab.cli as cli
import endowlab.endowment as endowment
import endowlab.preservation as preservation
from endowlab.bounds import Limits
from endowlab.canon import canonical_json
from endowlab.cli import main, parse_bounds, parse_poset_spec
from endowlab.errors import UsageError
from endowlab.instances import (
    cohen_pair_name_payload,
    fixture_cohen_pair,
    fixture_measure_pair,
    pair_space_payload,
    save_instance,
    wrap_instance,
)
from endowlab.poset import Poset
from endowlab.preservation import build_bundle, generate_scenario, run_preservation
from endowlab.selection import MODES

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


# -- argument parsing ----------------------------------------------------------


def test_parse_poset_spec():
    assert parse_poset_spec("cohen:D=2") == {"kind": "cohen", "indices": [0, 1]}
    assert parse_poset_spec("measure:k=1") == {"kind": "measure", "k": 1}
    assert parse_poset_spec("measure:k=0") == {"kind": "measure", "k": 0}
    for bad in ("cohen", "cohen:D=x", "measure:k=", "random:3",
                "cohen:D=0", "cohen:D=-3", "measure:k=-1"):
        with pytest.raises(UsageError):
            parse_poset_spec(bad)


def test_parse_poset_spec_from_file(tmp_path):
    path = tmp_path / "poset.json"
    save_instance(path, "poset", {"elements": ["t", "a"], "leq": [["a", "t"]]})
    assert parse_poset_spec(f"@{path}") == {
        "kind": "explicit", "elements": ["t", "a"], "leq": [["a", "t"]]}


def test_parse_bounds():
    assert parse_bounds("default").max_k == 3
    assert parse_bounds('{"max_k": 2}').max_k == 2
    for bad in ("large", "huge", '{"max_q": 1}', "[1]", '{"max_k": "x"}', '{"max_k": -1}'):
        with pytest.raises(UsageError):
            parse_bounds(bad)


def test_usage_errors_are_exit_64(capsys):
    assert main([]) == 64
    assert main(["frobnicate"]) == 64
    assert main(["endow-verify", "cohen:D=1"]) == 64  # missing --n
    assert main(["endow-verify", "random:1", "--n", "0"]) == 64
    assert main(["dow", "measure:k=1", "--member", "0", "--n", "0"]) == 64
    assert main(["endow-verify", "cohen:D=4", "--n", "1", "--seeded", "0"]) == 64
    assert main(["endow-verify", "cohen:D=4", "--n", "1", "--seeded", "-3", "--full"]) == 64
    assert main(["selftest", "--count", "0"]) == 64
    assert main(["selftest", "--count", "-1"]) == 64
    assert main(["endow-verify", "cohen:D=2", "--n", "1", "--full", "--budget", "-1"]) == 64
    assert main(["endow-verify", "cohen:D=2", "--n", "1", "--exhaustive", "--seeded", "5"]) == 64
    assert main(["endow-verify", "cohen:D=2", "--n", "-1"]) == 64
    assert main(["dow", "cohen:D=2", "--member", "", "--n", "-1"]) == 64
    assert main(["approx", "--poset", "cohen:D=2", "--space", "s.json", "--name", "n.json",
                 "--n", "-1"]) == 64
    assert main(["refine", "--poset", "cohen:D=2", "--space", "s.json", "--name", "n.json",
                 "--n", "-2", "--sets", "f.json"]) == 64
    assert "usage error" in capsys.readouterr().err


# -- one parser, many calls ------------------------------------------------------


def test_many_main_calls_build_the_parser_once(monkeypatch, capsys):
    built = []
    real = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    cli._shared_parser.cache_clear()
    assert main(["endow-verify", "cohen:D=1", "--n", "1"]) == 0
    once = len(built)
    assert once > 0
    for _ in range(5):
        assert main(["endow-verify", "cohen:D=1", "--n", "1"]) == 0
        assert main(["frobnicate"]) == 64
        assert main(["--help"]) == 0
    assert len(built) == once


def test_importing_the_cli_builds_no_parser():
    code = ("import argparse; built = []; real = argparse.ArgumentParser.__init__; "
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *a, **k: (built.append(1), real(self, *a, **k))[1]; "
            "import endowlab.cli; print(len(built))")
    env = {**os.environ, "PYTHONPATH": str(Path(endowlab.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0"]


def test_repeated_options_do_not_carry_to_the_next_call(monkeypatch, capsys):
    seen = []
    real = cli.dow_construct

    def spy(cohen, antichain, n, **options):
        seen.append(sorted(antichain))
        return real(cohen, antichain, n, **options)

    monkeypatch.setattr(cli, "dow_construct", spy)
    assert main(["dow", "cohen:D=1", "--member", "0:0", "--member", "0:1", "--n", "1"]) == 0
    assert main(["dow", "cohen:D=1", "--member", "", "--n", "1"]) == 0
    assert seen == [["0:0", "0:1"], [""]]


def test_property_override_does_not_carry_to_the_next_call(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    cert = tmp_path / "cert.json"
    save_instance(scenario, "scenario", fixture_cohen_pair().to_jsonable())
    argv = ["preserve", "--scenario", str(scenario), "--cert", str(cert)]
    assert main(argv + ["--property", "menger"]) == 0
    assert json.loads(cert.read_text())["scenario"]["property"] == "menger"
    assert main(argv) == 0
    assert json.loads(cert.read_text())["scenario"]["property"] == fixture_cohen_pair().mode


def test_a_usage_error_leaves_the_next_call_working(capsys):
    assert main(["endow-verify", "cohen:D=1"]) == 64  # missing --n
    assert main(["endow-verify", "cohen:D=1", "--n", "1"]) == 0
    assert main(["dow", "cohen:D=1", "--n", "1"]) == 64  # missing --member
    assert main(["dow", "cohen:D=1", "--member", "", "--n", "1"]) == 0


def test_handlers_are_looked_up_when_each_command_runs(tmp_path, monkeypatch, capsys):
    assert main(["verify", "--cert", str(tmp_path / "missing.json")]) == 65
    monkeypatch.setattr(cli, "cmd_verify", lambda args, limits: 42)
    assert main(["verify", "--cert", str(tmp_path / "missing.json")]) == 42


@pytest.mark.parametrize("argv,expected", [
    (["--help"], "usage: endowlab"),
    (["preserve", "--help"], "--scenario"),
    (["endow-verify", "-h"], "--budget"),
])
def test_help_returns_0_and_leaves_the_parser_working(argv, expected, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert expected in captured.out
    assert captured.err == ""
    assert main(["endow-verify", "cohen:D=1", "--n", "1"]) == 0
    assert "weak endowment: ok" in capsys.readouterr().out


def test_help_exits_0_in_a_fresh_interpreter():
    env = {**os.environ, "PYTHONPATH": str(Path(endowlab.__file__).parents[1])}
    for argv in (["--help"], ["preserve", "--help"]):
        run = subprocess.run([sys.executable, "-m", "endowlab.cli", *argv],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("usage: endowlab")


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


def test_endow_verify_lists_joint_clause_violations(capsys):
    # the staged family's named negative control: 240 joint clause
    # violations, of which the text output lists the first five
    assert main(["endow-verify", "cohen:D=3", "--n", "2", "--full"]) == 3
    assert capsys.readouterr().out == (
        "poset: cohen:D=3 (27 conditions)\n"
        "family: staged-hitting  level: 2\n"
        "antichains checked: 154 (exhaustive)\n"
        "weak endowment: ok\n"
        "joint extension clause: VIOLATIONS\n"
        "  clause 3: witness '0:1,2:1' in antichain "
        "['0:0', '0:1,1:0', '0:1,1:1', '0:1,1:0,2:0', '0:1,1:1,2:0']\n"
        "  clause 3: witness '0:1,1:1' in antichain "
        "['0:0', '0:1,1:0', '0:1,2:1', '0:1,1:0,2:0', '0:1,1:1,2:0']\n"
        "  clause 3: witness '1:1,2:1' in antichain "
        "['0:0', '0:1', '0:0,1:0', '0:1,1:0', '0:0,1:1,2:0', '0:1,1:1,2:0']\n"
        "  clause 3: witness '1:1,2:1' in antichain "
        "['0:0', '0:1', '0:1,1:0', '0:0,2:0', '0:0,1:0,2:1', '0:1,1:1,2:0']\n"
        "  clause 3: witness '1:1,2:1' in antichain "
        "['0:0', '1:0', '0:1,1:0', '0:1,1:1', '0:0,1:1,2:0', '0:1,1:1,2:0']\n")


def test_endow_verify_lists_violations_under_their_clause(capsys):
    assert main(["endow-verify", "cohen:D=2", "--n", "1", "--full", "--family", "adversarial"]) == 3
    lines = capsys.readouterr().out.splitlines()
    weak = lines.index("weak endowment: VIOLATIONS")
    joint = lines.index("joint extension clause: VIOLATIONS")
    assert joint == weak + 6
    assert all(line.startswith("  clause 3': ") for line in lines[weak + 1:joint])
    assert len(lines) == joint + 6
    assert all(line.startswith("  clause 3: ") for line in lines[joint + 1:])


def test_endow_verify_json_output(capsys):
    assert main(["endow-verify", "cohen:D=1", "--n", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["weak"]["ok"] is True
    assert data["weak"]["antichains_checked"] == 2


def test_endow_verify_seeded_sampling(capsys):
    assert main(["endow-verify", "cohen:D=2", "--n", "1", "--seeded", "50", "--seed", "9"]) == 0
    assert "seeded:50" in capsys.readouterr().out


# Exit code and stdout digest of each command, taken before antichain sampling
# moved onto canonical positions.  Seeded sampling and `gen` draw maximal
# antichains in a row from one generator, so a sampler that changes any draw
# or the generator's state after it changes these outputs.
PINNED_DRAWS = {
    "endow-verify measure:k=3 --n 1 --seeded 150 --seed 0 --full --json":
        (0, "305d4df1e73af07a3be63325898122e6822772c17ec786ca13ae568cb0af62d6"),
    "endow-verify cohen:D=4 --n 2 --seeded 40 --seed 0 --full --json":
        (3, "27c41a8034135f87c93f463cf383c4e33ae5740a5296948c09b5559c5a057eff"),
    "gen --seed 0": (0, "d219d28fd99d2280bca6e034eb5d73078f16d1602e2cc5415e7ebb7159fe0712"),
    "gen --seed 1": (0, "3dd20413dfc12507579796727f9d2df22d9feaab19eebba8666ecf58ddc08a90"),
    "gen --seed 2": (0, "c8537c2db43fde60d84abab3a872c90ef20f190a8b79d0f65d3f18213241880e"),
    "gen --seed 3": (0, "955254e824728ca9ad4863543fafdf8f0c35cb2d75e7677b1eaa78f3081f1a71"),
    "gen --seed 4": (0, "ca7d47e1585e3f6a9e9bec180931216f54b2a699374adc44e770653d22f77575"),
    "gen --seed 5": (0, "f554909e7bb0a98e89a767809c7301a9652e32aa5ebfc467ffa29bec952f1943"),
}


@pytest.mark.parametrize("argv", PINNED_DRAWS)
def test_sampled_antichains_keep_their_pinned_draws(argv, capsys):
    code, digest = PINNED_DRAWS[argv]
    assert main(argv.split()) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_endow_verify_full_extracts_each_antichain_once(monkeypatch, capsys):
    # the weak and the joint extension clauses read one extraction pass
    calls = []
    real = endowment.dow_construct

    def counted(cohen, antichain, n, **options):
        calls.append(antichain)
        return real(cohen, antichain, n, **options)

    monkeypatch.setattr(endowment, "dow_construct", counted)
    assert main(["endow-verify", "cohen:D=2", "--n", "1", "--full"]) == 0
    out = capsys.readouterr().out
    assert "antichains checked: 8 (exhaustive)" in out
    assert "joint extension clause: ok" in out
    assert len(calls) == len(set(calls)) == 8


@pytest.mark.parametrize("poset,antichains", [("cohen:D=2", 8), ("measure:k=2", 15)])
def test_endow_verify_checks_each_antichain_for_maximality_once(
        poset, antichains, monkeypatch, capsys):
    # `extract_each` checks each antichain; the family's extractor trusts it
    checks = []
    real = Poset.is_maximal_antichain

    def counted(self, items):
        checks.append(frozenset(items))
        return real(self, items)

    monkeypatch.setattr(Poset, "is_maximal_antichain", counted)
    assert main(["endow-verify", poset, "--n", "1", "--full"]) == 0
    assert f"antichains checked: {antichains} (exhaustive)" in capsys.readouterr().out
    assert len(checks) == len(set(checks)) == antichains


@pytest.mark.parametrize("argv", [
    ["endow-verify", "cohen:D=2", "--n", "1", "--jobs", "2"],
    ["selftest", "--count", "1", "--jobs", "2"],
])
def test_no_command_has_a_jobs_option(argv, capsys):
    # one serial path per command: no command starts a worker pool
    assert main(argv) == 64
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_staged_family_fails_the_joint_extension_clause_at_d3(capsys):
    # A named negative control: the staged family is verified for the weak
    # clauses only, and `--full` checks a stronger joint clause that it fails
    # from D=3 on.  This pins the verifier's answer, so a change to the scan
    # cannot move it silently.  Minimal case:
    # each of the two extractions meets p = 0:1,2:1 only through one of the
    # incompatible members 0:1,1:0 and 0:1,1:1, so no r <= p serves both.
    assert main(["endow-verify", "cohen:D=3", "--n", "2", "--full", "--json"]) == 3
    data = json.loads(capsys.readouterr().out)
    assert data["weak"]["antichains_checked"] == 154
    assert data["weak"]["violations"] == []
    full = data["full"]
    assert full["antichains_checked"] == 154
    assert len(full["violations"]) == 240
    assert {v["clause"] for v in full["violations"]} == {"3"}
    assert {
        "antichain": ["0:0", "0:1,1:0", "0:1,1:1", "0:1,1:0,2:0", "0:1,1:1,2:0"],
        "clause": "3",
        "detail": "no common extension scheme for tuple",
        "witness": "0:1,2:1",
    } in full["violations"]


def test_bounds_env_var_is_honoured(monkeypatch, capsys):
    monkeypatch.setenv("ENDOWLAB_BOUNDS", '{"max_indices": 1}')
    assert main(["endow-verify", "cohen:D=2", "--n", "1"]) == 70
    assert "resource error" in capsys.readouterr().err
    monkeypatch.setenv("ENDOWLAB_BOUNDS", "{bad json")
    assert main(["endow-verify", "cohen:D=1", "--n", "1"]) == 65


def test_a_shared_poset_is_not_served_under_other_bounds(monkeypatch, capsys):
    monkeypatch.delenv("ENDOWLAB_BOUNDS", raising=False)
    argv = ["endow-verify", "cohen:D=2", "--n", "1"]
    assert main(argv) == 0
    monkeypatch.setenv("ENDOWLAB_BOUNDS", '{"max_indices": 1}')
    assert main(argv) == 70
    monkeypatch.delenv("ENDOWLAB_BOUNDS")
    assert main(argv) == 0


def test_max_poset_caps_exhaustive_enumeration(monkeypatch, capsys):
    monkeypatch.setenv("ENDOWLAB_BOUNDS", '{"max_poset": 5}')
    assert main(["endow-verify", "cohen:D=2", "--n", "1", "--exhaustive"]) == 70
    assert "capped at max_poset=5 conditions, got 9" in capsys.readouterr().err
    assert main(["endow-verify", "cohen:D=2", "--n", "1"]) == 64
    assert "pass --seeded COUNT" in capsys.readouterr().err
    assert main(["endow-verify", "cohen:D=2", "--n", "1", "--seeded", "5"]) == 0
    capsys.readouterr()
    assert main(["selftest", "--count", "1", "--bounds", '{"max_poset": 5}']) == 70
    assert "capped at max_poset=5 conditions, got 9" in capsys.readouterr().err


def test_huge_cohen_index_count_is_rejected_before_building_it(capsys):
    start = time.perf_counter()
    assert main(["endow-verify", "cohen:D=1000000000000", "--n", "1"]) == 70
    assert time.perf_counter() - start < 1
    assert "index set capped at 5 entries" in capsys.readouterr().err


def test_resource_error_json_carries_the_partial_report(capsys):
    argv = ["endow-verify", "cohen:D=2", "--n", "2", "--full", "--budget", "10", "--json"]
    assert main(argv) == 70
    captured = capsys.readouterr()
    assert "resource error" in captured.err
    data = json.loads(captured.out)
    # 8 distinct extractions, so 8^2 tuples of the 9 level-2 conditions
    assert data["error"] == "joint extension scan exceeded budget 10 (the clause needs 576 pairs)"
    assert data["partial"]["family"] == "staged-hitting"
    assert data["partial"]["antichains_checked"] == 8
    assert data["partial"]["violations"] == []


LEVEL_COMMANDS = {
    "endow-verify": lambda files: ["endow-verify", "cohen:D=2"],
    "dow": lambda files: ["dow", "cohen:D=2", "--member", "0:0", "--member", "0:1"],
    "approx": lambda files: ["approx", "--poset", "cohen:D=2", "--space", files[0],
                             "--name", files[1]],
    "refine": lambda files: ["refine", "--poset", "cohen:D=2", "--space", files[0],
                             "--name", files[1], "--sets", files[2]],
}


@pytest.fixture
def level_files(pair_files, tmp_path):
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps([["x"]]))
    return (*pair_files, str(sets))


@pytest.mark.parametrize("command", LEVEL_COMMANDS)
def test_level_above_the_limit_is_70_before_any_poset_is_built(command, level_files, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a poset was built")

    argv = LEVEL_COMMANDS[command](level_files)
    assert main(argv + ["--n", "8"]) in {0, 3}
    monkeypatch.setattr(cli, "build_bundle", refuse)
    for n in ("9", "3000000"):
        capsys.readouterr()
        assert main(argv + ["--n", n]) == 70
        assert f"--n capped at max_levels=8, got {n}" in capsys.readouterr().err
    monkeypatch.setenv("ENDOWLAB_BOUNDS", '{"max_levels": 2}')
    assert main(argv + ["--n", "3"]) == 70


@pytest.mark.parametrize("spec", ["cohen:D=0", "cohen:D=-3", "measure:k=-1"])
@pytest.mark.parametrize("command", LEVEL_COMMANDS)
def test_poset_size_out_of_range_is_64_before_any_poset_is_built(
        command, spec, level_files, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a poset was built")

    monkeypatch.setattr(cli, "build_bundle", refuse)
    argv = [spec if a == "cohen:D=2" else a for a in LEVEL_COMMANDS[command](level_files)]
    assert main(argv + ["--n", "1"]) == 64
    assert f"in {spec!r} must be at least" in capsys.readouterr().err


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
    assert capsys.readouterr().err == "error: staged construction needs a maximal antichain\n"


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


SCENARIO_FILE_ERRORS = {
    "set-is-string": (lambda s: s["names"][1][2].update(set="x"),
                      "scenario.names[1][2].set must be a list"),
    "unknown-kind": (lambda s: s.update(poset={"kind": "widget"}),
                     "scenario.poset must be an object with a kind in ['cohen', 'measure', 'explicit']"),
    "entry-without-set": (lambda s: s["names"][0].append({"condition": "0:0"}),
                          "scenario.names[0][3] needs key 'set'"),
    "point-not-string": (lambda s: s["space"]["base"][1].append(7),
                         "scenario.space.base[1][2] must be a string"),
    "unknown-property": (lambda s: s.update(property="compact"),
                         "scenario.property must be one of ['menger', 'rothberger', 'selective-screenability']"),
}


@pytest.mark.parametrize("case", SCENARIO_FILE_ERRORS.values(), ids=SCENARIO_FILE_ERRORS.keys())
def test_preserve_malformed_scenario_file_names_the_spot(case, tmp_path, capsys):
    # the payload is shape-checked once, by the loader, with the same
    # message the scenario parser would give
    mutate, message = case
    payload = fixture_cohen_pair().to_jsonable()
    mutate(payload)
    scenario = tmp_path / "scenario.json"
    save_instance(scenario, "scenario", payload)
    assert main(["preserve", "--scenario", str(scenario), "--cert", str(tmp_path / "c.json")]) == 65
    assert capsys.readouterr().err == f"error: {message}\n"


def test_malformed_name_space_and_poset_files_name_the_spot(pair_files, tmp_path, capsys):
    space, name = pair_files
    bad_name = tmp_path / "bad-name.json"
    save_instance(bad_name, "name", [{"condition": "0:0", "set": ["x"], "extra": 1}])
    bad_space = tmp_path / "bad-space.json"
    save_instance(bad_space, "space", {"points": ["x", "y"], "base": [["x", True]]})
    bad_pair = tmp_path / "bad-pair.json"
    save_instance(bad_pair, "poset", {"elements": ["a", "b"], "leq": [["a"]]})
    bad_element = tmp_path / "bad-element.json"
    save_instance(bad_element, "poset", {"elements": ["a", 3], "leq": []})
    runs = [
        (["approx", "--poset", "cohen:D=2", "--space", space, "--name", str(bad_name), "--n", "1"],
         "name[0] has unknown key 'extra'"),
        (["refine", "--poset", "cohen:D=2", "--space", str(bad_space), "--name", name,
          "--n", "1", "--sets", space],
         "space.base[0][1] must be a string"),
        (["endow-verify", f"@{bad_pair}", "--n", "1"], "poset.leq[0] must have 2 entries"),
        (["approx", "--poset", f"@{bad_element}", "--space", space, "--name", name, "--n", "1"],
         "poset.elements[1] must be a string"),
    ]
    for argv, message in runs:
        assert main(argv) == 65, argv
        assert capsys.readouterr().err == f"error: {message}\n"


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


def test_more_scenario_names_than_max_levels_is_70_before_any_poset_is_built(
        tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("ENDOWLAB_BOUNDS", raising=False)
    scenario, cert = tmp_path / "scenario.json", tmp_path / "cert.json"
    preserve = ["preserve", "--scenario", str(scenario), "--cert", str(cert)]
    verify = ["verify", "--cert", str(cert)]
    save_instance(scenario, "scenario", fixture_cohen_pair(levels=8).to_jsonable())
    assert main(preserve) == 0
    assert "levels: 8" in capsys.readouterr().out
    save_instance(scenario, "scenario", fixture_cohen_pair(levels=9).to_jsonable())
    monkeypatch.setenv("ENDOWLAB_BOUNDS", '{"max_levels": 9}')
    assert main(preserve) == 0
    assert "levels: 9" in capsys.readouterr().out
    assert main(verify) == 0
    monkeypatch.delenv("ENDOWLAB_BOUNDS")
    capsys.readouterr()
    monkeypatch.setattr(preservation, "build_bundle", lambda *args: pytest.fail("a poset was built"))
    for argv in (preserve, verify):
        assert main(argv) == 70
        assert capsys.readouterr().err == (
            "resource error: scenario names capped at max_levels=8, got 9\n")


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


def test_verify_dumps_the_fresh_certificate_once(tmp_path, monkeypatch, capsys):
    # the fresh certificate is written to text once and the pipeline runs at
    # most once; a canonical file is decided from its scenario without
    # parsing the file, any other text is parsed and dumped once, and the
    # fresh text is parsed only to name mismatching sections
    import endowlab.preservation as preservation

    scenario = tmp_path / "scenario.json"
    cert = tmp_path / "cert.json"
    save_instance(scenario, "scenario", fixture_cohen_pair().to_jsonable())
    assert main(["preserve", "--scenario", str(scenario), "--cert", str(cert)]) == 0
    writes, dumps, parses, runs = [], [], [], []

    def counting(seen, function):
        def counted(*args):
            seen.append(args)
            return function(*args)
        return counted

    def counting_dump(obj):
        if isinstance(obj, dict) and obj.get("kind") == "preservation-certificate":
            dumps.append(obj)
        return canonical_json(obj)

    monkeypatch.setattr(preservation.PreservationCertificate, "to_text",
                        counting(writes, preservation.PreservationCertificate.to_text))
    monkeypatch.setattr(preservation, "canonical_json", counting_dump)
    monkeypatch.setattr(json, "loads", counting(parses, json.loads))
    monkeypatch.setattr(preservation, "run_preservation", counting(runs, preservation.run_preservation))

    def verify_counts(text):
        """Exit code, certificate writes and dumps, parses of the file and
        of other text, and pipeline runs."""
        cert.write_text(text)
        for seen in (writes, dumps, parses, runs):
            seen.clear()
        code = main(["verify", "--cert", str(cert)])
        file_parses = parses.count((text,))
        return code, len(writes), len(dumps), file_parses, len(parses) - file_parses, len(runs)

    data = json.loads(cert.read_text())
    assert verify_counts(cert.read_text()) == (0, 1, 0, 0, 0, 1)
    # the same certificate in other whitespace is still decided by content
    for text in (canonical_json(data), json.dumps(data, indent=2) + "\n"):
        assert verify_counts(text) == (0, 1, 1, 1, 0, 1)
    capsys.readouterr()
    assert verify_counts(canonical_json({**data, "floor": data["floor"] + 1}) + "\n") == (3, 1, 1, 1, 1, 1)
    assert "mismatching sections: ['floor']" in capsys.readouterr().out
    # a scenario whose pipeline raises is not run again after the parse
    for recipe, code in ((data["scenario"]["poset"], 2), ({"kind": "measure", "k": 4}, 70)):
        short = {**data["scenario"], "poset": recipe, "names": data["scenario"]["names"][:2]}
        assert verify_counts(canonical_json({**data, "scenario": short}) + "\n") == (code, 0, 0, 1, 0, 1)


GOLDEN_TEXT = (Path(__file__).parent / "golden" / "cohen-pair.cert.json").read_text()


def _edited(edit) -> str:
    """The cohen-pair golden, edited as parsed data and written canonically."""
    data = json.loads(GOLDEN_TEXT)
    edit(data)
    return canonical_json(data) + "\n"


def _json_error(text: str) -> str:
    """The interpreter's words for why `text` is not JSON."""
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:
        return str(exc)
    raise AssertionError("valid JSON")


def _flip_atom_row(data):
    row = data["atom_table"][0]
    row["set"] = ["x"] if row["set"] == ["x", "y"] else ["x", "y"]


def _hostile_certificate() -> str:
    from test_certificate_text import hostile_scenario

    # the point's literal is escaped, so the scenario key still occurs only
    # once although the point recurs in the selection after the scenario
    return run_preservation(hostile_scenario("rothberger", '"scenario":{')).to_text() + "\n"


FLOOR_ERROR = "scenario error: stabilization floor 2 leaves no usable level among 2 names\n"
K4_ERROR = "resource error: measure algebra exponent capped at 3, got 4\n"
NOT_A_CERTIFICATE = "error: not a preservation certificate\n"
OK = "replay: ok\n"


def _mismatch(*sections: str) -> str:
    return f"replay: MISMATCH\nmismatching sections: {list(sections)}\n"


def _short_scenario(recipe=None):
    def edit(data):
        scenario = data["scenario"]
        scenario["names"] = scenario["names"][:2]
        if recipe is not None:
            scenario["poset"] = recipe
    return edit


def _both(*edits):
    def edit(data):
        for each in edits:
            each(data)
    return edit


# input -> (exit code, stdout, stderr with the file's path as {path}), as
# `verify` answered before it read the scenario without parsing the file,
# except that a format version of true or 1.0 was then a mismatch (exit 3).
VERIFY_MATRIX = {
    "canonical": (lambda: GOLDEN_TEXT, 0, OK, ""),
    "compact-no-newline": (lambda: GOLDEN_TEXT.rstrip("\n"), 0, OK, ""),
    "indent-2": (lambda: json.dumps(json.loads(GOLDEN_TEXT), indent=2) + "\n", 0, OK, ""),
    "tampered-floor": (lambda: _edited(lambda d: d.update(floor=3)), 3, _mismatch("floor"), ""),
    "tampered-verdict": (
        lambda: _edited(lambda d: d.update(verdict="negative")), 3, _mismatch("verdict"), ""),
    "tampered-atom-row": (lambda: _edited(_flip_atom_row), 3, _mismatch("atom_table"), ""),
    "tampered-scenario-name": (
        lambda: _edited(lambda d: d["scenario"]["names"][-1][0].update(set=["x", "y"])),
        3, _mismatch("approximation_certificates", "approximations", "scenario"), ""),
    "wrong-kind": (lambda: _edited(lambda d: d.update(kind="scenario")), 65, "", NOT_A_CERTIFICATE),
    "wrong-version": (
        lambda: _edited(lambda d: d.update(format_version=2)),
        65, "", "error: unsupported certificate format version 2\n"),
    "version-true": (
        lambda: _edited(lambda d: d.update(format_version=True)),
        65, "", "error: unsupported certificate format version True\n"),
    "version-float": (
        lambda: _edited(lambda d: d.update(format_version=1.0)),
        65, "", "error: unsupported certificate format version 1.0\n"),
    "missing-scenario": (
        lambda: _edited(lambda d: d.pop("scenario")),
        65, "", "error: certificate needs an embedded scenario\n"),
    "scenario-not-object": (
        lambda: _edited(lambda d: d.update(scenario=[])),
        65, "", "error: scenario must be an object\n"),
    "truncated": (
        lambda: GOLDEN_TEXT[:-5],
        65, "", f"error: {{path}} is not valid JSON: {_json_error(GOLDEN_TEXT[:-5])}\n"),
    "deep": (
        lambda: "[" * 100_000,
        65, "", f"error: {{path}} is not valid JSON: {_json_error('[' * 100_000)}\n"),
    "not-utf-8": (
        lambda: b"\xff\xfe", 65, "",
        "error: {path} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"),
    "floor-error": (lambda: _edited(_short_scenario()), 2, "", FLOOR_ERROR),
    "floor-error-wrong-kind": (
        lambda: _edited(_both(_short_scenario(), lambda d: d.update(kind="scenario"))),
        65, "", NOT_A_CERTIFICATE),
    "k4-error": (lambda: _edited(_short_scenario({"kind": "measure", "k": 4})), 70, "", K4_ERROR),
    "k4-error-wrong-kind": (
        lambda: _edited(_both(_short_scenario({"kind": "measure", "k": 4}),
                              lambda d: d.update(kind="scenario"))),
        65, "", NOT_A_CERTIFICATE),
    "hostile-identifiers": (_hostile_certificate, 0, OK, ""),
}


@pytest.mark.parametrize("case", VERIFY_MATRIX.values(), ids=VERIFY_MATRIX.keys())
def test_verify_outcome_matrix(case, tmp_path, capsys):
    make, code, out, err = case
    content = make()
    cert = tmp_path / "cert.json"
    if isinstance(content, bytes):
        cert.write_bytes(content)
    else:
        cert.write_text(content)
    capsys.readouterr()
    assert main(["verify", "--cert", str(cert)]) == code
    seen = capsys.readouterr()
    assert (seen.out, seen.err.replace(str(cert), "{path}")) == (out, err)


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


# Each example here takes milliseconds; the generous deadline makes an input
# that sends a command into an unbounded run fail the fuzz instead of hanging it.
FUZZ = settings(max_examples=100, deadline=2000)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.text("xy01:,", max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("kx", max_size=2), inner, max_size=2),
    max_leaves=6,
)


@FUZZ
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


POSET_FILES = st.lists(st.text("abt", max_size=2), max_size=8, unique=True).flatmap(
    lambda elements: st.fixed_dictionaries({
        "elements": st.just(elements),
        "leq": st.lists(
            st.lists(st.sampled_from(elements + ["zz"]), min_size=2, max_size=2), max_size=6),
    }))


@FUZZ
@given(POSET_FILES)
def test_fuzzed_poset_file_exits_with_a_documented_code(payload):
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "poset.json"
        save_instance(source, "poset", payload)
        assert main(["endow-verify", f"@{source}", "--n", "1"]) in {0, 2, 3, 64, 65, 70}


LIMIT_KEYS = tuple(f.name for f in fields(Limits))


@FUZZ
@given(
    st.dictionaries(st.sampled_from(LIMIT_KEYS), st.integers(0, 12), max_size=4),
    st.just({}) | st.dictionaries(
        st.sampled_from(LIMIT_KEYS + ("max_q",)),
        st.integers(-1, 1) | st.booleans() | st.none() | st.text("1x", max_size=2),
        min_size=1, max_size=1,
    ),
    st.integers(0, 50),
)
def test_fuzzed_gen_bounds_exit_with_a_documented_code(bounds, junk, seed):
    argv = ["gen", "--seed", str(seed), "--bounds", json.dumps({**bounds, **junk})]
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


# Generation bounds above every default resource limit, as a JSON --bounds value.
BOUNDS_ABOVE_LIMITS = json.dumps({"max_indices": 6, "max_k": 4, "max_points": 12,
                                 "max_base": 24, "max_poset": 200, "max_levels": 16})


def test_gen_large_bounds_exceed_default_limits(capsys):
    assert main(["gen", "--seed", "0", "--bounds", BOUNDS_ABOVE_LIMITS]) == 70
    assert "resource error" in capsys.readouterr().err


def test_gen_large_bounds_with_matching_env(monkeypatch, capsys):
    monkeypatch.setenv("ENDOWLAB_BOUNDS", BOUNDS_ABOVE_LIMITS)
    assert main(["gen", "--seed", "0", "--bounds", BOUNDS_ABOVE_LIMITS]) == 0
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
    assert main(["selftest", "--count", "3", "--seed", "2", "--json"]) == 3
    data = json.loads(capsys.readouterr().out)
    assert data["scenarios"] == 3
    assert data["problems"] == []
    assert data["failures"] == [{"seed": 3, "mode": MODES[1], "verdict": None,
                                 "replay_ok": False, "error": "RuntimeError: boom"}]


def test_selftest_large_bounds_exceed_default_limits(capsys):
    assert main(["selftest", "--count", "1", "--bounds", BOUNDS_ABOVE_LIMITS]) == 70
    assert "resource error" in capsys.readouterr().err


def test_selftest_continues_past_a_failing_fixture(monkeypatch, capsys):
    monkeypatch.delenv("ENDOWLAB_BOUNDS", raising=False)
    bad = fixture_measure_pair(mode=MODES[2])
    real = cli.run_preservation

    def flaky(scenario, limits):
        if scenario == bad:
            raise RuntimeError("boom")
        return real(scenario, limits)

    monkeypatch.setattr(cli, "run_preservation", flaky)
    assert main(["selftest", "--count", "3", "--seed", "2"]) == 3
    captured = capsys.readouterr()
    assert "fixed scenarios positive and replayed: 2/3" in captured.out
    assert "scenarios run: 3" in captured.out
    assert "failures: 0" in captured.out
    assert "RuntimeError: boom" in captured.err  # a program fault keeps its traceback


def test_selftest_rejects_unusable_bounds_before_any_sweep(monkeypatch, capsys):
    monkeypatch.delenv("ENDOWLAB_BOUNDS", raising=False)
    monkeypatch.setattr(cli, "_oracle_sweep", lambda *args: pytest.fail("a sweep ran"))
    bounds = '{"max_points": 1}'
    assert main(["selftest", "--count", "3", "--bounds", bounds]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert main(["gen", "--seed", "0", "--bounds", bounds]) == 65
    assert capsys.readouterr().err == captured.err
    assert captured.err == "error: generation bound max_points=1 is below 2, the smallest space drawn\n"


class _WorkStarted(Exception):
    """Raised by a spy in place of the first sweep or poset build."""


@pytest.mark.parametrize("argv,option", [
    (["selftest", "--count"], "--count"),
    (["endow-verify", "cohen:D=2", "--n", "1", "--seeded"], "--seeded COUNT"),
])
def test_batch_counts_above_the_cap_are_70_before_any_work(argv, option, monkeypatch, capsys):
    def start(*args):
        raise _WorkStarted

    monkeypatch.delenv("ENDOWLAB_BOUNDS", raising=False)
    monkeypatch.setattr(cli, "_oracle_sweep", start)
    monkeypatch.setattr(cli, "build_bundle", start)
    assert cli.MAX_BATCH == 10_000
    assert main(argv + ["10001"]) == 70
    assert capsys.readouterr().err == f"resource error: {option} capped at 10000, got 10001\n"
    with pytest.raises(_WorkStarted):  # the cap itself is allowed
        main(argv + ["10000"])


def test_selftest_reports_a_seed_without_headroom_without_a_traceback(monkeypatch, capsys):
    monkeypatch.delenv("ENDOWLAB_BOUNDS", raising=False)
    assert main(["selftest", "--count", "6", "--bounds", '{"max_levels": 1}', "--json"]) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    data = json.loads(captured.out)
    assert data["problems"] == []
    assert data["failures"] == [
        {"seed": seed, "mode": MODES[seed % 3], "verdict": None, "replay_ok": False,
         "error": "DataError: generation bounds leave no room for the headroom guarantee"}
        for seed in range(6)]


def shared_snapshot(recipe):
    """Copies of every table of a shared bundle, `atom_up` included."""
    bundle = build_bundle(recipe)
    poset, strat, structure = bundle.poset, bundle.strat, bundle.structure
    tables = [poset.elements, dict(poset.down_mask), dict(poset.atom_mask), poset.atom_up,
              strat.levels, strat.ordered, bundle.family]
    if recipe["kind"] == "cohen":
        tables += [dict(structure.support_mask), structure.within_mask]
    return tables


def test_commands_never_write_a_shared_poset(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("ENDOWLAB_BOUNDS", raising=False)
    measure_name = [
        {"condition": "00,01", "set": ["x"]},
        {"condition": "00,01", "set": ["x", "y"]},
        {"condition": "10,11", "set": ["x", "y"]},
    ]
    explicit_poset = {"elements": ["t", "a", "b"], "leq": [["a", "t"], ["b", "t"]]}
    explicit_name = [
        {"condition": "a", "set": ["x"]},
        {"condition": "a", "set": ["x", "y"]},
        {"condition": "b", "set": ["x", "y"]},
    ]
    poset_file = tmp_path / "poset.json"
    save_instance(poset_file, "poset", explicit_poset)
    cases = [
        ({"kind": "cohen", "indices": [0, 1, 2]}, "cohen:D=3", cohen_pair_name_payload(), 4),
        ({"kind": "measure", "k": 2}, "measure:k=2", measure_name, 3),
        ({"kind": "explicit", **explicit_poset}, f"@{poset_file}", explicit_name, 2),
    ]
    before = [shared_snapshot(recipe) for recipe, *_ in cases]
    for recipe, spec, name, levels in cases:
        scenario, cert = tmp_path / "scenario.json", tmp_path / "cert.json"
        save_instance(scenario, "scenario", {
            "poset": recipe, "space": pair_space_payload(), "names": [name] * levels,
            "property": "rothberger"})
        assert main(["preserve", "--scenario", str(scenario), "--cert", str(cert)]) == 0
        assert main(["verify", "--cert", str(cert)]) == 0
        assert main(["endow-verify", spec, "--n", "1", "--full", "--seeded", "20"]) == 0
    assert main(["dow", "cohen:D=3", "--member", "0:0", "--member", "0:1", "--n", "2"]) == 0
    assert [shared_snapshot(recipe) for recipe, *_ in cases] == before


def test_cli_imports_only_the_standard_library():
    code = ("import sys; before = set(sys.modules); import endowlab.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(Path(endowlab.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    loaded = {name.split(".")[0] for name in run.stdout.split()}
    assert loaded - set(sys.stdlib_module_names) == {"endowlab"}
    # every command runs in one process, so nothing needs a process pool
    assert "multiprocessing" not in loaded
