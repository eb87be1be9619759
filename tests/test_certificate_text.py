"""The certificate writer against the reference dict builders.

Certificates are written straight to canonical text by `to_text`.  Every
test here compares that text byte for byte with `canonical_json` of the
trees that `certificate_reference` builds field by field: on the goldens,
on seeded scenarios, and on certificates whose identifiers need escaping or
whose sections are negative.  The CLI round trips check that `preserve`
writes exactly that text plus a newline and that `verify` replays it.
"""

import json
from pathlib import Path

import pytest

import endowlab.preservation as preservation
from certificate_reference import (
    approx_certificate_jsonable,
    certificate_jsonable,
    name_jsonable,
    refine_certificate_jsonable,
    scenario_jsonable,
)
from endowlab.bounds import DEFAULT_LIMITS, Limits
from endowlab.canon import canonical_json
from endowlab.cli import main
from endowlab.endowment import adversarial_singleton_family
from endowlab.instances import fixture_cohen_pair, fixture_measure_pair, save_instance
from endowlab.preservation import Scenario, generate_scenario, run_preservation
from endowlab.selection import MODES

GOLDEN = Path(__file__).parent / "golden"


def assert_writer_matches_reference(cert) -> str:
    """The certificate's text, checked against the reference trees."""
    text = cert.to_text()
    assert text == canonical_json(certificate_jsonable(cert))
    assert cert.to_jsonable() == json.loads(text)
    assert cert.scenario.to_jsonable() == scenario_jsonable(cert.scenario)
    for name in cert.scenario.names + cert.pipeline.refined:
        assert name.to_jsonable() == name_jsonable(name)
    for approx_cert in cert.approximation_certificates:
        assert approx_cert.to_jsonable() == approx_certificate_jsonable(approx_cert)
    for refine_cert in cert.pipeline.certificates:
        assert refine_cert.to_jsonable() == refine_certificate_jsonable(refine_cert)
    return text


def preserve_then_verify(tmp_path, scenario: Scenario) -> tuple[int, int, str]:
    """Exit codes of `preserve` and `verify` on the scenario, and the
    certificate file's text."""
    scenario_file = tmp_path / "scenario.json"
    cert_file = tmp_path / "cert.json"
    save_instance(scenario_file, "scenario", scenario_jsonable(scenario))
    made = main(["preserve", "--scenario", str(scenario_file), "--cert", str(cert_file)])
    replayed = main(["verify", "--cert", str(cert_file)])
    return made, replayed, cert_file.read_text()


@pytest.mark.parametrize("label,fixture", [
    ("cohen-pair", fixture_cohen_pair), ("measure-pair", fixture_measure_pair)])
def test_goldens_are_the_writer_text(label, fixture, tmp_path):
    golden = (GOLDEN / f"{label}.cert.json").read_text()
    cert = run_preservation(fixture())
    assert assert_writer_matches_reference(cert) + "\n" == golden
    assert preserve_then_verify(tmp_path, fixture()) == (0, 0, golden)


# Tighter generation bounds draw other scenarios than the defaults (196 of
# 200 seeds differ per mode): one Cohen index, k = 1, two points.
SMALL_BOUNDS = Limits(max_indices=1, max_k=1, max_points=2, max_base=3, max_poset=4, max_levels=4)


@pytest.mark.parametrize("bounds", [DEFAULT_LIMITS, SMALL_BOUNDS], ids=["default", "small"])
@pytest.mark.parametrize("mode", MODES)
def test_writer_matches_reference_on_generated_scenarios(mode, bounds):
    for seed in range(200):
        cert = run_preservation(generate_scenario(seed, mode, bounds))
        assert_writer_matches_reference(cert)


# Identifiers that need every kind of escaping: a quote, a backslash, control
# characters, non-ASCII letters and characters outside the basic plane.
TOP, LEFT, RIGHT, LOW, ASTRAL = '"top"', "a\\b", "b\x1fc", "ü", "\U0001d538"
X, Y, Z, U, V = 'x"', "y\\", "z\n", "é", "\U0001f600"


def hostile_scenario(mode: str, x: str = X) -> Scenario:
    """A scenario whose identifiers all need escaping; `x` names its first
    point."""
    everything = [x, Y, Z, U, V]
    return Scenario.from_jsonable({
        "poset": {"kind": "explicit", "elements": [TOP, LEFT, RIGHT, LOW, ASTRAL],
                  "leq": [[LEFT, TOP], [RIGHT, TOP], [LOW, LEFT], [ASTRAL, LEFT]]},
        "space": {"points": everything, "base": [[x], [x, Y], [Z, U, V], everything]},
        "names": [
            [{"condition": TOP, "set": everything}, {"condition": LEFT, "set": [x, Y]},
             {"condition": LOW, "set": [x]}, {"condition": RIGHT, "set": [Z, U, V]}],
            [{"condition": LEFT, "set": [x, Y]}, {"condition": LEFT, "set": everything},
             {"condition": RIGHT, "set": [Z, U, V]}, {"condition": RIGHT, "set": everything}],
        ],
        "property": mode,
    })


@pytest.mark.parametrize("mode", MODES)
def test_hostile_identifiers_round_trip(mode, tmp_path):
    cert = run_preservation(hostile_scenario(mode))
    text = assert_writer_matches_reference(cert)
    assert text.isascii()
    assert text == canonical_json(json.loads(text))
    for identifier in (TOP, LEFT, RIGHT, LOW, ASTRAL, X, Y, Z, U, V):
        assert json.dumps(identifier) in text
    assert preserve_then_verify(tmp_path, hostile_scenario(mode)) == (0, 0, text + "\n")


def negative_scenario() -> Scenario:
    """Cohen D=1 over three points, floor 1.  With the staged family every
    section is positive; the adversarial singleton family keeps only 0:0,
    whose piece {x,y} no named set contains below 0:1."""
    return Scenario.from_jsonable({
        "poset": {"kind": "cohen", "indices": [0]},
        "space": {"points": ["x", "y", "z"], "base": [["x", "y"], ["x", "z"], ["y", "z"]]},
        "names": [[
            {"condition": "0:0", "set": ["x", "y"]}, {"condition": "0:0", "set": ["y", "z"]},
            {"condition": "0:1", "set": ["x", "z"]}, {"condition": "0:1", "set": ["y", "z"]},
        ]] * 4,
        "property": "rothberger",
    })


def test_negative_certificate_round_trip(tmp_path, monkeypatch):
    assert run_preservation(negative_scenario()).verdict == "positive"
    # an empty cache, so that the bundle built with the patched family is
    # the one stored, and is thrown away with the cache afterwards
    monkeypatch.setattr(preservation, "_SHARED", {})
    monkeypatch.setattr(preservation, "cohen_dow_family",
                        lambda cohen, strat: adversarial_singleton_family(cohen.poset))
    cert = run_preservation(negative_scenario())
    assert cert.verdict == "negative"
    assert any(c.counterexample is not None for c in cert.approximation_certificates)
    assert any(c.counterexample is not None for c in cert.pipeline.certificates)
    assert any(row.covering is None for row in cert.pipeline.atom_table)
    text = assert_writer_matches_reference(cert)
    assert '"set":null' in text
    assert preserve_then_verify(tmp_path, negative_scenario()) == (3, 0, text + "\n")
