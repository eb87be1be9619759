"""The certificate writer against the reference dict builders.

Certificates are written straight to canonical text by `to_text`.  Every
test here compares that text byte for byte with `canonical_json` of the
trees that `certificate_reference` builds field by field: on the goldens,
on seeded scenarios, and on certificates whose identifiers need escaping or
whose sections are negative.  The CLI round trips check that `preserve`
writes exactly that text plus a newline and that `verify` replays it, and
that `verify` names the section of every tampered certificate.  The runs
are checked where a skeleton is patched: hand-built runs patched at every
place, an explicit poset whose witness runs are searched, and posets whose
text tables come and go with the bundle cache.
"""

import json
from pathlib import Path

import pytest

import endowlab.preservation as preservation
from certificate_reference import (
    approx_certificate_jsonable,
    approximation_jsonable,
    certificate_jsonable,
    name_jsonable,
    refine_certificate_jsonable,
    scenario_jsonable,
)
from endowlab.bounds import DEFAULT_LIMITS, Limits
from endowlab.canon import TextMemo, TextTable, canonical_json
from endowlab.cli import _LISTED_STRONGER_FIRST, main
from endowlab.instances import fixture_cohen_pair, fixture_measure_pair, save_instance
from endowlab.names import (
    ApproxCertificate,
    RefineCertificate,
    WitnessTable,
    check_approximation,
    check_cover_name,
    refine_name,
)
from endowlab.poset import forces_dense
from endowlab.preservation import (
    MAX_SHARED,
    Scenario,
    build_bundle,
    generate_scenario,
    run_preservation,
)
from endowlab.selection import MODES
from endowlab.topology import FiniteSpace
from negative_corpus import (
    NEGATIVES,
    SEEDS,
    TAMPER_BASE,
    TAMPERED,
    at_path,
    failing_sections,
    use_adversarial_families,
)

GOLDEN = Path(__file__).parent / "golden"


def assert_writer_matches_reference(cert) -> str:
    """The certificate's text, checked against the reference trees."""
    text = cert.to_text()
    assert text == canonical_json(certificate_jsonable(cert))
    assert cert.scenario.to_jsonable() == scenario_jsonable(cert.scenario)
    for name in cert.scenario.names + cert.pipeline.refined:
        assert name.to_jsonable() == name_jsonable(name)
    for approx in cert.approximations:
        assert approx.to_jsonable() == approximation_jsonable(approx)
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


def test_the_writer_dumps_only_the_poset_recipe(monkeypatch):
    # every other section goes through the memo, so `canonical_json` sees
    # the recipe alone
    cert = run_preservation(fixture_cohen_pair(mode="menger"))
    dumped = []

    def recorded(obj):
        dumped.append(obj)
        return canonical_json(obj)

    monkeypatch.setattr(preservation, "canonical_json", recorded)
    assert cert.to_text() == canonical_json(certificate_jsonable(cert))
    assert dumped == [cert.scenario.poset]


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
    use_adversarial_families(monkeypatch)
    cert = run_preservation(negative_scenario())
    assert cert.verdict == "negative"
    assert any(c.counterexample is not None for c in cert.approximation_certificates)
    assert any(c.counterexample is not None for c in cert.pipeline.certificates)
    assert any(row.covering is None for row in cert.pipeline.atom_table)
    text = assert_writer_matches_reference(cert)
    assert '"level":null,' in text and '"set":null}' in text
    assert preserve_then_verify(tmp_path, negative_scenario()) == (3, 0, text + "\n")


def test_the_natural_negatives_are_the_corpus(monkeypatch):
    use_adversarial_families(monkeypatch)
    found = {}
    for seed in SEEDS:
        for mode in MODES:
            scenario = generate_scenario(seed, mode)
            cert = run_preservation(scenario)
            if cert.verdict == "negative":
                found[seed, mode] = scenario.poset["kind"], failing_sections(cert)
            else:
                assert failing_sections(cert) == (), (seed, mode)
    assert found == NEGATIVES


@pytest.mark.parametrize("seed,mode", sorted(NEGATIVES))
def test_natural_negative_round_trip(seed, mode, tmp_path, monkeypatch):
    use_adversarial_families(monkeypatch)
    scenario = generate_scenario(seed, mode)
    cert = run_preservation(scenario)
    assert cert.verdict == "negative"
    assert failing_sections(cert) == NEGATIVES[seed, mode][1]
    assert all(c.refine_counterexample is None for c in cert.pipeline.certificates)
    text = assert_writer_matches_reference(cert)
    # the writer's null branches: a counterexample, and a row no set covers
    assert '"counterexample":{"condition":' in text
    assert ('"level":null,' in text) == ('"set":null}' in text) == (not cert.pipeline.union_covers)
    assert preserve_then_verify(tmp_path, scenario) == (3, 0, text + "\n")


# -- one witness table per level ------------------------------------------------
#
# `run_preservation` asks one table per level for the runs of both
# certificates.  Built standalone, each certificate gets a fresh table, so
# nothing is shared; the texts must not change.  In selective-screenability
# mode a ground set need not be a cover piece, so the refinement asks the
# table for runs the approximation never did.
SHARED_TABLE_SCENARIOS = {
    "cohen-pair": fixture_cohen_pair,
    "measure-pair": fixture_measure_pair,
    "screenability-8": lambda: generate_scenario(8, "selective-screenability"),
    "screenability-146": lambda: generate_scenario(146, "selective-screenability"),
}


@pytest.mark.parametrize("label", sorted(SHARED_TABLE_SCENARIOS))
def test_shared_witness_table_changes_no_certificate(label):
    scenario = SHARED_TABLE_SCENARIOS[label]()
    cert = run_preservation(scenario)
    sections = json.loads(cert.to_text())
    bundle = preservation.build_bundle(scenario.poset)
    space = FiniteSpace(scenario.points, scenario.base)
    for n, name in enumerate(scenario.names):
        check_cover_name(bundle.poset, space, name)
        approx_cert = check_approximation(
            WitnessTable(bundle.poset, bundle.strat, n, name), cert.approximations[n].cover)
        assert approx_cert.to_text(TextMemo()) == canonical_json(
            sections["approximation_certificates"][n])
        refined, refine_cert, _ = refine_name(
            WitnessTable(bundle.poset, bundle.strat, n, name), cert.ground_families[n])
        assert refine_cert.to_text(TextMemo()) == canonical_json(
            sections["refinement_certificates"][n])
        assert refined == cert.pipeline.refined[n]


def test_a_ground_set_outside_the_cover_gets_its_own_run():
    cert = run_preservation(generate_scenario(8, "selective-screenability"))
    assert frozenset({"y"}) in cert.ground_families[4]
    assert frozenset({"y"}) not in cert.approximations[4].cover
    assert (("y",), "", "") in cert.pipeline.certificates[4].triples


@pytest.mark.parametrize("mode", MODES)
def test_every_shared_run_is_the_density_oracles(mode):
    """Each run in both certificates of a level, read from the level's one
    table, lists for each level condition p the canonically least r <= p at
    which the density oracle says the named cover contains the set, and
    stops exactly at the first p without one."""
    for seed in range(40):
        scenario = generate_scenario(seed, mode)
        cert = run_preservation(scenario)
        poset = preservation.build_bundle(scenario.poset).poset
        for n, name in enumerate(scenario.names):
            for witnessed in (cert.approximation_certificates[n], cert.pipeline.certificates[n]):
                for h, run in witnessed.runs:
                    least = [min((r for r in poset.down(p) if forces_dense(poset, r, name, h)),
                                 key=poset.sort_key, default=None)
                             for p in witnessed.conditions]
                    stop = least.index(None) if None in least else len(least)
                    assert run == tuple(least[:stop]), (seed, n, sorted(h))


class RecordedTable(WitnessTable):
    """A witness table that lists every set its run was asked for."""

    __slots__ = ("asked",)

    def __init__(self, *args):
        super().__init__(*args)
        self.asked = []

    def run(self, h):
        self.asked.append(h)
        return super().run(h)


def reference_run(table: WitnessTable, h: frozenset) -> tuple:
    """Per level condition p, the least position in `down_mask[p]` and the
    forcing mask, up to the first condition without one."""
    poset, forcing = table.poset, table.forcing(h)
    run = []
    for p in table.conditions:
        hits = [r for r in poset.down(p) if forcing >> poset.sort_key(r) & 1]
        if not hits:
            break
        run.append(min(hits, key=poset.sort_key))
    return tuple(run)


def test_one_search_per_distinct_forcing_mask(monkeypatch):
    tables = []

    def recorded(*args):
        tables.append(RecordedTable(*args))
        return tables[-1]

    monkeypatch.setattr(preservation, "WitnessTable", recorded)
    shared = 0
    for label in sorted(SHARED_TABLE_SCENARIOS):
        tables.clear()
        scenario = SHARED_TABLE_SCENARIOS[label]()
        run_preservation(scenario)
        assert len(tables) == len(scenario.names)
        for table in tables:
            asked = set(table.asked)
            runs = {}
            for h in asked:
                run = runs.setdefault(table.forcing(h), table.run(h))
                assert table.run(h) is run, (label, table.level, sorted(h))
                assert run == reference_run(table, h), (label, table.level, sorted(h))
            shared += len(asked) - len(runs)
    assert shared  # some sets did share a mask, and so a run


# -- the writer on hand-built runs ----------------------------------------------
#
# One level's conditions with a hostile identifier among them, and runs of
# length 0, 1, 2 (partial) and 3 (full), the full one shared by two sets.
# A second level with other conditions reuses the full run's tuple, so a
# skeleton must be keyed by the conditions as well as the run.
HAND_CONDITIONS = ("p", TOP, "q")
FULL = ("r", LEFT, "s")
HAND_RUNS = (
    (frozenset({X}), ()),
    (frozenset({"a"}), ("r",)),
    (frozenset({"a", Y}), ("r", ASTRAL)),
    (frozenset({"b"}), FULL),
    (frozenset({"c", V}), FULL),
)


def hand_certificates():
    partial = (("a", Y), "q")
    yield ApproxCertificate(3, HAND_CONDITIONS, HAND_RUNS, partial)
    yield RefineCertificate(3, HAND_CONDITIONS, HAND_RUNS, partial, LOW)
    yield ApproxCertificate(4, ("s", "t", RIGHT), ((frozenset({"b"}), FULL),), None)
    yield RefineCertificate(4, ("s", "t", RIGHT), ((frozenset({"b"}), FULL),), None, None)
    yield ApproxCertificate(5, HAND_CONDITIONS, ((frozenset({"a"}), ()),), ((X,), "p"))
    yield RefineCertificate(5, (), (), None, None)


def test_writer_on_short_partial_and_shared_runs():
    memo = TextMemo()  # one memo for all, as a certificate's sections share one
    for cert in hand_certificates():
        reference = (approx_certificate_jsonable if isinstance(cert, ApproxCertificate)
                     else refine_certificate_jsonable)(cert)
        text = cert.to_text(memo)
        assert text == canonical_json(reference) == cert.to_text(TextMemo())
        assert len(reference["triples"]) == sum(len(run) for _, run in cert.runs)


# -- patched skeletons ------------------------------------------------------------
#
# Every skeleton is a slice of the identity skeleton of the level's
# conditions with the entries after a differing witness rewritten.  These
# runs differ at the first, a middle and the last index, at all of them, or
# nowhere; some stop short.  One run is the conditions tuple itself, one
# only equal to it.
PATCH_CONDITIONS = ("p", TOP, "q", LOW, "s")
PATCH_RUNS = (
    (frozenset({"a"}), PATCH_CONDITIONS),
    (frozenset({"b"}), tuple(list(PATCH_CONDITIONS))),
    (frozenset({X}), ("r", TOP, "q", LOW, "s")),
    (frozenset({"c"}), ("p", TOP, ASTRAL, LOW, "s")),
    (frozenset({"d"}), ("p", TOP, "q", LOW, RIGHT)),
    (frozenset({"e", Y}), ("r", LEFT, ASTRAL, RIGHT, "t")),
    (frozenset({"f"}), ("p", TOP)),
    (frozenset({"g"}), ("p", ASTRAL, "q")),
    (frozenset({"h"}), ("p", TOP, RIGHT)),
    (frozenset({V}), (LEFT,)),
    (frozenset({"i"}), ()),
)


def patch_certificates(level: int, conditions=PATCH_CONDITIONS):
    yield ApproxCertificate(level, conditions, PATCH_RUNS, (("f",), "q"))
    yield RefineCertificate(level, conditions, PATCH_RUNS, (("f",), "q"), None)


def reference_of(cert) -> dict:
    return (approx_certificate_jsonable if isinstance(cert, ApproxCertificate)
            else refine_certificate_jsonable)(cert)


def test_writer_on_runs_patched_everywhere():
    table = TextTable(PATCH_CONDITIONS)
    memo = TextMemo(table)
    for cert in patch_certificates(2):
        text = canonical_json(reference_of(cert))
        assert cert.to_text(memo) == text
        assert cert.to_text(TextMemo()) == text  # a record on its own, with a fresh table
        assert cert.to_jsonable() == reference_of(cert)
    # the run that is the conditions tuple takes the identity skeleton as it is
    assert memo.skeletons[PATCH_CONDITIONS][PATCH_CONDITIONS] is table.identity[PATCH_CONDITIONS]
    assert list(table.identity) == [PATCH_CONDITIONS]


def test_levels_that_share_a_conditions_tuple_share_one_identity_skeleton():
    table = TextTable(PATCH_CONDITIONS)
    memo = TextMemo(table)
    for level in (5, 6, 7):
        for cert in patch_certificates(level):
            assert cert.to_text(memo) == canonical_json(reference_of(cert))
    assert len(table.identity) == 1
    # a generated certificate's levels at and above the floor share one tuple
    cert = run_preservation(generate_scenario(10, "rothberger"))
    upper = [c.conditions for c in cert.approximation_certificates[cert.floor:]]
    assert len(upper) > 1 and all(conditions is upper[0] for conditions in upper)
    assert_writer_matches_reference(cert)
    strat = build_bundle(cert.scenario.poset).strat
    assert set(cert.text_table.identity) <= set(strat.ordered)


def stronger_first_scenario(mode: str) -> Scenario:
    """A scenario over an explicit poset that lists stronger conditions
    first, so only its atoms are self-least and its runs are searched."""
    return Scenario.from_jsonable({
        "poset": _LISTED_STRONGER_FIRST,
        "space": {"points": ["x", "y"], "base": [["x"], ["y"], ["x", "y"]]},
        "names": [
            [{"condition": "t", "set": ["x", "y"]}],
            [{"condition": "m", "set": ["x"]}, {"condition": "m", "set": ["y"]},
             {"condition": "a2", "set": ["x", "y"]}],
            [{"condition": "a0", "set": ["x"]}, {"condition": "a0", "set": ["y"]},
             {"condition": "a1", "set": ["x", "y"]}, {"condition": "a2", "set": ["x"]},
             {"condition": "a2", "set": ["y"]}],
        ],
        "property": mode,
    })


@pytest.mark.parametrize("mode", MODES)
def test_writer_on_a_poset_with_a_strict_self_least_mask(mode, tmp_path):
    scenario = stronger_first_scenario(mode)
    poset = build_bundle(scenario.poset).poset
    assert poset.self_least == 0b01011  # the atoms a0, a1 and a2
    cert = run_preservation(scenario)
    witnessed = cert.approximation_certificates + cert.pipeline.certificates
    assert any(run != c.conditions[:len(run)] for c in witnessed for _, run in c.runs)
    text = assert_writer_matches_reference(cert)
    sections = json.loads(text)
    for key, certs in (("approximation_certificates", cert.approximation_certificates),
                       ("refinement_certificates", cert.pipeline.certificates)):
        for n, level_cert in enumerate(certs):
            assert level_cert.to_text(TextMemo()) == canonical_json(sections[key][n])
    assert preserve_then_verify(tmp_path, scenario) == (0, 0, text + "\n")


def test_text_tables_of_two_posets_past_bundle_evictions(monkeypatch):
    monkeypatch.setattr(preservation, "_SHARED", {})
    goldens = {label: (GOLDEN / f"{label}.cert.json").read_text()
               for label in ("cohen-pair", "measure-pair")}
    made = []
    for _ in range(3):
        for label, fixture in (("cohen-pair", fixture_cohen_pair), ("measure-pair", fixture_measure_pair)):
            cert = run_preservation(fixture())
            assert cert.text_table is build_bundle(cert.scenario.poset).poset.text_table
            assert all(cert.text_table is not old.text_table for _, old in made)
            made.append((label, cert))
            assert assert_writer_matches_reference(cert) + "\n" == goldens[label]
        for i in range(MAX_SHARED):  # evicts both bundles
            build_bundle({"kind": "cohen", "indices": [i + 2]})

    def no_lookup(*args):
        raise AssertionError("the writer looked a bundle up")

    monkeypatch.setattr(preservation, "build_bundle", no_lookup)
    for label, cert in made:  # each keeps the table of its own poset
        assert cert.to_text() + "\n" == goldens[label]


# -- tampered certificates --------------------------------------------------------


@pytest.mark.parametrize("label", sorted(TAMPERED))
def test_verify_names_the_section_of_a_tampered_certificate(label, tmp_path, capsys):
    section, path, edit = TAMPERED[label]
    text = run_preservation(generate_scenario(*TAMPER_BASE)).to_text()
    base, data = json.loads(text), json.loads(text)
    assert base["verdict"] == "positive"
    edit(data)
    at_path(data, path)  # the recorded path names a spot of the tampered file
    if label == "changed-patched-witness":
        original = at_path(base, path)
        assert original["witness"] != original["condition"]
    cert_file = tmp_path / "tampered.cert.json"
    cert_file.write_text(canonical_json(data) + "\n")
    assert main(["verify", "--cert", str(cert_file)]) == 3
    assert capsys.readouterr().out == f"replay: MISMATCH\nmismatching sections: {[section]}\n"
