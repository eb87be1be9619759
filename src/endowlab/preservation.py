"""End to end preservation runs with replayable certificates.

A scenario packages a poset recipe, a finite space, one cover name per
level, and a selection mode.  `build_bundle` materializes a recipe of any
kind: its poset, stratification and default family are built once per
process for each (recipe, limits) and shared read-only by every later run,
replay and command.  The runner approximates every name on the ground,
solves the selection problem with the floor at the stabilization index,
and hands the selected ground families to `names.run_pipeline`, which
refines every name and, in one closing pass over the atoms, tabulates for
each atom and point the refined set covering it at or above the floor.
Each level has one `names.WitnessTable`, built first from its name and
taken by every step of the level: the approximation reads its value
reaches, the approximation check the runs of its cover pieces, and the
refinement those of its ground sets; no level tables a name or searches a
set twice.
The verdict is positive only when every certificate along the way is.
The certificate is canonical JSON: replaying the embedded scenario must
reproduce it byte for byte.  `PreservationCertificate.to_text` is its one
writer: every section appends its fragments, keys in sorted order, to one
list through one `TextMemo`, each triple from its memoized fragments and
only the poset recipe through `canonical_json`, and the list is joined
once.  The memo starts from the poset's text table (`Poset.text_table`),
which `run_preservation` hands over in the certificate, so the writer
looks no bundle up and every certificate over a poset shares its
condition literals, pair heads and identity skeletons.  The refined
names are written from each level's selector grid, which rides on its
refinement certificate (`RefineCertificate.refined_text`), not pair by
pair.  `replay_certificate` decides
a canonical file from its embedded scenario alone, comparing the file's
prefix with the fresh text and allowing one final newline after it, rather
than building the fresh text plus a newline; any other text is parsed
whole and compared with the fresh certificate section by section.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import NamedTuple

from .bounds import DEFAULT_LIMITS, Limits
from .canon import (
    BOOL_TEXT,
    TextMemo,
    TextTable,
    canonical_json,
    check_shape,
    joined,
    parse_json,
    write_array,
    write_records,
)
from .cohen import CohenPoset
from .endowment import (
    EndowmentFamily,
    cohen_dow_family,
    maximal_antichain_family,
    measure_total_family,
)
from .errors import DataError, EndowlabError, ResourceError, ScenarioError
from .measure import MeasurePoset
from .names import (
    Approximation,
    ApproxCertificate,
    PipelineResult,
    WitnessTable,
    approximate,
    check_approximation,
    check_cover_name,
    run_pipeline,
)
from .poset import (
    NAME_SHAPE,
    POSET_SHAPE,
    Name,
    Poset,
    Stratification,
    make_stratification,
)
from .selection import MODES, check_selection, make_selection_problem, solve_selection
from .topology import SPACE_SHAPE, FiniteSpace

FORMAT_VERSION = 1

RECIPE_SHAPES = {
    "cohen": {"kind": str, "indices": [int]},
    "measure": {"kind": str, "k": int},
    "explicit": {"kind": str, **POSET_SHAPE},
}
POSET_KINDS = tuple(RECIPE_SHAPES)


def check_recipe(data, where: str) -> None:
    """Shape check for a poset recipe, whose keys depend on its kind."""
    if type(data) is not dict or data.get("kind") not in POSET_KINDS:
        raise DataError(f"{where} must be an object with a kind in {list(POSET_KINDS)}")
    check_shape(data, RECIPE_SHAPES[data["kind"]], where)


SCENARIO_SHAPE = {
    "poset": check_recipe,
    "space": SPACE_SHAPE,
    "names": [NAME_SHAPE],
    "property": frozenset(MODES),
}


class PosetBundle(NamedTuple):
    poset: Poset
    strat: Stratification
    family: EndowmentFamily
    structure: CohenPoset | MeasurePoset | None  # None for an explicit poset


# Bundles by (canonical recipe text, limits), least recently used first.  The
# text keeps `true` apart from `1`, which compare equal as Python values.
_SHARED: dict[tuple[str, Limits], PosetBundle] = {}
MAX_SHARED = 8


def build_bundle(recipe: dict, limits: Limits = DEFAULT_LIMITS) -> PosetBundle:
    """Materialize a checked poset recipe: its poset, stratification and
    default family, with the `CohenPoset` or `MeasurePoset` it came from.

    This is the one place a recipe becomes a structure.  Each bundle is
    built at most once per process for each (recipe, limits) pair, keyed by
    the recipe's canonical JSON text and the limits, and shared read-only
    with every later caller.  A hit moves its entry to the end, so the
    least recently used of `MAX_SHARED` entries makes way for a new one.  A
    build that raises stores nothing, so its error comes back on every call.
    """
    key = canonical_json(recipe), limits
    bundle = _SHARED.pop(key, None)
    if bundle is None:
        kind = recipe["kind"]
        if kind == "explicit":
            elements = recipe["elements"]
            if len(elements) > limits.max_poset:
                raise ResourceError(
                    f"explicit posets capped at {limits.max_poset} conditions, got {len(elements)}")
            poset = Poset.from_pairs(elements, recipe["leq"])
            bundle = PosetBundle(poset, make_stratification(poset, [poset.elements]),
                                 maximal_antichain_family(poset), None)
        elif kind == "cohen":
            cohen = CohenPoset(recipe["indices"], limits)
            strat = cohen.stratification()
            bundle = PosetBundle(cohen.poset, strat, cohen_dow_family(cohen, strat), cohen)
        elif kind == "measure":
            algebra = MeasurePoset(recipe["k"], limits)
            bundle = PosetBundle(algebra.poset, algebra.stratification(),
                                 measure_total_family(algebra), algebra)
        else:
            raise DataError(f"unknown built-in poset kind {kind!r}")
        if len(_SHARED) >= MAX_SHARED:
            del _SHARED[next(iter(_SHARED))]
    _SHARED[key] = bundle
    return bundle


class Scenario(NamedTuple):
    poset: dict  # a recipe that passed check_recipe
    points: tuple[str, ...]
    base: tuple[frozenset[str], ...]
    names: tuple[Name, ...]
    mode: str

    def write(self, out: list[str], memo: TextMemo) -> None:
        """Append the canonical JSON text, the one layout of a scenario payload."""
        sets = memo.sets
        out.append('{"names":')
        write_records(out, self.names, memo)
        out.append(f',"poset":{canonical_json(self.poset)},"property":{memo.quoted[self.mode]},'
                   '"space":{"base":')
        write_array(out, [sets[b] for b in self.base])
        out.append(f',"points":{sets[self.points]}}}}}')

    def to_text(self, memo: TextMemo) -> str:
        return joined(self.write, memo)

    def to_jsonable(self) -> dict:
        return json.loads(self.to_text(TextMemo()))

    @classmethod
    def from_jsonable(cls, data: dict) -> "Scenario":
        """Build from a payload that has passed SCENARIO_SHAPE, as every
        `load_instance` payload has.  The shape covers every name; this is
        where scenario names enter, so each is built by `Name.canonical`."""
        space = data["space"]
        return cls(
            data["poset"],
            tuple(sorted(space["points"])),
            tuple(frozenset(b) for b in space["base"]),
            tuple(Name.canonical((e["condition"], e["set"]) for e in entry) for entry in data["names"]),
            data["property"],
        )


class PreservationCertificate(NamedTuple):
    scenario: Scenario
    floor: int
    family_label: str
    approximations: tuple[Approximation, ...]
    approximation_certificates: tuple[ApproxCertificate, ...]
    selection: tuple
    selection_checked: bool
    ground_families: tuple[tuple[frozenset[str], ...], ...]
    pipeline: PipelineResult
    verdict: str
    text_table: TextTable  # the poset's, which the writer reads; not a section

    def to_text(self) -> str:
        """The certificate as canonical JSON, without a trailing newline.

        Every section appends its fragments to one list, with one memo over
        the poset's text table, and the list is joined once; only the
        scenario's poset recipe, a plain dict, goes through `canonical_json`.
        """
        memo = TextMemo(self.text_table)
        quoted = memo.quoted
        pipeline = self.pipeline
        out = ['{"approximation_certificates":']
        write_records(out, self.approximation_certificates, memo)
        out.append(',"approximations":')
        write_records(out, self.approximations, memo)
        out.append(',"atom_table":')
        write_atom_table(out, pipeline.atom_table, memo)
        out.append(f',"family":{quoted[self.family_label]},"floor":{self.floor},'
                   f'"format_version":{FORMAT_VERSION},"ground_families":')
        write_families(out, self.ground_families, memo)
        out.append(',"kind":"preservation-certificate","refined_names":')
        write_array(out, [cert.refined_text(memo) for cert in pipeline.certificates])
        out.append(',"refinement_certificates":')
        write_records(out, pipeline.certificates, memo)
        out.append(',"scenario":')
        self.scenario.write(out, memo)
        out.append(',"selection":')
        self._write_selection(out, memo)
        out.append(',"subfamily_everywhere":')
        write_array(out, [BOOL_TEXT[b] for b in pipeline.subfamily_everywhere])
        out.append(f',"union_covers":{BOOL_TEXT[pipeline.union_covers]},'
                   f'"verdict":{quoted[self.verdict]}}}')
        return "".join(out)

    def _write_selection(self, out: list[str], memo: TextMemo) -> None:
        """A Rothberger solution is one set per level; the other modes pick
        one family of sets per level."""
        mode = self.scenario.mode
        out.append(f'{{"checked":{BOOL_TEXT[self.selection_checked]},'
                   f'"mode":{memo.quoted[mode]},"solution":')
        if mode == "rothberger":
            write_array(out, [memo.sets[u] for u in self.selection])
        else:
            write_families(out, self.selection, memo)
        out.append("}")


def write_families(out: list[str], families, memo: TextMemo) -> None:
    """Append a JSON array of families, each an array of sets."""
    sets = memo.sets
    write_array(out, [f'[{",".join([sets[h] for h in fam])}]' for fam in families])


def write_atom_table(out: list[str], rows, memo: TextMemo) -> None:
    """Append the atom table: one {"atom", "level", "point", "set"} object
    per row, null where no refined set covers the point."""
    quoted, sets = memo.quoted, memo.sets
    write_array(out, [
        f'{{"atom":{quoted[row.atom]},"level":{"null" if row.level is None else row.level},'
        f'"point":{quoted[row.point]},'
        f'"set":{"null" if row.covering is None else sets[row.covering]}}}'
        for row in rows])


def run_preservation(scenario: Scenario, limits: Limits = DEFAULT_LIMITS) -> PreservationCertificate:
    """Run the full preservation argument and certify every step.

    Raises ScenarioError when the name sequence is too short for the
    stabilization floor or the selection problem has no solution; malformed
    scenarios raise DataError, and more names than `max_levels` raise
    ResourceError before any poset is built.
    """
    if len(scenario.names) > limits.max_levels:
        raise ResourceError(
            f"scenario names capped at max_levels={limits.max_levels}, got {len(scenario.names)}")
    bundle = build_bundle(scenario.poset, limits)
    space = FiniteSpace(scenario.points, scenario.base, limits)
    if not scenario.names:
        raise DataError("scenario needs at least one name")
    for name in scenario.names:
        check_cover_name(bundle.poset, space, name)
    floor = bundle.strat.stabilization_index
    if floor >= len(scenario.names):
        raise ScenarioError(
            f"stabilization floor {floor} leaves no usable level among {len(scenario.names)} names")
    approximations = []
    approx_certs = []
    tables = []
    for n, name in enumerate(scenario.names):
        table = WitnessTable(bundle.poset, bundle.strat, n, name)
        approx = approximate(table, space, bundle.family)
        approximations.append(approx)
        approx_certs.append(check_approximation(table, approx.cover))
        tables.append(table)
    problem = make_selection_problem(
        space, [a.cover for a in approximations], floor, scenario.mode)
    solution = solve_selection(problem)
    if solution is None:
        raise ScenarioError(
            f"selection problem has no solution at or above the floor: property {scenario.mode}, "
            f"floor {floor}, usable levels {list(range(floor, len(scenario.names)))}, "
            f"points {sorted(space.points)}")
    checked, _ = check_selection(problem, solution)
    if scenario.mode == "rothberger":
        ground_families = tuple((u,) for u in solution)
    else:
        ground_families = tuple(tuple(fam) for fam in solution)
    pipeline = run_pipeline(tables, ground_families, space, floor)
    positive = all(c.positive for c in approx_certs) and checked and pipeline.positive
    return PreservationCertificate(
        scenario,
        floor,
        bundle.family.label,
        tuple(approximations),
        tuple(approx_certs),
        tuple(solution),
        checked,
        ground_families,
        pipeline,
        "positive" if positive else "negative",
        bundle.poset.text_table,
    )


class ReplayReport(NamedTuple):
    ok: bool
    mismatches: tuple[str, ...]

    def to_jsonable(self) -> dict:
        return {"ok": self.ok, "mismatches": list(self.mismatches)}


# In the canonical layout only `selection`, `subfamily_everywhere`,
# `union_covers` and `verdict` sort after the scenario, and none of them can
# hold this key: an identifier's quotes are escaped in its string literal.
_SCENARIO_KEY = '"scenario":'
_DECODER = json.JSONDecoder()


def _embedded_scenario(text: str):
    """The JSON value after the last scenario key of `text`, where the
    canonical layout puts the scenario, or None when there is none."""
    start = text.rfind(_SCENARIO_KEY)
    if start < 0:
        return None
    try:
        return _DECODER.raw_decode(text, start + len(_SCENARIO_KEY))[0]
    except (ValueError, RecursionError):
        return None


def replay_certificate(
    text: str, limits: Limits = DEFAULT_LIMITS, path: str | Path = "certificate",
) -> ReplayReport:
    """Re-run the embedded scenario of the certificate `text`, read from
    `path`, and compare byte for byte.

    A canonical file, the fresh certificate exactly as `preserve` writes it,
    with or without its final newline, is decided from its scenario alone:
    the scenario is decoded where the writer puts it and replayed, and byte
    equality with the fresh text proves the kind, the version and the
    scenario.  Any other text is parsed whole; its kind, version and
    scenario are checked, it is dumped and compared with the fresh text,
    and on a mismatch the fresh text is parsed to list the differing top
    level sections by key.  The replay of the first step, or its error, is
    reused when the parsed scenario is the decoded one, so the pipeline
    runs at most once for a file.
    """
    scenario = fresh_text = failure = None
    decoded = _embedded_scenario(text)
    if decoded is not None:
        try:
            check_shape(decoded, SCENARIO_SHAPE, "scenario")
            scenario = Scenario.from_jsonable(decoded)
            fresh_text = run_preservation(scenario, limits).to_text()
        except EndowlabError as exc:
            failure = exc
        if fresh_text is not None and text.startswith(fresh_text) and text[len(fresh_text):] in ("", "\n"):
            return ReplayReport(True, ())
    data = parse_json(text, path)
    if not isinstance(data, dict) or data.get("kind") != "preservation-certificate":
        raise DataError("not a preservation certificate")
    version = data.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise DataError(f"unsupported certificate format version {version!r}")
    if "scenario" not in data:
        raise DataError("certificate needs an embedded scenario")
    check_shape(data["scenario"], SCENARIO_SHAPE, "scenario")
    parsed = Scenario.from_jsonable(data["scenario"])
    if parsed != scenario:
        fresh_text = run_preservation(parsed, limits).to_text()
    elif failure is not None:
        raise failure
    if fresh_text == canonical_json(data):
        return ReplayReport(True, ())
    fresh = json.loads(fresh_text)
    keys = sorted(set(fresh) | set(data))
    mismatches = tuple(
        key for key in keys
        if canonical_json(fresh.get(key)) != canonical_json(data.get(key))
    )
    return ReplayReport(False, mismatches)


# -- seeded scenario generation ----------------------------------------------

POINT_LETTERS = ("x", "y", "z", "u", "v", "w")


def _check_bounds(bounds: Limits, limits: Limits) -> None:
    """Reject generation bounds that no seed can meet: a bound above the
    resource limits, a space below two points, a subbase cap below one set
    per drawn point, or no poset kind to draw from."""
    for key, bound, limit in zip(Limits._fields, bounds, limits):
        if bound > limit:
            raise ResourceError(
                f"generation bound {key}={bound} exceeds the resource limit {limit}")
    if bounds.max_points < 2:
        raise DataError(
            f"generation bound max_points={bounds.max_points} is below 2, the smallest space drawn")
    # a drawn space has up to 3 points, and covering it can take one set per point
    if bounds.max_base < min(3, bounds.max_points):
        raise DataError(
            f"generation bound max_base={bounds.max_base} is below "
            f"{min(3, bounds.max_points)}, one subbase set per drawn point")
    if bounds.max_indices < 1 and bounds.max_k < 1 and bounds.max_poset < 3:
        raise DataError("generation bounds leave no poset kind available")


def _random_base(rng: random.Random, points: tuple[str, ...], cap: int) -> tuple[frozenset[str], ...]:
    sets: list[frozenset[str]] = []
    for _ in range(rng.randint(2, 4)):
        members = frozenset(x for x in points if rng.random() < 0.6)
        if members:
            sets.append(members)
    covered = frozenset().union(*sets) if sets else frozenset()
    for x in points:
        if x not in covered:
            extra = frozenset({x} | {y for y in points if rng.random() < 0.3})
            sets.append(extra)
            covered |= extra
    unique = list(dict.fromkeys(sets))
    if len(unique) > cap:
        # keep coverage first, then fill up to the cap
        kept: list[frozenset[str]] = []
        covered_now: set[str] = set()
        for s in unique:
            if not s <= covered_now:
                kept.append(s)
                covered_now |= s
        for s in unique:
            if len(kept) >= cap:
                break
            if s not in kept:
                kept.append(s)
        unique = kept[:cap]
    return tuple(unique)


def _random_explicit(rng: random.Random, cap: int) -> dict:
    size = rng.randint(3, min(10, cap))
    elements = [f"e{i}" for i in range(size)]
    pairs = []
    for j in range(size):
        for i in range(j):
            if rng.random() < 0.3:
                pairs.append([elements[j], elements[i]])
    return {"kind": "explicit", "elements": elements, "leq": pairs}


def generate_scenario(
    seed: int,
    mode: str | None = None,
    bounds: Limits = DEFAULT_LIMITS,
    limits: Limits = DEFAULT_LIMITS,
) -> Scenario:
    """Draw a scenario that provably satisfies the theorem hypotheses.

    The level count leaves headroom: at least the stabilization floor plus
    one level per point, which guarantees the selection step succeeds.  The
    same seed always yields the same scenario.
    """
    _check_bounds(bounds, limits)
    rng = random.Random(seed)
    if mode is None:
        mode = rng.choice(MODES)
    kinds = []
    if bounds.max_indices >= 1:
        kinds.append({"kind": "cohen", "indices": [0]})
    if bounds.max_indices >= 2:
        kinds.append({"kind": "cohen", "indices": [0, 1]})
    if bounds.max_k >= 1:
        kinds.append({"kind": "measure", "k": 1})
    if bounds.max_k >= 2:
        kinds.append({"kind": "measure", "k": 2})
    if bounds.max_poset >= 3:
        kinds.append(_random_explicit(rng, bounds.max_poset))
    recipe = rng.choice(kinds)
    bundle = build_bundle(recipe, limits)
    floor = bundle.strat.stabilization_index
    n_points = rng.randint(2, min(3, bounds.max_points))
    while floor + n_points > bounds.max_levels and n_points > 1:
        n_points -= 1
    if floor + n_points > bounds.max_levels:
        raise DataError("generation bounds leave no room for the headroom guarantee")
    points = POINT_LETTERS[:n_points]
    base = _random_base(rng, points, bounds.max_base)
    slack = bounds.max_levels - (floor + n_points)
    n_levels = floor + n_points + rng.randint(0, min(2, slack))
    names = []
    for _ in range(n_levels):
        antichain = sorted(
            bundle.poset.random_maximal_antichain(rng), key=bundle.poset.sort_key)
        pairs = []
        for q in antichain:
            for x in points:
                pairs.append((q, rng.choice([b for b in base if x in b])))
        if rng.random() < 0.5:
            extra_q = rng.choice(bundle.poset.elements)
            pairs.append((extra_q, rng.choice(base)))
        names.append(Name.canonical(pairs))
    return Scenario(recipe, points, base, tuple(names), mode)
