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
The verdict is positive only when every certificate along the way is.
The certificate is canonical JSON: replaying the embedded scenario must
reproduce it byte for byte.  `PreservationCertificate.to_text` is its one
writer; it writes the scenario, names and witness triples straight to text
through one `TextMemo`, and the few small sections through
`canonical_json`.  Its `to_jsonable` parses that text.
`replay_certificate` decides a canonical file from its embedded scenario
alone; any other text is parsed whole and compared with the fresh
certificate section by section.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields
from pathlib import Path

from .bounds import DEFAULT_LIMITS, Limits
from .canon import (
    BOOL_TEXT,
    TextMemo,
    array_text,
    canonical_json,
    check_shape,
    object_text,
    parse_json,
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
    approximate,
    check_approximation,
    derive_point_names,
    make_cover_name,
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


@dataclass(frozen=True)
class PosetBundle:
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


@dataclass(frozen=True)
class Scenario:
    poset: dict  # a recipe that passed check_recipe
    points: tuple[str, ...]
    base: tuple[frozenset[str], ...]
    names: tuple[Name, ...]
    mode: str

    def to_text(self, memo: TextMemo) -> str:
        """Canonical JSON text, the one layout of a scenario payload."""
        sets = memo.sets
        return object_text({
            "poset": canonical_json(self.poset),
            "space": object_text({
                "points": sets[self.points],
                "base": array_text([sets[b] for b in self.base]),
            }),
            "names": array_text([name.to_text(memo) for name in self.names]),
            "property": memo.quoted[self.mode],
        })

    def to_jsonable(self) -> dict:
        return json.loads(self.to_text(TextMemo()))

    @classmethod
    def from_jsonable(cls, data: dict, *, checked: bool = False) -> "Scenario":
        """Build from parsed JSON.  SCENARIO_SHAPE covers every name, so the
        names are built directly; `checked` says the payload has already
        passed it (as a `load_instance` payload has), so each input is
        shape-checked once."""
        if not checked:
            check_shape(data, SCENARIO_SHAPE, "scenario")
        space = data["space"]
        return cls(
            data["poset"],
            tuple(sorted(space["points"])),
            tuple(frozenset(b) for b in space["base"]),
            tuple(Name(tuple((e["condition"], frozenset(e["set"])) for e in entry))
                  for entry in data["names"]),
            data["property"],
        )


def _selection_jsonable(mode: str, solution) -> list:
    if mode == "rothberger":
        return [sorted(u) for u in solution]
    return [[sorted(u) for u in fam] for fam in solution]


@dataclass(frozen=True)
class PreservationCertificate:
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

    def to_text(self) -> str:
        """The certificate as canonical JSON, without a trailing newline.

        The scenario, the names and the witness triples, nearly all of the
        bytes, are written straight to text through one memo; the small
        sections go through `canonical_json`.
        """
        memo = TextMemo()
        pipeline = self.pipeline
        return object_text({
            "format_version": str(FORMAT_VERSION),
            "kind": memo.quoted["preservation-certificate"],
            "scenario": self.scenario.to_text(memo),
            "floor": str(self.floor),
            "family": memo.quoted[self.family_label],
            "approximations": canonical_json([a.to_jsonable() for a in self.approximations]),
            "approximation_certificates": array_text(
                [c.to_text(memo) for c in self.approximation_certificates]),
            "selection": canonical_json({
                "mode": self.scenario.mode,
                "checked": self.selection_checked,
                "solution": _selection_jsonable(self.scenario.mode, self.selection),
            }),
            "ground_families": canonical_json(
                [[sorted(h) for h in fam] for fam in self.ground_families]),
            "refined_names": array_text([w.to_text(memo) for w in pipeline.refined]),
            "refinement_certificates": array_text([c.to_text(memo) for c in pipeline.certificates]),
            "subfamily_everywhere": canonical_json(list(pipeline.subfamily_everywhere)),
            "union_covers": BOOL_TEXT[pipeline.union_covers],
            "atom_table": canonical_json([row.to_jsonable() for row in pipeline.atom_table]),
            "verdict": memo.quoted[self.verdict],
        })

    def to_jsonable(self) -> dict:
        return json.loads(self.to_text())


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
    if scenario.mode not in MODES:
        raise DataError(f"unknown property {scenario.mode!r}; expected one of {MODES}")
    if not scenario.names:
        raise DataError("scenario needs at least one name")
    names = [make_cover_name(bundle.poset, space, name.pairs) for name in scenario.names]
    floor = bundle.strat.stabilization_index
    if floor >= len(names):
        raise ScenarioError(
            f"stabilization floor {floor} leaves no usable level among {len(names)} names")
    approximations = []
    approx_certs = []
    for n, name in enumerate(names):
        point_names = derive_point_names(bundle.poset, space, name)
        approx = approximate(bundle.poset, point_names, n, bundle.family)
        approximations.append(approx)
        approx_certs.append(check_approximation(bundle.poset, bundle.strat, name, approx))
    problem = make_selection_problem(
        space, [a.cover for a in approximations], floor, scenario.mode)
    solution = solve_selection(problem)
    if solution is None:
        raise ScenarioError("selection problem has no solution at or above the floor")
    checked, _ = check_selection(problem, solution)
    if scenario.mode == "rothberger":
        ground_families = tuple((u,) for u in solution)
    else:
        ground_families = tuple(tuple(fam) for fam in solution)
    pipeline = run_pipeline(bundle.poset, bundle.strat, space, names, ground_families)
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
    )


@dataclass(frozen=True)
class ReplayReport:
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
    is decided from its scenario alone: the scenario is decoded where the
    writer puts it and replayed, and byte equality with the fresh text
    proves the kind, the version and the scenario.  Any other text is
    parsed whole; its kind, version and scenario are checked, it is dumped
    and compared with the fresh text, and on a mismatch the fresh text is
    parsed to list the differing top level sections by key.  The replay of
    the first step, or its error, is reused when the parsed scenario is the
    decoded one, so the pipeline runs at most once for a file.
    """
    scenario = fresh_text = failure = None
    decoded = _embedded_scenario(text)
    if decoded is not None:
        try:
            scenario = Scenario.from_jsonable(decoded)
            fresh_text = run_preservation(scenario, limits).to_text()
        except EndowlabError as exc:
            failure = exc
        if fresh_text is not None and text == fresh_text + "\n":
            return ReplayReport(True, ())
    data = parse_json(text, path)
    if not isinstance(data, dict) or data.get("kind") != "preservation-certificate":
        raise DataError("not a preservation certificate")
    version = data.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise DataError(f"unsupported certificate format version {version!r}")
    if "scenario" not in data:
        raise DataError("certificate needs an embedded scenario")
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
    for f in fields(Limits):
        if getattr(bounds, f.name) > getattr(limits, f.name):
            raise ResourceError(
                f"generation bound {f.name}={getattr(bounds, f.name)} exceeds the "
                f"resource limit {getattr(limits, f.name)}")
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
    unique = []
    seen = set()
    for s in sets:
        if s not in seen:
            seen.add(s)
            unique.append(s)
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
    if mode not in MODES:
        raise DataError(f"unknown property {mode!r}; expected one of {MODES}")
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
        names.append(Name(tuple(pairs)))
    return Scenario(recipe, points, base, tuple(names), mode)
