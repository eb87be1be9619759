"""Scenario inputs for the benchmark, built outside the program's generator.

`endowlab gen` never draws beyond Cohen D<=2 or measure k<=2, so the
limit-size scenarios are built here.  Every parameter sits at a default
resource limit of the program (`bounds.Limits`):

* Cohen D=5 (`max_indices`): 243 conditions, 32 atoms, stabilization
  floor 5.  Measure k=3 (`max_k`): 255 conditions, 8 atoms, floor 3.
* 8 levels (`max_levels`): one cover name per level.
* points = min(6, 8 - floor) (`max_points` is 6).  This is the headroom
  rule of the program's own generator: one level at or above the floor for
  every point, so each selection mode can pick one set per point and the
  verdict is `positive` by construction.  Cohen D=5 gets 3 points,
  measure k=3 gets 5.
* a subbase of at most 12 sets (`max_base`), drawn as random subsets with
  inclusion probability 1/2 so value sets differ in size.  Distinct value
  sets make distinct approximation pieces, which is what grows the Menger
  pool on the measure scenarios past the exact solver's limit of 12.
* one maximal antichain per level, drawn with
  `Poset.random_maximal_antichain`; every antichain member commits every
  point into a random subbase set containing it, which makes the name a
  valid cover name.

The same (kind, index) always yields the same scenario: the random stream
is seeded from a string, which Python hashes deterministically.
"""

from __future__ import annotations

import random

from endowlab.cohen import CohenPoset
from endowlab.measure import MeasurePoset
from endowlab.preservation import generate_scenario
from endowlab.selection import MODES

LEVELS = 8
MAX_POINTS = 6
MAX_BASE = 12
POINT_LETTERS = ("x", "y", "z", "u", "v", "w")


def instance(payload: dict) -> dict:
    """Wrap a scenario payload in the program's instance-file envelope."""
    return {"format_version": 1, "kind": "scenario", "payload": payload}


def headroom_points(floor: int) -> int:
    """Points that leave one level per point at or above the floor."""
    return min(MAX_POINTS, LEVELS - floor)


def _subbase(rng: random.Random, points: tuple[str, ...]) -> list[list[str]]:
    sets: list[frozenset[str]] = []
    for _ in range(rng.randint(3, MAX_BASE - len(points))):
        members = frozenset(x for x in points if rng.random() < 0.5)
        if members:
            sets.append(members)
    covered = frozenset().union(*sets)
    for x in points:
        if x not in covered:
            extra = frozenset({x} | {y for y in points if rng.random() < 0.3})
            sets.append(extra)
            covered |= extra
    return sorted({tuple(sorted(s)) for s in sets})


def limit_scenario(kind: str, size: int, index: int) -> dict:
    """Scenario payload `index` for `cohen` D=size or `measure` k=size.

    The property rotates with the index through the program's modes.
    """
    rng = random.Random(f"{kind}:{size}:{index}")
    if kind == "cohen":
        poset = CohenPoset(range(size)).poset
        recipe = {"kind": "cohen", "indices": list(range(size))}
    elif kind == "measure":
        poset = MeasurePoset(size).poset
        recipe = {"kind": "measure", "k": size}
    else:
        raise ValueError(f"unknown poset kind {kind!r}")
    floor = size  # both kinds stabilize exactly at D (resp. k)
    points = POINT_LETTERS[:headroom_points(floor)]
    base = _subbase(rng, points)
    names = []
    for _ in range(LEVELS):
        antichain = sorted(poset.random_maximal_antichain(rng), key=poset.sort_key)
        names.append([
            {"condition": q, "set": list(rng.choice([b for b in base if x in b]))}
            for q in antichain for x in points
        ])
    return {
        "poset": recipe,
        "space": {"points": list(points), "base": [list(b) for b in base]},
        "names": names,
        "property": MODES[index % len(MODES)],
    }


def small_scenario(index: int) -> dict:
    """Scenario payload `index` from the program's own generator at default
    bounds, with the property rotating like the limit-size scenarios."""
    return generate_scenario(index, MODES[index % len(MODES)]).to_jsonable()
