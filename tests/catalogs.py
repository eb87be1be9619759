"""Input catalogs shared by the tests.

`limit_scenarios` gives the benchmark's two limit catalogs: certify-cohen5
runs 24 scenarios on Cohen D=5 and certify-measure3 36 on measure k=3
(`bench/workloads.py`), and `bench/builder.py` builds each from its (kind,
size, index) alone.  The builder is loaded from its file, so the tests need
no benchmark module on the import path; `limit_spaces` gives their spaces.
`small_spaces` gives seeded spaces of one to four points.
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

from endowlab.preservation import Scenario
from endowlab.topology import FiniteSpace

BUILDER = Path(__file__).resolve().parents[1] / "bench" / "builder.py"
CATALOGS = {"cohen5": ("cohen", 5, 24), "measure3": ("measure", 3, 36)}


def limit_scenarios(catalog: str) -> tuple[Scenario, ...]:
    """Every scenario of the catalog, in index order."""
    spec = importlib.util.spec_from_file_location("limit_builder", BUILDER)
    builder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(builder)
    kind, size, count = CATALOGS[catalog]
    return tuple(Scenario.from_jsonable(builder.limit_scenario(kind, size, i)) for i in range(count))


def limit_spaces() -> list[FiniteSpace]:
    """The spaces of both limit catalogs' scenarios."""
    return [FiniteSpace(s.points, s.base) for catalog in CATALOGS for s in limit_scenarios(catalog)]


def small_spaces() -> list[FiniteSpace]:
    """60 spaces on each of one to four points, each subbase up to six
    random subsets, the empty one among them at times, and the whole space
    added when they miss a point."""
    spaces = []
    for n in range(1, 5):
        points = [f"p{i}" for i in range(n)]
        for seed in range(60):
            rng = random.Random(f"{n}:{seed}")
            base = [{x for x in points if rng.random() < 0.5} for _ in range(rng.randint(1, 6))]
            if set().union(*base) != set(points):
                base.append(set(points))
            spaces.append(FiniteSpace(points, base))
    return spaces
