"""Distinct-name sweep of the preservation theorem at the smallest scope.

On the two-point space {x, y} with the subbase {x}, {y}, every name is a
set of (condition, value) pairs over three conditions (a top and two
atoms) and two values: 63 nonempty names on Cohen D=1 and on measure k=1.
A name is a cover name when each point is committed densely: by the top,
or by both atoms.  That holds for 25 of them.  Both posets have floor 1,
so a scenario has 3 levels, the headroom the generator guarantees.

The sweep runs every sequence of 3 cover names (25^3), under all three
properties, on both posets: 93,750 runs.  Each must certify positive, and
its `verify` replay must be byte-identical.  It then puts each of the 38
other names at each level of a sequence of cover names, under every
property, on both posets; each such run must be rejected with DataError
as not a cover name.  It prints both counts and exits 1 on any other
outcome, naming the scenario.  Tier-1 runs the same-name-at-every-level
slice (`test_small_scope.py`); this sweep takes minutes:

    PYTHONPATH=src python tests/small_scope_sweep.py
"""

from __future__ import annotations

import argparse
import sys
from itertools import chain, combinations, product

from endowlab.errors import DataError, EndowlabError
from endowlab.poset import Name
from endowlab.preservation import Scenario, build_bundle, replay_certificate, run_preservation
from endowlab.selection import MODES

POINTS = ("x", "y")
BASE = (frozenset("x"), frozenset("y"))
RECIPES = {"cohen-D1": {"kind": "cohen", "indices": [0]}, "measure-k1": {"kind": "measure", "k": 1}}


def split_names(recipe: dict) -> tuple[list[Name], list[Name], int]:
    """Every nonempty name over the poset's conditions and BASE, as (cover
    names, other names, levels), classified by the density rule above."""
    bundle = build_bundle(recipe)
    poset = bundle.poset
    (top,) = (p for p in poset.elements if p not in poset.atoms)
    pairs = list(product(poset.elements, BASE))
    cover, other = [], []
    for chosen in chain.from_iterable(combinations(pairs, r) for r in range(1, len(pairs) + 1)):
        committed = {x: {q for q, u in chosen if x in u} for x in POINTS}
        dense = all(top in qs or set(poset.atoms) <= qs for qs in committed.values())
        (cover if dense else other).append(Name.canonical(chosen))
    return cover, other, bundle.strat.stabilization_index + len(POINTS)


def sweep(out=sys.stdout) -> int:
    """Run the sweep; return the number of failures."""
    failures = positive = rejected = 0
    for label, recipe in RECIPES.items():
        cover, other, levels = split_names(recipe)
        if (len(cover), len(other), levels) != (25, 38, 3):
            raise SystemExit(f"{label}: the scope changed: {len(cover)}, {len(other)}, {levels}")
        for names, mode in product(product(cover, repeat=levels), MODES):
            scenario = Scenario(recipe, POINTS, BASE, names, mode)
            try:
                cert = run_preservation(scenario)
                ok = cert.verdict == "positive" and replay_certificate(cert.to_text() + "\n").ok
            except EndowlabError as exc:
                ok, cert = False, exc
            if ok:
                positive += 1
            else:
                failures += 1
                print(f"FAIL {label} {mode} {[n.pairs for n in names]}: {cert!r:.200}", file=out)
        for bad, level, mode in product(other, range(levels), MODES):
            names = tuple(bad if n == level else cover[0] for n in range(levels))
            try:
                run_preservation(Scenario(recipe, POINTS, BASE, names, mode))
            except DataError as exc:
                if "is not a valid cover name" in str(exc):
                    rejected += 1
                    continue
            failures += 1
            print(f"FAIL {label} {mode} level {level} {bad.pairs}: not rejected", file=out)
    print(f"positive and replayed: {positive}; rejected as not cover names: {rejected}; "
          f"failures: {failures}", file=out)
    return failures


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    return 1 if sweep() else 0


if __name__ == "__main__":
    sys.exit(main())
