"""Exhaustive small-scope check of the preservation theorem.

At the smallest scope the theorem says every scenario meeting its
hypotheses certifies positive.  Here every nonempty name over every
subbase of the two-point space {x, y}, on Cohen D=1 and measure k=1
(three conditions each: a top and two atoms), is used at every level of a
scenario with floor + 2 levels, the headroom the generator guarantees,
for all three properties.  A cover name must give a positive certificate
whose `verify` replay is byte-identical and whose names are all
canonical; any other name must be rejected with DataError as not a cover
name.  The counts are pinned, so a change that moves a run from one side
to the other, or lets another error escape, fails here.
"""

from itertools import chain, combinations

import pytest

from endowlab.errors import DataError
from endowlab.poset import Name
from endowlab.preservation import Scenario, build_bundle, replay_certificate, run_preservation
from endowlab.selection import MODES
from test_preservation import assert_names_canonical

POINTS = ("x", "y")
SUBSETS = (frozenset("x"), frozenset("y"), frozenset("xy"))
# the five subbases of nonempty sets that cover {x, y}
BASES = [base for r in (1, 2, 3) for base in combinations(SUBSETS, r)
         if frozenset().union(*base) == frozenset(POINTS)]


@pytest.mark.parametrize("recipe", [
    {"kind": "cohen", "indices": [0]},
    {"kind": "measure", "k": 1},
], ids=["cohen-D1", "measure-k1"])
def test_every_small_scenario_certifies_or_is_rejected(recipe):
    bundle = build_bundle(recipe)
    levels = bundle.strat.stabilization_index + len(POINTS)
    positive = rejected = 0
    for base in BASES:
        pairs = [(q, u) for q in bundle.poset.elements for u in base]
        every_name = chain.from_iterable(combinations(pairs, r) for r in range(1, len(pairs) + 1))
        for chosen in every_name:
            name = Name.canonical(chosen)
            for mode in MODES:
                scenario = Scenario(recipe, POINTS, base, (name,) * levels, mode)
                try:
                    cert = run_preservation(scenario)
                except DataError as exc:
                    assert "is not a valid cover name" in str(exc), (base, chosen, mode)
                    rejected += 1
                    continue
                assert cert.verdict == "positive", (base, chosen, mode)
                assert_names_canonical(cert)
                assert replay_certificate(cert.to_text() + "\n").ok, (base, chosen, mode)
                positive += 1
    # 707 nonempty names over the five bases, times three properties
    assert (positive, rejected) == (1581, 540)
