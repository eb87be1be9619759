"""Natural negatives: generated scenarios whose certificates come out
negative once every default family is the adversarial singleton family.

`use_adversarial_families` replaces, in process, the family that
`build_bundle` gives each poset kind by `adversarial_singleton_family`.
Then of the `generate_scenario` seeds 0-199 under all three properties,
these 63 certify negative (Cohen 30, measure 27, explicit 6) and the
other 537 positive.  Each entry is pinned by seed and property, with the
poset kind and the sections of the certificate that fail, as
`failing_sections` names them.  No natural negative has a refinement
counterexample (an atom where the refined name fails to refine) or a
failed selection check; every one whose covering check fails has an atom
table row with a null level and set.

Beside them stand the tampered certificates: one positive certificate,
`generate_scenario(*TAMPER_BASE)`, edited as parsed data so that one
claim of it is false.  `verify` must name the edited section, and each
entry records the path of the false claim, the one an independent checker
of the certificate's own witnesses reports.
"""

from __future__ import annotations

import re

import endowlab.preservation as preservation
from endowlab.endowment import adversarial_singleton_family

SEEDS = range(200)

APPROX = ("approximation_certificates",)
APPROX_REFINE = APPROX + ("refinement_certificates",)
APPROX_REFINE_COVER = APPROX_REFINE + ("union_covers",)

# (seed, property): (poset kind, failing sections)
NEGATIVES = {
    (0, "rothberger"): ("measure", APPROX_REFINE),
    (0, "menger"): ("measure", APPROX),
    (0, "selective-screenability"): ("measure", APPROX_REFINE_COVER),
    (1, "rothberger"): ("measure", APPROX_REFINE_COVER),
    (1, "menger"): ("measure", APPROX),
    (1, "selective-screenability"): ("measure", APPROX),
    (4, "rothberger"): ("cohen", APPROX),
    (4, "menger"): ("cohen", APPROX),
    (4, "selective-screenability"): ("cohen", APPROX),
    (10, "rothberger"): ("measure", APPROX),
    (10, "menger"): ("measure", APPROX),
    (10, "selective-screenability"): ("measure", APPROX),
    (12, "rothberger"): ("cohen", APPROX),
    (12, "menger"): ("cohen", APPROX_REFINE_COVER),
    (12, "selective-screenability"): ("cohen", APPROX),
    (54, "rothberger"): ("cohen", APPROX_REFINE_COVER),
    (54, "menger"): ("cohen", APPROX_REFINE_COVER),
    (54, "selective-screenability"): ("cohen", APPROX),
    (65, "rothberger"): ("measure", APPROX_REFINE_COVER),
    (65, "menger"): ("measure", APPROX_REFINE_COVER),
    (65, "selective-screenability"): ("measure", APPROX_REFINE_COVER),
    (73, "rothberger"): ("cohen", APPROX),
    (73, "menger"): ("cohen", APPROX),
    (73, "selective-screenability"): ("cohen", APPROX),
    (75, "rothberger"): ("cohen", APPROX_REFINE),
    (75, "menger"): ("cohen", APPROX),
    (75, "selective-screenability"): ("cohen", APPROX),
    (80, "rothberger"): ("cohen", APPROX_REFINE_COVER),
    (80, "menger"): ("cohen", APPROX),
    (80, "selective-screenability"): ("cohen", APPROX),
    (91, "rothberger"): ("measure", APPROX),
    (91, "menger"): ("measure", APPROX),
    (91, "selective-screenability"): ("measure", APPROX),
    (103, "rothberger"): ("cohen", APPROX_REFINE),
    (103, "menger"): ("cohen", APPROX_REFINE_COVER),
    (103, "selective-screenability"): ("cohen", APPROX),
    (104, "rothberger"): ("measure", APPROX),
    (104, "menger"): ("measure", APPROX_REFINE_COVER),
    (104, "selective-screenability"): ("measure", APPROX),
    (137, "rothberger"): ("explicit", APPROX_REFINE),
    (137, "menger"): ("explicit", APPROX_REFINE_COVER),
    (137, "selective-screenability"): ("explicit", APPROX_REFINE_COVER),
    (154, "rothberger"): ("measure", APPROX),
    (154, "menger"): ("measure", APPROX),
    (154, "selective-screenability"): ("measure", APPROX),
    (156, "rothberger"): ("explicit", APPROX),
    (156, "menger"): ("explicit", APPROX),
    (156, "selective-screenability"): ("explicit", APPROX),
    (158, "rothberger"): ("cohen", APPROX_REFINE),
    (158, "menger"): ("cohen", APPROX_REFINE_COVER),
    (158, "selective-screenability"): ("cohen", APPROX),
    (162, "rothberger"): ("measure", APPROX_REFINE),
    (162, "menger"): ("measure", APPROX),
    (162, "selective-screenability"): ("measure", APPROX),
    (169, "rothberger"): ("cohen", APPROX_REFINE),
    (169, "menger"): ("cohen", APPROX_REFINE_COVER),
    (169, "selective-screenability"): ("cohen", APPROX),
    (176, "rothberger"): ("measure", APPROX_REFINE),
    (176, "menger"): ("measure", APPROX_REFINE_COVER),
    (176, "selective-screenability"): ("measure", APPROX),
    (183, "rothberger"): ("cohen", APPROX),
    (183, "menger"): ("cohen", APPROX),
    (183, "selective-screenability"): ("cohen", APPROX_REFINE_COVER),
}


def use_adversarial_families(monkeypatch) -> None:
    """Give every poset kind the adversarial singleton family, in a bundle
    cache that starts empty and is thrown away with the patch."""
    monkeypatch.setattr(preservation, "_SHARED", {})
    monkeypatch.setattr(preservation, "cohen_dow_family",
                        lambda cohen, strat: adversarial_singleton_family(cohen.poset))
    monkeypatch.setattr(preservation, "measure_total_family",
                        lambda algebra: adversarial_singleton_family(algebra.poset))
    monkeypatch.setattr(preservation, "maximal_antichain_family", adversarial_singleton_family)


def failing_sections(cert) -> tuple[str, ...]:
    """The top level sections of a certificate that record a failure."""
    pipeline = cert.pipeline
    failed = {
        "approximation_certificates": not all(c.positive for c in cert.approximation_certificates),
        "refinement_certificates": not all(c.positive for c in pipeline.certificates),
        "selection": not cert.selection_checked,
        "subfamily_everywhere": not all(pipeline.subfamily_everywhere),
        "union_covers": not pipeline.union_covers,
    }
    return tuple(section for section, failing in failed.items() if failing)


# -- tampered certificates -----------------------------------------------------
#
# The base is positive: the measure algebra k=2, floor 2, six levels.  Its
# approximation run for the piece {x,y,z} at level 1 is patched: at 7 of
# its 11 conditions the condition does not force the piece and a stronger
# one is the witness.  Its refined name at level 0 leaves out the pair
# ("00,01,11", {x,y,z}), which that condition does not force.
TAMPER_BASE = (10, "rothberger")


def _drop_triple(data) -> None:
    # the triple of the piece {x,y} below "00,01": that condition is left uncovered
    del data["approximation_certificates"][3]["triples"][5]


def _change_patched_witness(data) -> None:
    # "00,01" was the witness below "00,01,11"; "10" is no cell inside it
    data["approximation_certificates"][1]["triples"][13]["witness"] = "10"


def _swap_picks(data) -> None:
    # level 3's cover is {x,y} and {x,y,z}, so the pick {x} leaves it
    picks = data["selection"]["solution"]
    picks[3], picks[4] = picks[4], picks[3]


def _add_unforced_pair(data) -> None:
    # in canonical (condition, set) order, after "00,01,10"
    data["refined_names"][0].insert(3, {"condition": "00,01,11", "set": ["x", "y", "z"]})


def _lower_atom_row(data) -> None:
    # from level 2, the floor, to level 1, below it
    data["atom_table"][0]["level"] = 1


def _flip_verdict(data) -> None:
    data["verdict"] = "negative"


# label: (the section `verify` names, the path of the false claim, the edit)
TAMPERED = {
    "dropped-triple": ("approximation_certificates", "approximation_certificates[3].triples",
                       _drop_triple),
    "changed-patched-witness": ("approximation_certificates",
                                "approximation_certificates[1].triples[13]",
                                _change_patched_witness),
    "swapped-pick": ("selection", "selection.solution[3]", _swap_picks),
    "unforced-refined-pair": ("refined_names", "refined_names[0][3]", _add_unforced_pair),
    "atom-row-wrong-level": ("atom_table", "atom_table[0]", _lower_atom_row),
    "flipped-verdict": ("verdict", "verdict", _flip_verdict),
}


def at_path(data, path: str):
    """The value at a path such as "selection.solution[3]"."""
    for key, index in re.findall(r"(\w+)|\[(\d+)\]", path):
        data = data[key] if key else data[int(index)]
    return data
