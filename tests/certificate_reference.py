"""Reference dict builders for the certificate classes.

The program writes these classes straight to canonical text (`to_text`)
and parses that text for `to_jsonable`.  The builders below lay the same
values out as plain dicts, field by field, so the tests can check the
writer against `canonical_json` of an independently built tree.  They call
no `to_jsonable` or `to_text` of the program.
"""

from __future__ import annotations

from endowlab.preservation import FORMAT_VERSION


def name_jsonable(name) -> list[dict]:
    return [{"condition": q, "set": sorted(u)} for q, u in name.pairs]


def scenario_jsonable(scenario) -> dict:
    return {
        "poset": scenario.poset,
        "space": {"points": sorted(scenario.points), "base": [sorted(b) for b in scenario.base]},
        "names": [name_jsonable(name) for name in scenario.names],
        "property": scenario.mode,
    }


def approximation_jsonable(approx) -> dict:
    return {
        "level": approx.level,
        "entries": [
            {"point": x, "used": list(used), "piece": sorted(v)} for x, used, v in approx.entries
        ],
        "cover": [sorted(v) for v in approx.cover],
    }


def selection_jsonable(mode: str, checked: bool, solution) -> dict:
    """A Rothberger solution is one set per level; the other modes pick one
    family of sets per level."""
    if mode == "rothberger":
        picks = [sorted(u) for u in solution]
    else:
        picks = [[sorted(u) for u in fam] for fam in solution]
    return {"mode": mode, "checked": checked, "solution": picks}


def atom_row_jsonable(row) -> dict:
    return {
        "atom": row.atom,
        "point": row.point,
        "level": row.level,
        "set": None if row.covering is None else sorted(row.covering),
    }


def approx_certificate_jsonable(cert) -> dict:
    return {
        "level": cert.level,
        "positive": cert.positive,
        "triples": [
            {"piece": list(v), "condition": p, "witness": r} for v, p, r in cert.triples
        ],
        "counterexample": None if cert.counterexample is None else
            {"piece": list(cert.counterexample[0]), "condition": cert.counterexample[1]},
    }


def refine_certificate_jsonable(cert) -> dict:
    return {
        "level": cert.level,
        "positive": cert.positive,
        "refines_everywhere": cert.refines_everywhere,
        "refine_counterexample": cert.refine_counterexample,
        "triples": [
            {"set": list(h), "condition": p, "witness": r} for h, p, r in cert.triples
        ],
        "counterexample": None if cert.counterexample is None else
            {"set": list(cert.counterexample[0]), "condition": cert.counterexample[1]},
    }


def certificate_jsonable(cert) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "preservation-certificate",
        "scenario": scenario_jsonable(cert.scenario),
        "floor": cert.floor,
        "family": cert.family_label,
        "approximations": [approximation_jsonable(a) for a in cert.approximations],
        "approximation_certificates": [
            approx_certificate_jsonable(c) for c in cert.approximation_certificates],
        "selection": selection_jsonable(cert.scenario.mode, cert.selection_checked, cert.selection),
        "ground_families": [[sorted(h) for h in fam] for fam in cert.ground_families],
        "refined_names": [name_jsonable(w) for w in cert.pipeline.refined],
        "refinement_certificates": [
            refine_certificate_jsonable(c) for c in cert.pipeline.certificates],
        "subfamily_everywhere": list(cert.pipeline.subfamily_everywhere),
        "union_covers": cert.pipeline.union_covers,
        "atom_table": [atom_row_jsonable(row) for row in cert.pipeline.atom_table],
        "verdict": cert.verdict,
    }
