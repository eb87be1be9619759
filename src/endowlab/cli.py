"""The endowlab command line tool.

Exit codes: 0 success, 1 program fault (an uncaught exception, with its
traceback), 2 scenario error (theorem hypotheses unmet), 3 verification
failure (violations, negative certificate, replay mismatch), 64 usage
error, 65 malformed data, 70 resource bound exceeded.

The ENDOWLAB_BOUNDS environment variable (a JSON object) overrides any
subset of the resource limits, for example '{"max_k": 4}'.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from .bounds import DEFAULT_LIMITS, Limits, limits_from_env
from .canon import canonical_json_pretty, check_shape, sorted_sets
from .endowment import (
    DEFAULT_FULL_BUDGET,
    EndowmentReport,
    adversarial_singleton_family,
    dow_construct,
    extract_each,
    hits_level,
    maximal_antichain_family,
    verify_full_endowment,
    verify_weak_endowment,
)
from .errors import DataError, EndowlabError, ResourceError, ScenarioError, UsageError
from .instances import (
    fixture_cohen_pair,
    fixture_measure_pair,
    load_instance,
    check_writable,
    read_json,
    read_text,
    save_instance,
    wrap_instance,
    write_text,
)
from .names import (
    WitnessTable,
    approximate,
    check_approximation,
    check_cover_name,
    derive_point_names,
    forcing_mask,
    refine_name,
)
from .poset import Name, RefinesName, forces, forces_dense, refinement_mask, superset_mask, value_masks
from .preservation import (
    Scenario,
    _check_bounds,
    build_bundle,
    generate_scenario,
    replay_certificate,
    run_preservation,
)
from .selection import MODES
from .topology import FiniteSpace


class _HelpShown(Exception):
    """Raised after `--help` has printed, in place of argparse's exit."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise UsageError(message)

    def exit(self, status=0, message=None):  # noqa: A003 - argparse hook, reached only by --help
        raise _HelpShown


def parse_poset_spec(text: str, limits: Limits = DEFAULT_LIMITS) -> dict:
    """Parse a poset argument: cohen:D=2, measure:k=1, or @file.json."""
    if text.startswith("@"):
        return {"kind": "explicit", **load_instance(text[1:], "poset")}
    head, sep, tail = text.partition(":")
    if sep and head == "cohen" and tail.startswith("D="):
        try:
            size = int(tail[2:])
        except ValueError:
            raise UsageError(f"bad index count in {text!r}")
        require_at_least(f"D in {text!r}", size, 1)
        if size > limits.max_indices:
            raise ResourceError(f"index set capped at {limits.max_indices} entries, got {size}")
        return {"kind": "cohen", "indices": list(range(size))}
    if sep and head == "measure" and tail.startswith("k="):
        try:
            k = int(tail[2:])
        except ValueError:
            raise UsageError(f"bad exponent in {text!r}")
        require_at_least(f"k in {text!r}", k, 0)
        return {"kind": "measure", "k": k}
    raise UsageError(
        f"bad poset spec {text!r}; expected cohen:D=<n>, measure:k=<n>, or @file.json")


def parse_bounds(text: str) -> Limits:
    if text == "default":
        return DEFAULT_LIMITS
    try:
        return Limits.from_json(text)
    except DataError as exc:
        raise UsageError(
            f"bad bounds {text!r}; expected 'default' or a JSON object: {exc}") from exc


def resolve_family(bundle, choice: str):
    if choice == "default":
        return bundle.family
    if choice == "maximal":
        return maximal_antichain_family(bundle.poset)
    if choice == "adversarial":
        return adversarial_singleton_family(bundle.poset)
    raise UsageError(f"unknown family {choice!r}")


def gather_antichains(poset, exhaustive: bool, seeded: int, seed: int, limits: Limits):
    """Every maximal antichain when `exhaustive` is set.  Otherwise `seeded`
    greedy samples drawn in a row from one `random.Random(seed)`, keeping
    the first copy of each antichain in draw order."""
    if exhaustive:
        return poset.maximal_antichains(limits)
    rng = random.Random(seed)
    seen = set()
    out = []
    for _ in range(seeded):
        antichain = poset.random_maximal_antichain(rng)
        if antichain not in seen:
            seen.add(antichain)
            out.append(antichain)
    return tuple(out)


def emit(args, jsonable, text_lines) -> None:
    if getattr(args, "json", False):
        print(canonical_json_pretty(jsonable))
    else:
        for line in text_lines:
            print(line)


# -- subcommands ---------------------------------------------------------------


def require_at_least(option: str, value: int, least: int) -> None:
    if value < least:
        raise UsageError(f"{option} must be at least {least}, got {value}")


# The largest `selftest --count` and `endow-verify --seeded COUNT`, so that
# no batch runs unbounded.
MAX_BATCH = 10_000


def require_batch_size(option: str, count: int) -> None:
    """Reject a batch count below 1 as a usage error, and one above
    `MAX_BATCH`, before any work is done."""
    require_at_least(option, count, 1)
    if count > MAX_BATCH:
        raise ResourceError(f"{option} capped at {MAX_BATCH}, got {count}")


def require_level_bound(n: int, limits: Limits) -> None:
    """Reject a negative level as a usage error, and a level above the
    level limit, before any poset is built."""
    require_at_least("--n", n, 0)
    if n > limits.max_levels:
        raise ResourceError(f"--n capped at max_levels={limits.max_levels}, got {n}")


def violation_lines(report: EndowmentReport) -> list[str]:
    """The first five violations of a report, one line each."""
    return [f"  clause {v.clause}: witness {v.witness!r} in antichain {list(v.antichain)}"
            for v in report.violations[:5]]


def cmd_endow_verify(args, limits: Limits) -> int:
    if args.seeded is not None:
        require_batch_size("--seeded COUNT", args.seeded)
    require_at_least("--budget", args.budget, 0)
    require_level_bound(args.n, limits)
    recipe = parse_poset_spec(args.poset, limits)
    bundle = build_bundle(recipe, limits)
    family = resolve_family(bundle, args.family)
    exhaustive = args.exhaustive or (args.seeded is None and len(bundle.poset) <= limits.max_poset)
    if not exhaustive and args.seeded is None:
        raise UsageError(
            f"poset has {len(bundle.poset)} conditions; pass --seeded COUNT for sampling")
    antichains = gather_antichains(bundle.poset, exhaustive, args.seeded or 0, args.seed, limits)
    extractions = extract_each(family, args.n, antichains)
    weak = verify_weak_endowment(bundle.poset, bundle.strat, family, args.n, extractions)
    result = {
        "poset": recipe,
        "mode": "exhaustive" if exhaustive else f"seeded:{args.seeded}",
        "weak": weak.to_jsonable(),
    }
    lines = [
        f"poset: {args.poset} ({len(bundle.poset)} conditions)",
        f"family: {weak.family}  level: {args.n}",
        f"antichains checked: {weak.checked} ({result['mode']})",
        f"weak endowment: {'ok' if weak.ok else 'VIOLATIONS'}",
    ]
    lines.extend(violation_lines(weak))
    ok = weak.ok
    if args.full:
        full = verify_full_endowment(
            bundle.poset, bundle.strat, family, args.n, extractions, args.budget)
        result["full"] = full.to_jsonable()
        lines.append(f"joint extension clause: {'ok' if full.ok else 'VIOLATIONS'}")
        lines.extend(violation_lines(full))
        ok = ok and full.ok
    emit(args, result, lines)
    return 0 if ok else 3


def cmd_dow(args, limits: Limits) -> int:
    require_level_bound(args.n, limits)
    recipe = parse_poset_spec(args.poset, limits)
    if recipe["kind"] != "cohen":
        raise UsageError("the staged construction needs a cohen:D=<n> poset")
    bundle = build_bundle(recipe, limits)
    if not bundle.poset.is_maximal_antichain(args.member):
        raise DataError("staged construction needs a maximal antichain")
    trace = dow_construct(bundle.structure, args.member, args.n)
    hits = hits_level(bundle.poset, bundle.strat.at(args.n), trace.result)
    lines = [f"seed: {trace.seed!r}"]
    for i, stage in enumerate(trace.stages):
        lines.append(
            f"stage {i}: added {list(stage.added)} support {list(stage.support)}")
    lines.append(f"result ({len(trace.result)} conditions): {sorted(trace.result)}")
    lines.append(f"hits every level {args.n} condition: {'yes' if hits else 'NO'}")
    result = trace.to_jsonable()
    result["hits_level"] = hits
    emit(args, result, lines)
    return 0 if hits else 3


def load_name_inputs(args, limits: Limits):
    """The poset bundle, space and cover name that `approx` and `refine`
    read.  `load_instance` shape-checks each payload, so the space is built
    directly from it and the name by `Name.canonical`; `check_cover_name`
    then checks the name against the poset and the space."""
    require_level_bound(args.n, limits)
    bundle = build_bundle(parse_poset_spec(args.poset, limits), limits)
    payload = load_instance(args.space, "space")
    space = FiniteSpace(payload["points"], payload["base"], limits)
    name = Name.canonical((entry["condition"], entry["set"]) for entry in load_instance(args.name, "name"))
    check_cover_name(bundle.poset, space, name)
    return bundle, space, name


def cmd_approx(args, limits: Limits) -> int:
    bundle, space, name = load_name_inputs(args, limits)
    family = resolve_family(bundle, args.family)
    table = WitnessTable(bundle.poset, bundle.strat, args.n, name)
    point_names = derive_point_names(table, space)
    approx = approximate(table, point_names, family)
    cert = check_approximation(table, approx.cover)
    result = {
        "point_names": [pn.to_jsonable() for pn in point_names],
        "approximation": approx.to_jsonable(),
        "certificate": cert.to_jsonable(),
    }
    lines = [f"level {args.n} cover: {[sorted(v) for v in approx.cover]}",
             f"certificate: {'positive' if cert.positive else 'NEGATIVE'} "
             f"({sum(len(run) for _, run in cert.runs)} dense witnesses)"]
    if cert.counterexample is not None:
        lines.append(f"counterexample: piece {list(cert.counterexample[0])} "
                     f"at condition {cert.counterexample[1]!r}")
    emit(args, result, lines)
    return 0 if cert.positive else 3


def cmd_refine(args, limits: Limits) -> int:
    bundle, space, name = load_name_inputs(args, limits)
    raw = read_json(args.sets)
    check_shape(raw, [[str]], "ground family")
    family = sorted_sets(frozenset(s) for s in raw)
    for h in family:
        if not space.is_open(h):
            raise DataError(f"ground family member {sorted(h)} is not open")
    refined, cert, _ = refine_name(WitnessTable(bundle.poset, bundle.strat, args.n, name), family)
    result = {"refined_name": refined.to_jsonable(), "certificate": cert.to_jsonable()}
    lines = [f"refined name: {len(refined.pairs)} pairs",
             f"certificate: {'positive' if cert.positive else 'NEGATIVE'}"]
    emit(args, result, lines)
    return 0 if cert.positive else 3


def cmd_preserve(args, limits: Limits) -> int:
    scenario = Scenario.from_jsonable(load_instance(args.scenario, "scenario"))
    if args.property is not None:
        scenario = scenario._replace(mode=args.property)
    check_writable(args.cert)
    cert = run_preservation(scenario, limits)
    text = cert.to_text()
    write_text(args.cert, text)
    lines = [
        f"property: {scenario.mode}  floor: {cert.floor}  levels: {len(scenario.names)}",
        f"atoms certified: {len({row.atom for row in cert.pipeline.atom_table})}",
        f"verdict: {cert.verdict}",
        f"certificate written to {args.cert}",
    ]
    emit(args, json.loads(text) if args.json else None, lines)
    return 0 if cert.verdict == "positive" else 3


def cmd_verify(args, limits: Limits) -> int:
    report = replay_certificate(read_text(args.cert), limits, args.cert)
    lines = [f"replay: {'ok' if report.ok else 'MISMATCH'}"]
    if not report.ok:
        lines.append(f"mismatching sections: {list(report.mismatches)}")
    emit(args, report.to_jsonable(), lines)
    return 0 if report.ok else 3


def cmd_gen(args, limits: Limits) -> int:
    bounds = parse_bounds(args.bounds)
    if args.out:
        check_writable(args.out)
    scenario = generate_scenario(args.seed, args.property, bounds, limits)
    payload = scenario.to_jsonable()
    if args.out:
        save_instance(args.out, "scenario", payload)
        emit(args, wrap_instance("scenario", payload), [f"scenario written to {args.out}"])
    else:
        print(canonical_json_pretty(wrap_instance("scenario", payload)))
    return 0


# An explicit poset that lists stronger conditions first: "m" lies below
# "t" and above "a0" and "a1", and "a2" lies below "t".  Only the atoms are
# self-least, so a witness run has to search below "m" and "t".
_LISTED_STRONGER_FIRST = {"kind": "explicit", "elements": ["a0", "a1", "m", "a2", "t"],
                          "leq": [["a0", "m"], ["a1", "m"], ["m", "t"], ["a2", "t"]]}


def _oracle_sweep(rng: random.Random, limits: Limits, queries: int) -> int:
    """Count the random queries on which the pipeline's masks agree with
    the frozenset oracles.  A query agrees when the forcing mask of "some
    value of the name contains `lower`" holds p exactly when `forces_dense`
    does, the refinement mask of the name over a second one holds every
    atom below p exactly when `forces` says the name refines the other, and
    the name's witness run over the whole poset is the oracle's: its entry
    for p, when the run reaches p, is the first r in `down(p)`, in
    canonical order, at which `forces_dense` holds, and the condition where
    a shorter run stops has no such r."""
    pool = [build_bundle(recipe, limits) for recipe in (
        {"kind": "cohen", "indices": [0]},
        {"kind": "cohen", "indices": [0, 1]},
        {"kind": "measure", "k": 1},
        _LISTED_STRONGER_FIRST,
    )]

    def random_name(poset) -> Name:
        return Name.canonical(
            (poset.elements[rng.randrange(len(poset))],
             frozenset(x for x in "xy" if rng.random() < 0.5))
            for _ in range(rng.randint(0, 4))
        )

    def least_witness(poset, p, name, lower):
        return next((r for r in sorted(poset.down(p), key=poset.sort_key)
                     if forces_dense(poset, r, name, lower)), None)

    agree = 0
    for _ in range(queries):
        bundle = pool[rng.randrange(len(pool))]
        poset, strat = bundle.poset, bundle.strat
        name = random_name(poset)
        i = rng.randrange(len(poset))
        p = poset.elements[i]
        lower = frozenset(x for x in "xy" if rng.random() < 0.5)
        other = random_name(poset)
        masks = value_masks(poset, name)
        superset = forcing_mask(poset, superset_mask(masks, lower)) >> i & 1 == 1
        refines = poset.atom_mask[p] & ~refinement_mask(poset, masks, value_masks(poset, other)) == 0
        # the top level holds every condition, so p's entry is at index i
        run = WitnessTable(poset, strat, strat.stabilization_index, name).run(lower)
        if i < len(run):
            witnessed = run[i] == least_witness(poset, p, name, lower)
        else:
            witnessed = least_witness(poset, poset.elements[len(run)], name, lower) is None
        if (superset == forces_dense(poset, p, name, lower)
                and refines == forces(poset, p, RefinesName(name, other)) and witnessed):
            agree += 1
    return agree


def _check_scenario(make, limits: Limits, seed: int | None = None, mode: str | None = None) -> dict:
    """Build the scenario `make()` returns, run it and replay its certificate
    as `preserve` writes it.  An exception becomes the record's `error`, so
    one bad scenario does not abort the batch; only an exception that is not
    an `EndowlabError` is a program fault and prints its traceback."""
    record = {"seed": seed, "mode": mode, "verdict": None, "replay_ok": False, "error": None}
    try:
        cert = run_preservation(make(), limits)
        record["verdict"] = cert.verdict
        record["replay_ok"] = replay_certificate(cert.to_text() + "\n", limits).ok
    except Exception as exc:  # the batch must keep running
        if not isinstance(exc, EndowlabError):
            import traceback  # loaded only on a program fault, off the start-up path

            traceback.print_exc()
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def _passed(record: dict) -> bool:
    return record["verdict"] == "positive" and record["replay_ok"]


def cmd_selftest(args, limits: Limits) -> int:
    require_batch_size("--count", args.count)
    bounds = parse_bounds(args.bounds)
    _check_bounds(bounds, limits)
    problems: list[str] = []
    lines: list[str] = []

    queries = 200
    agree = _oracle_sweep(random.Random(args.seed), limits, queries)
    if agree != queries:
        problems.append("forcing oracles disagree")
    lines.append(f"forcing oracles agree: {agree}/{queries}")

    sweeps = {}
    for key, label, scope, recipes, levels in (
        ("staged_ok", "staged hitting guarantee", "exhaustive D<=2, n<=3",
         [{"kind": "cohen", "indices": list(range(size))} for size in (1, 2)], 4),
        ("measure_ok", "measure extraction bound", "exhaustive k<=2, n<=2",
         [{"kind": "measure", "k": k} for k in (1, 2)], 3),
    ):
        ok = True
        for recipe in recipes:
            bundle = build_bundle(recipe, limits)
            poset, family = bundle.poset, bundle.family
            antichains = poset.maximal_antichains(limits)
            for n in range(levels):
                extractions = extract_each(family, n, antichains)
                ok = ok and verify_weak_endowment(poset, bundle.strat, family, n, extractions).ok
        if not ok:
            problems.append(f"{label} failed")
        lines.append(f"{label} ({scope}): {'ok' if ok else 'FAILED'}")
        sweeps[key] = ok

    fixed = [functools.partial(fixture_cohen_pair, mode=mode) for mode in MODES[:2]]
    fixed.append(functools.partial(fixture_measure_pair, mode=MODES[2]))
    fixed_ok = sum(_passed(_check_scenario(make, limits)) for make in fixed)
    if fixed_ok != len(fixed):
        problems.append("fixed scenario failed")
    lines.append(f"fixed scenarios positive and replayed: {fixed_ok}/{len(fixed)}")

    results = []
    for i in range(args.count):
        seed, mode = args.seed + i, MODES[i % len(MODES)]
        make = functools.partial(generate_scenario, seed, mode, bounds, limits)
        results.append(_check_scenario(make, limits, seed, mode))
    failures = [r for r in results if not _passed(r)]
    result = {
        "oracle_agreements": agree,
        "oracle_queries": queries,
        **sweeps,
        "fixed_ok": fixed_ok,
        "scenarios": len(results),
        "failures": failures,
        "problems": problems,
    }
    lines.append(f"scenarios run: {len(results)}")
    lines.append(f"failures: {len(failures)}")
    for f in failures[:5]:
        outcome = (f"error {f['error']}" if f["error"] is not None else
                   f"verdict {f['verdict']}, replay_ok {f['replay_ok']}")
        lines.append(f"  seed {f['seed']} mode {f['mode']}: {outcome}")
    emit(args, result, lines)
    return 0 if not failures and not problems else 3


def build_parser() -> _Parser:
    parser = _Parser(prog="endowlab", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("endow-verify", help="check the weak endowment clauses")
    p.add_argument("poset", help="cohen:D=<n>, measure:k=<n>, or @poset.json")
    p.add_argument("--n", type=int, required=True, help="level to check")
    p.add_argument("--family", default="default", choices=["default", "maximal", "adversarial"])
    sampling = p.add_mutually_exclusive_group()
    sampling.add_argument("--exhaustive", action="store_true", help="force exhaustive enumeration")
    sampling.add_argument("--seeded", type=int, default=None, metavar="COUNT",
                          help="sample COUNT random maximal antichains instead")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--full", action="store_true", help="also check the joint extension clause")
    p.add_argument("--budget", type=int, default=DEFAULT_FULL_BUDGET,
                   help="joint extension budget in (tuple, level condition) pairs; the clause "
                        f"needs (distinct extractions)^n * |level| of them (default {DEFAULT_FULL_BUDGET:,})")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("dow", help="run the staged antichain construction")
    p.add_argument("poset", help="cohen:D=<n>")
    p.add_argument("--member", action="append", required=True,
                   help="maximal antichain member (repeat)")
    p.add_argument("--n", type=int, required=True, help="stage count")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("approx", help="ground cover approximation of a name")
    p.add_argument("--poset", required=True)
    p.add_argument("--space", required=True, help="space instance file")
    p.add_argument("--name", required=True, help="name instance file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", default="default", choices=["default", "maximal", "adversarial"])
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("refine", help="refine a name over a ground family")
    p.add_argument("--poset", required=True)
    p.add_argument("--space", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sets", required=True, help="JSON list of point lists")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("preserve", help="run a preservation scenario end to end")
    p.add_argument("--scenario", required=True, help="scenario instance file")
    p.add_argument("--property", choices=list(MODES), default=None,
                   help="override the scenario's property")
    p.add_argument("--cert", required=True, help="certificate output path")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="replay a preservation certificate")
    p.add_argument("--cert", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gen", help="generate a seeded scenario")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--property", choices=list(MODES), default=None)
    p.add_argument("--out", default=None, help="output file (stdout when omitted)")
    p.add_argument("--bounds", default="default", help="'default' or JSON")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("selftest", help="generate, run, and replay scenarios")
    p.add_argument("--count", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bounds", default="default", help="'default' or JSON")
    p.add_argument("--json", action="store_true")

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser every `main` call reuses, built on the first call."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; safe to call many times in one process.

    The handler is looked up by name in this module when the command runs,
    so a rebinding of `cmd_<command>` after the first call takes effect.
    """
    args = None
    try:
        args = _shared_parser().parse_args(argv)
        limits = limits_from_env(os.environ)
        return globals()["cmd_" + args.command.replace("-", "_")](args, limits)
    except _HelpShown:
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        if getattr(args, "json", False):
            partial = None if exc.partial is None else exc.partial.to_jsonable()
            print(canonical_json_pretty({"error": str(exc), "partial": partial}))
        return exc.exit_code
    except EndowlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
