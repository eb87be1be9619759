"""The endowlab command line tool.

Exit codes: 0 success, 2 scenario error (theorem hypotheses unmet), 3
verification failure (violations, negative certificate, replay mismatch),
64 usage error, 65 malformed data, 70 resource bound exceeded.

The ENDOWLAB_BOUNDS environment variable (a JSON object) overrides any
subset of the resource limits, for example '{"max_k": 4}'.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import random
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .bounds import DEFAULT_LIMITS, Limits, limits_from_env
from .canon import canonical_json, canonical_json_pretty, check_shape
from .cohen import CohenPoset
from .endowment import (
    DEFAULT_FULL_BUDGET,
    adversarial_singleton_family,
    cohen_dow_family,
    dow_construct,
    hits_level,
    maximal_antichain_family,
    measure_total_family,
    verify_full_endowment,
    verify_weak_endowment,
)
from .errors import DataError, EndowlabError, ResourceError, ScenarioError, UsageError
from .instances import (
    fixture_cohen_pair,
    fixture_measure_pair,
    load_instance,
    read_json,
    save_instance,
    wrap_instance,
)
from .measure import MeasurePoset
from .names import approximate, check_approximation, derive_point_names, make_cover_name, refine_name
from .poset import EXHAUSTIVE_LIMIT, ExistsSupersetInCover, Name, forces, forces_dense
from .preservation import (
    PosetSpec,
    Scenario,
    _check_bounds,
    build_bundle,
    generate_scenario,
    replay_certificate,
    run_preservation,
)
from .selection import MODES
from .topology import FiniteSpace

LARGE_BOUNDS = Limits(
    max_indices=6, max_k=4, max_points=12, max_base=24, max_poset=200, max_levels=16)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise UsageError(message)


def parse_poset_spec(text: str) -> PosetSpec:
    """Parse a poset argument: cohen:D=2, measure:k=1, or @file.json."""
    if text.startswith("@"):
        return PosetSpec.from_jsonable({"kind": "explicit", **load_instance(text[1:], "poset")})
    head, sep, tail = text.partition(":")
    if sep and head == "cohen" and tail.startswith("D="):
        try:
            size = int(tail[2:])
        except ValueError:
            raise UsageError(f"bad index count in {text!r}")
        return PosetSpec("cohen", indices=tuple(range(size)))
    if sep and head == "measure" and tail.startswith("k="):
        try:
            k = int(tail[2:])
        except ValueError:
            raise UsageError(f"bad exponent in {text!r}")
        return PosetSpec("measure", k=k)
    raise UsageError(
        f"bad poset spec {text!r}; expected cohen:D=<n>, measure:k=<n>, or @file.json")


def parse_bounds(text: str) -> Limits:
    if text == "default":
        return DEFAULT_LIMITS
    if text == "large":
        return LARGE_BOUNDS
    try:
        return Limits.from_json(text)
    except DataError as exc:
        raise UsageError(
            f"bad bounds {text!r}; expected 'default', 'large', or a JSON object: {exc}") from exc


def resolve_family(bundle, choice: str):
    if choice == "default":
        return bundle.family
    if choice == "maximal":
        return maximal_antichain_family(bundle.poset)
    if choice == "adversarial":
        return adversarial_singleton_family(bundle.poset)
    raise UsageError(f"unknown family {choice!r}")


def gather_antichains(poset, exhaustive: bool, seeded: int, seed: int):
    """Exhaustive enumeration when asked (or small and unspecified), seeded
    greedy sampling otherwise; duplicates are dropped."""
    if exhaustive:
        return poset.maximal_antichains()
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


# -- multiprocessing workers (top level for pickling) -------------------------


def _endow_chunk_worker(payload: dict) -> dict:
    limits = Limits(**payload["limits"])
    bundle = build_bundle(PosetSpec.from_jsonable(payload["poset"]), limits)
    family = resolve_family(bundle, payload["family"])
    antichains = [frozenset(a) for a in payload["antichains"]]
    report = verify_weak_endowment(bundle.poset, bundle.strat, family, payload["n"], antichains)
    return report.to_jsonable()

def _selftest_worker(payload: dict) -> dict:
    """One seed's outcome; an exception becomes a failure record, so one bad
    seed does not abort the batch."""
    record = {"seed": payload["seed"], "mode": payload["mode"],
              "verdict": None, "replay_ok": False, "error": None}
    try:
        limits = Limits(**payload["limits"])
        bounds = Limits(**payload["bounds"])
        scenario = generate_scenario(payload["seed"], payload["mode"], bounds, limits)
        cert = run_preservation(scenario, limits)
        record["verdict"] = cert.verdict
        record["replay_ok"] = replay_certificate(cert.to_jsonable(), limits).ok
    except Exception as exc:  # the batch must keep running
        traceback.print_exc()
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


# -- subcommands ---------------------------------------------------------------


def cmd_endow_verify(args, limits: Limits) -> int:
    spec = parse_poset_spec(args.poset)
    bundle = build_bundle(spec, limits)
    family = resolve_family(bundle, args.family)
    exhaustive = args.exhaustive or (args.seeded is None and len(bundle.poset) <= EXHAUSTIVE_LIMIT)
    if not exhaustive and args.seeded is None:
        raise UsageError(
            f"poset has {len(bundle.poset)} conditions; pass --seeded COUNT for sampling")
    antichains = gather_antichains(bundle.poset, exhaustive, args.seeded or 0, args.seed)
    if args.jobs > 1 and len(antichains) >= 2 * args.jobs:
        step = -(-len(antichains) // args.jobs)
        chunks = [list(map(sorted, antichains[i:i + step]))
                  for i in range(0, len(antichains), step)]
        payloads = [
            {
                "limits": dataclasses.asdict(limits),
                "poset": spec.to_jsonable(),
                "family": args.family,
                "n": args.n,
                "antichains": chunk,
            }
            for chunk in chunks if chunk
        ]
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            parts = list(pool.map(_endow_chunk_worker, payloads))
        weak = {
            "family": parts[0]["family"],
            "level": args.n,
            "antichains_checked": sum(p["antichains_checked"] for p in parts),
            "violations": [v for p in parts for v in p["violations"]],
        }
        weak["ok"] = not weak["violations"]
    else:
        weak = verify_weak_endowment(
            bundle.poset, bundle.strat, family, args.n, antichains).to_jsonable()
    result = {
        "poset": spec.to_jsonable(),
        "mode": "exhaustive" if exhaustive else f"seeded:{args.seeded}",
        "weak": weak,
    }
    lines = [
        f"poset: {args.poset} ({len(bundle.poset)} conditions)",
        f"family: {weak['family']}  level: {args.n}",
        f"antichains checked: {weak['antichains_checked']} ({result['mode']})",
        f"weak endowment: {'ok' if weak['ok'] else 'VIOLATIONS'}",
    ]
    ok = weak["ok"]
    if args.full:
        full = verify_full_endowment(
            bundle.poset, bundle.strat, family, args.n, antichains, args.budget).to_jsonable()
        result["full"] = full
        lines.append(f"joint extension clause: {'ok' if full['ok'] else 'VIOLATIONS'}")
        ok = ok and full["ok"]
    for violation in weak["violations"][:5]:
        lines.append(f"  clause {violation['clause']}: witness {violation['witness']!r} "
                     f"in antichain {violation['antichain']}")
    emit(args, result, lines)
    return 0 if ok else 3


def cmd_dow(args, limits: Limits) -> int:
    spec = parse_poset_spec(args.poset)
    if spec.kind != "cohen":
        raise UsageError("the staged construction needs a cohen:D=<n> poset")
    cohen = CohenPoset(spec.indices, limits)
    trace = dow_construct(cohen, args.member, args.n)
    hits = hits_level(cohen.poset, cohen.stratification().at(args.n), trace.result)
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


def cmd_approx(args, limits: Limits) -> int:
    spec = parse_poset_spec(args.poset)
    bundle = build_bundle(spec, limits)
    space = FiniteSpace.from_jsonable(load_instance(args.space, "space"), limits)
    name = make_cover_name(bundle.poset, space, Name.from_jsonable(load_instance(args.name, "name")).pairs)
    family = resolve_family(bundle, args.family)
    point_names = derive_point_names(bundle.poset, space, name)
    approx = approximate(bundle.poset, point_names, args.n, family)
    cert = check_approximation(bundle.poset, bundle.strat, name, approx)
    result = {
        "point_names": [pn.to_jsonable() for pn in point_names],
        "approximation": approx.to_jsonable(),
        "certificate": cert.to_jsonable(),
    }
    lines = [f"level {args.n} cover: {[sorted(v) for v in approx.cover]}",
             f"certificate: {'positive' if cert.positive else 'NEGATIVE'} "
             f"({len(cert.triples)} dense witnesses)"]
    if cert.counterexample is not None:
        lines.append(f"counterexample: piece {list(cert.counterexample[0])} "
                     f"at condition {cert.counterexample[1]!r}")
    emit(args, result, lines)
    return 0 if cert.positive else 3


def cmd_refine(args, limits: Limits) -> int:
    spec = parse_poset_spec(args.poset)
    bundle = build_bundle(spec, limits)
    space = FiniteSpace.from_jsonable(load_instance(args.space, "space"), limits)
    name = make_cover_name(bundle.poset, space, Name.from_jsonable(load_instance(args.name, "name")).pairs)
    raw = read_json(args.sets)
    check_shape(raw, [[str]], "ground family")
    family = [frozenset(s) for s in raw]
    refined, cert = refine_name(bundle.poset, bundle.strat, args.n, name, family, space)
    result = {"refined_name": refined.to_jsonable(), "certificate": cert.to_jsonable()}
    lines = [f"refined name: {len(refined.pairs)} pairs",
             f"certificate: {'positive' if cert.positive else 'NEGATIVE'}"]
    emit(args, result, lines)
    return 0 if cert.positive else 3


def cmd_preserve(args, limits: Limits) -> int:
    payload = load_instance(args.scenario, "scenario")
    scenario = Scenario.from_jsonable(payload)
    if args.property is not None:
        scenario = dataclasses.replace(scenario, mode=args.property)
    cert = run_preservation(scenario, limits)
    data = cert.to_jsonable()
    Path(args.cert).write_text(canonical_json(data) + "\n")
    lines = [
        f"property: {scenario.mode}  floor: {cert.floor}  levels: {len(scenario.names)}",
        f"atoms certified: {len({row.atom for row in cert.atom_table})}",
        f"verdict: {cert.verdict}",
        f"certificate written to {args.cert}",
    ]
    emit(args, data, lines)
    return 0 if cert.verdict == "positive" else 3


def cmd_verify(args, limits: Limits) -> int:
    report = replay_certificate(read_json(args.cert), limits)
    lines = [f"replay: {'ok' if report.ok else 'MISMATCH'}"]
    if not report.ok:
        lines.append(f"mismatching sections: {list(report.mismatches)}")
    emit(args, report.to_jsonable(), lines)
    return 0 if report.ok else 3


def cmd_gen(args, limits: Limits) -> int:
    bounds = parse_bounds(args.bounds)
    scenario = generate_scenario(args.seed, args.property, bounds, limits)
    payload = scenario.to_jsonable()
    if args.out:
        save_instance(args.out, "scenario", payload)
        emit(args, wrap_instance("scenario", payload), [f"scenario written to {args.out}"])
    else:
        print(canonical_json_pretty(wrap_instance("scenario", payload)))
    return 0


def _oracle_sweep(rng: random.Random, limits: Limits, queries: int) -> int:
    """Count agreements between the two forcing oracles on random queries."""
    pool = [
        CohenPoset((0,), limits).poset,
        CohenPoset((0, 1), limits).poset,
        MeasurePoset(1, limits).poset,
    ]
    agree = 0
    for _ in range(queries):
        poset = pool[rng.randrange(len(pool))]
        pairs = tuple(
            (poset.elements[rng.randrange(len(poset))],
             frozenset(x for x in "xy" if rng.random() < 0.5))
            for _ in range(rng.randint(0, 4))
        )
        name = Name(pairs)
        p = poset.elements[rng.randrange(len(poset))]
        lower = frozenset(x for x in "xy" if rng.random() < 0.5)
        direct = forces(poset, p, ExistsSupersetInCover(name, lower))
        if direct == forces_dense(poset, p, name, lower):
            agree += 1
    return agree


def cmd_selftest(args, limits: Limits) -> int:
    bounds = parse_bounds(args.bounds)
    _check_bounds(bounds, limits)
    problems: list[str] = []
    lines: list[str] = []

    queries = 200
    agree = _oracle_sweep(random.Random(args.seed), limits, queries)
    if agree != queries:
        problems.append("forcing oracles disagree")
    lines.append(f"forcing oracles agree: {agree}/{queries}")

    staged_ok = True
    for size in (1, 2):
        cohen = CohenPoset(tuple(range(size)), limits)
        family = cohen_dow_family(cohen)
        antichains = cohen.poset.maximal_antichains()
        for n in range(4):
            report = verify_weak_endowment(
                cohen.poset, cohen.stratification(), family, n, antichains)
            staged_ok = staged_ok and report.ok
    if not staged_ok:
        problems.append("staged hitting guarantee failed")
    lines.append(f"staged hitting guarantee (exhaustive D<=2, n<=3): "
                 f"{'ok' if staged_ok else 'FAILED'}")

    measure_ok = True
    for k in (1, 2):
        algebra = MeasurePoset(k, limits)
        family = measure_total_family(algebra)
        antichains = algebra.poset.maximal_antichains()
        for n in range(3):
            report = verify_weak_endowment(
                algebra.poset, algebra.stratification(), family, n, antichains)
            measure_ok = measure_ok and report.ok
    if not measure_ok:
        problems.append("measure extraction bound failed")
    lines.append(f"measure extraction bound (exhaustive k<=2, n<=2): "
                 f"{'ok' if measure_ok else 'FAILED'}")

    fixed = [fixture_cohen_pair(mode=mode) for mode in MODES[:2]]
    fixed.append(fixture_measure_pair(mode=MODES[2]))
    fixed_ok = 0
    for scenario in fixed:
        cert = run_preservation(scenario, limits)
        if cert.verdict == "positive" and replay_certificate(cert.to_jsonable(), limits).ok:
            fixed_ok += 1
    if fixed_ok != len(fixed):
        problems.append("fixed scenario failed")
    lines.append(f"fixed scenarios positive and replayed: {fixed_ok}/{len(fixed)}")

    payloads = [
        {
            "limits": dataclasses.asdict(limits),
            "bounds": dataclasses.asdict(bounds),
            "seed": args.seed + i,
            "mode": MODES[i % len(MODES)],
        }
        for i in range(args.count)
    ]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_selftest_worker, payloads))
    else:
        results = [_selftest_worker(p) for p in payloads]
    failures = [r for r in results if r["verdict"] != "positive" or not r["replay_ok"]]
    result = {
        "oracle_agreements": agree,
        "oracle_queries": queries,
        "staged_ok": staged_ok,
        "measure_ok": measure_ok,
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
    p.add_argument("--exhaustive", action="store_true", help="force exhaustive enumeration")
    p.add_argument("--seeded", type=int, default=None, metavar="COUNT",
                   help="sample COUNT random maximal antichains instead")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--full", action="store_true", help="also check the joint extension clause")
    p.add_argument("--budget", type=int, default=DEFAULT_FULL_BUDGET)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_endow_verify)

    p = sub.add_parser("dow", help="run the staged antichain construction")
    p.add_argument("poset", help="cohen:D=<n>")
    p.add_argument("--member", action="append", required=True,
                   help="maximal antichain member (repeat)")
    p.add_argument("--n", type=int, required=True, help="stage count")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_dow)

    p = sub.add_parser("approx", help="ground cover approximation of a name")
    p.add_argument("--poset", required=True)
    p.add_argument("--space", required=True, help="space instance file")
    p.add_argument("--name", required=True, help="name instance file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", default="default", choices=["default", "maximal", "adversarial"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("refine", help="refine a name over a ground family")
    p.add_argument("--poset", required=True)
    p.add_argument("--space", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sets", required=True, help="JSON list of point lists")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("preserve", help="run a preservation scenario end to end")
    p.add_argument("--scenario", required=True, help="scenario instance file")
    p.add_argument("--property", choices=list(MODES), default=None,
                   help="override the scenario's property")
    p.add_argument("--cert", required=True, help="certificate output path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_preserve)

    p = sub.add_parser("verify", help="replay a preservation certificate")
    p.add_argument("--cert", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a seeded scenario")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--property", choices=list(MODES), default=None)
    p.add_argument("--out", default=None, help="output file (stdout when omitted)")
    p.add_argument("--bounds", default="default", help="'default', 'large', or JSON")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("selftest", help="generate, run, and replay scenarios")
    p.add_argument("--count", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bounds", default="default", help="'default', 'large', or JSON")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        limits = limits_from_env(os.environ)
        return args.func(args, limits)
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
