"""Seeded input fuzzer for the command line.

Each run takes a well-formed instance (a scenario, a name, a space, an
explicit poset, or a golden certificate), parses it, applies one to three
random mutations to the parsed tree, writes it back, and runs
`endowlab.cli.main` on it in this process under a time cap.  A mutation
swaps a value (the whole document included) for a different random JSON
value, often of another type and sometimes a nested list or object, drops
an object key or list entry, adds an object key, or duplicates a list
entry.  A run is a finding when its exit code is not in the
README's exit-code table, when an exception escapes `main`, when
"Traceback" appears on stderr, or when it outlives the cap.

The tests run a few hundred mutations; for a longer run:

    PYTHONPATH=src python tests/input_fuzz.py --count 5000 --seed 1
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import random
import signal
import sys
import tempfile
from pathlib import Path

from endowlab.cli import main
from endowlab.instances import (
    cohen_pair_name_payload,
    fixture_cohen_pair,
    fixture_measure_pair,
    pair_space_payload,
    wrap_instance,
)
from endowlab.preservation import generate_scenario

EXIT_CODES = frozenset({0, 2, 3, 64, 65, 70})  # the README's exit-code table
GOLDEN = Path(__file__).parent / "golden"
CAP_S = 10.0  # seconds allowed per run
LEAVES = (None, True, False, -2, -1, 0, 1, 6, 10**30, 1.5, "", "x", "1", "0:0", "0:1,1:0", "x,y")
NEW_KEYS = ("extra", "k", "", "kind", "set", "condition", "points", "payload")
DIAMOND = {"elements": ["t", "a", "b", "z"], "leq": [["a", "t"], ["b", "t"], ["z", "a"], ["z", "b"]]}


class RunTimeout(BaseException):
    """Raised inside a run that outlives its cap; not an `Exception`, so no
    handler in the program can swallow it."""


def json_nodes(tree, path=()):
    """Every (path, value) in a parsed JSON tree, the root first."""
    yield path, tree
    if type(tree) is dict:
        for key, value in tree.items():
            yield from json_nodes(value, path + (key,))
    elif type(tree) is list:
        for i, value in enumerate(tree):
            yield from json_nodes(value, path + (i,))


def random_value(rng: random.Random, depth: int = 2):
    """A random JSON value: a leaf, or, while `depth` lasts, a list of up to
    three values or an object of up to two."""
    kind = rng.randrange(4) if depth else 0
    if kind == 2:
        return [random_value(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    if kind == 3:
        return {rng.choice(NEW_KEYS): random_value(rng, depth - 1) for _ in range(rng.randint(0, 2))}
    return rng.choice(LEAVES)


def mutate(rng: random.Random, tree):
    """A mutated deep copy of a parsed JSON tree, with a note of each step."""
    tree = copy.deepcopy(tree)
    notes = []
    for _ in range(rng.randint(1, 3)):
        path, value = rng.choice(list(json_nodes(tree)))
        ops = ["swap", "drop"] if path else ["swap"]
        if type(value) is dict:
            ops.append("add")
        if type(value) is list and value:
            ops.append("duplicate")
        op = rng.choice(ops)
        parent = tree
        for step in path[:-1]:
            parent = parent[step]
        if op == "swap":
            new = random_value(rng)
            while new == value and type(new) is type(value):
                new = random_value(rng)
            if path:
                parent[path[-1]] = new
            else:
                tree = new
        elif op == "drop":
            del parent[path[-1]]
        elif op == "add":
            value[rng.choice(NEW_KEYS)] = random_value(rng)
        else:
            value.insert(rng.randrange(len(value) + 1), copy.deepcopy(rng.choice(value)))
        notes.append(f"{op} at {list(path)}")
    return tree, notes


def _targets():
    """(label, parsed instance, file name, argv builder) per fuzzed input."""
    scenarios = [fixture_cohen_pair(), fixture_measure_pair(mode="menger"),
                 generate_scenario(0, "selective-screenability")]
    targets = [(f"scenario {i}", wrap_instance("scenario", s.to_jsonable()), "in.json",
                lambda d, f: ["preserve", "--scenario", f, "--cert", str(d / "out.cert.json")])
               for i, s in enumerate(scenarios)]
    targets.append(("name", wrap_instance("name", cohen_pair_name_payload()), "in.json",
                    lambda d, f: ["approx", "--poset", "cohen:D=2", "--space",
                                  str(d / "space.json"), "--name", f, "--n", "1"]))
    targets.append(("space", wrap_instance("space", pair_space_payload()), "in.json",
                    lambda d, f: ["approx", "--poset", "cohen:D=2", "--space", f,
                                  "--name", str(d / "name.json"), "--n", "1"]))
    targets.append(("poset", wrap_instance("poset", DIAMOND), "in.json",
                    lambda d, f: ["endow-verify", f"@{f}", "--n", "1"]))
    for golden in sorted(GOLDEN.glob("*.cert.json")):
        targets.append((golden.name, json.loads(golden.read_text()), "in.cert.json",
                        lambda d, f: ["verify", "--cert", f]))
    return targets


def _raise_timeout(signum, frame):
    raise RunTimeout


def run_fuzz(count: int, seed: int) -> list[str]:
    """Run `count` seeded mutations; return one line per finding."""
    rng = random.Random(seed)
    targets = _targets()
    findings = []
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            (work / "space.json").write_text(json.dumps(wrap_instance("space", pair_space_payload())))
            (work / "name.json").write_text(json.dumps(wrap_instance("name", cohen_pair_name_payload())))
            for run in range(count):
                label, tree, file_name, argv_of = rng.choice(targets)
                mutated, notes = mutate(rng, tree)
                text = json.dumps(mutated)
                path = work / file_name
                path.write_text(text)
                out, err = io.StringIO(), io.StringIO()
                problem = None
                signal.setitimer(signal.ITIMER_REAL, CAP_S)
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main(argv_of(work, str(path)))
                    if code not in EXIT_CODES:
                        problem = f"exit {code!r}"
                    elif "Traceback" in err.getvalue():
                        problem = "a traceback on stderr"
                except RunTimeout:
                    problem = f"still running after {CAP_S} s"
                except (Exception, SystemExit) as exc:  # escaped `main`: a finding
                    problem = f"{type(exc).__name__}: {exc}"
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                if problem:
                    findings.append(f"run {run} ({label}; {', '.join(notes)}): {problem}; "
                                    f"input {text[:300]}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    return findings


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the seeded command-line input fuzzer.")
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    findings = run_fuzz(args.count, args.seed)
    for line in findings:
        print(line)
    print(f"{args.count} runs, {len(findings)} findings")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(_main())
