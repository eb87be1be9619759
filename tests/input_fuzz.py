"""Seeded input fuzzer for the command line.

Each run takes either a well-formed instance (a scenario, a name, a space,
an explicit poset, or a golden certificate) or a well-formed command line,
applies one to three random mutations, and runs `endowlab.cli.main` on the
result in this process under a time cap.  An instance is parsed, mutated
as a tree and written back: a mutation swaps a value (the whole document
included) for a different random JSON value, often of another type and
sometimes a nested list or object, drops an object key or list entry, adds
an object key, or duplicates a list entry.  A command line is mutated as a
list of options: a mutation swaps an option's value or a positional
argument for a negative, huge or non-integer one, repeats an option, drops
one, or, for `dow`, adds a `--member` that is unknown, a duplicate, or
breaks maximality.  Runs start in a scratch directory, so an output path
a mutation makes up lands there.  A run is a finding when its exit code is
not in the README's exit-code table or is 1 (a program fault), when an
exception escapes `main`, when "Traceback" appears on stderr, or when it
outlives the cap.

The tests run a few hundred mutations; for a longer run:

    PYTHONPATH=src python tests/input_fuzz.py --count 5000 --seed 1
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import os
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

EXIT_CODES = frozenset({0, 2, 3, 64, 65, 70})  # the README's exit-code table less 1
GOLDEN = Path(__file__).parent / "golden"
CAP_S = 10.0  # seconds allowed per run
LEAVES = (None, True, False, -2, -1, 0, 1, 6, 10**30, 1.5, "", "x", "1", "0:0", "0:1,1:0", "x,y")
NEW_KEYS = ("extra", "k", "", "kind", "set", "condition", "points", "payload")
DIAMOND = {"elements": ["t", "a", "b", "z"], "leq": [["a", "t"], ["b", "t"], ["z", "a"], ["z", "b"]]}
# option values: negative, zero, huge, and not integers at all
ARG_VALUES = ("-1", "-3", "0", str(10**30), "99999999999", "1.5", "x", "", "0x10", "1e3")
# `dow` members beside the given ones: unknown, or breaking maximality
MEMBERS = ("nowhere", "9:9", "0:2", "0:0,1:0", "")


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


def mutate_argv(rng: random.Random, command: str, items):
    """A mutated command line, with a note of each step.  `items` are
    (option, value) pairs in order: a positional argument has option None,
    a flag has value None."""
    items = list(items)
    notes = []
    for _ in range(rng.randint(1, 3)):
        valued = [i for i, (_, value) in enumerate(items) if value is not None]
        options = [i for i, (option, _) in enumerate(items) if option is not None]
        ops = (["value"] if valued else []) + (["repeat", "drop"] if options else [])
        if command == "dow":
            ops.append("member")
        if not ops:  # every option dropped
            break
        op = rng.choice(ops)
        if op == "value":
            i = rng.choice(valued)
            items[i] = (items[i][0], rng.choice(ARG_VALUES))
            notes.append(f"value {items[i]}")
        elif op == "repeat":
            item = items[rng.choice(options)]
            items.insert(rng.randrange(len(items) + 1), item)
            notes.append(f"repeat {item}")
        elif op == "drop":
            notes.append(f"drop {items.pop(rng.choice(options))}")
        else:
            given = tuple(value for option, value in items if option == "--member")
            items.append(("--member", rng.choice(MEMBERS + given)))
            notes.append(f"member {items[-1][1]!r}")
    argv = [command]
    for option, value in items:
        argv += [a for a in (option, value) if a is not None]
    return argv, notes


def _instance_target(label: str, tree, file_name: str, argv_of):
    """A target that mutates an instance, writes it to `file_name` and runs
    the command line `argv_of(work, path)`."""
    def make(rng: random.Random, work: Path):
        mutated, notes = mutate(rng, tree)
        text = json.dumps(mutated)
        path = work / file_name
        path.write_text(text)
        return argv_of(work, str(path)), notes, text
    return label, make


def _argv_target(command: str, *items):
    """A target that mutates the command line `command` plus `items`."""
    def make(rng: random.Random, work: Path):
        argv, notes = mutate_argv(rng, command, items)
        return argv, notes, json.dumps(argv)
    return f"argv {command}", make


def _targets():
    """(label, make) per fuzzed input; `make(rng, work)` returns the
    mutated command line, the mutation notes and the input to report."""
    scenarios = [fixture_cohen_pair(), fixture_measure_pair(mode="menger"),
                 generate_scenario(0, "selective-screenability")]
    targets = [_instance_target(
        f"scenario {i}", wrap_instance("scenario", s.to_jsonable()), "in.json",
        lambda d, f: ["preserve", "--scenario", f, "--cert", str(d / "out.cert.json")])
        for i, s in enumerate(scenarios)]
    targets.append(_instance_target(
        "name", wrap_instance("name", cohen_pair_name_payload()), "in.json",
        lambda d, f: ["approx", "--poset", "cohen:D=2", "--space",
                      str(d / "space.json"), "--name", f, "--n", "1"]))
    targets.append(_instance_target(
        "space", wrap_instance("space", pair_space_payload()), "in.json",
        lambda d, f: ["approx", "--poset", "cohen:D=2", "--space", f,
                      "--name", str(d / "name.json"), "--n", "1"]))
    targets.append(_instance_target(
        "poset", wrap_instance("poset", DIAMOND), "in.json",
        lambda d, f: ["endow-verify", f"@{f}", "--n", "1"]))
    goldens = sorted(GOLDEN.glob("*.cert.json"))
    for golden in goldens:
        targets.append(_instance_target(
            golden.name, json.loads(golden.read_text()), "in.cert.json",
            lambda d, f: ["verify", "--cert", f]))
    # the files named here are written by `run_fuzz` in the scratch directory
    targets += [
        _argv_target("endow-verify", (None, "cohen:D=2"), ("--n", "1"), ("--seeded", "3"),
                     ("--seed", "0"), ("--full", None), ("--budget", "100")),
        _argv_target("endow-verify", (None, "measure:k=1"), ("--n", "1"),
                     ("--family", "maximal"), ("--exhaustive", None), ("--json", None)),
        _argv_target("dow", (None, "cohen:D=2"), ("--member", "0:0"), ("--member", "0:1"),
                     ("--n", "1")),
        _argv_target("approx", ("--poset", "cohen:D=2"), ("--space", "space.json"),
                     ("--name", "name.json"), ("--n", "1")),
        _argv_target("refine", ("--poset", "cohen:D=2"), ("--space", "space.json"),
                     ("--name", "name.json"), ("--n", "1"), ("--sets", "sets.json")),
        _argv_target("preserve", ("--scenario", "scenario.json"), ("--cert", "out.cert.json"),
                     ("--property", "menger")),
        _argv_target("verify", ("--cert", str(goldens[0]))),
        _argv_target("gen", ("--seed", "3"), ("--bounds", "default")),
        _argv_target("selftest", ("--count", "1"), ("--seed", "0")),
    ]
    return targets


def _raise_timeout(signum, frame):
    raise RunTimeout


def run_fuzz(count: int, seed: int) -> list[str]:
    """Run `count` seeded mutations; return one line per finding."""
    rng = random.Random(seed)
    targets = _targets()
    findings = []
    cwd = os.getcwd()
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            os.chdir(work)
            (work / "space.json").write_text(json.dumps(wrap_instance("space", pair_space_payload())))
            (work / "name.json").write_text(json.dumps(wrap_instance("name", cohen_pair_name_payload())))
            (work / "sets.json").write_text(json.dumps([["x"], ["x", "y"]]))
            (work / "scenario.json").write_text(
                json.dumps(wrap_instance("scenario", fixture_cohen_pair().to_jsonable())))
            for run in range(count):
                label, make = rng.choice(targets)
                argv, notes, text = make(rng, work)
                out, err = io.StringIO(), io.StringIO()
                problem = None
                signal.setitimer(signal.ITIMER_REAL, CAP_S)
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main(argv)
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
        os.chdir(cwd)
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
