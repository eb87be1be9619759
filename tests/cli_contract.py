"""The command line's contract, checked in fresh interpreters.

`CASES` is one table, run in order in one scratch directory.  Each case
runs `python -m endowlab.cli ARGV`, or `python ARGV` when ARGV starts with
`-c`, `-m` or `-X`, in a new interpreter, and checks its exit code under a
time cap.  A case may also set one environment entry, write its derived inputs
first (`setup`), require texts on stderr, check its stdout or the files it
wrote (`check`), and run against a copy of `src/` in which one text, found
exactly once, is replaced: a mutant, which its case must kill.  Every case
fails on "Traceback" in stderr unless it expects exit 1 or requires a
traceback.  Each interpreter starts from this process's environment, with
PYTHONPATH set to the source directory under test and ENDOWLAB_BOUNDS
removed unless the case sets it.

Tier-1 checks the table's shape and runs the cases that need no mutant
(`tests/test_cli.py`).  The whole table takes about 11–16 s on a shared
2-core machine:

    PYTHONPATH=src python tests/cli_contract.py

It prints one line per failing case and a total, and exits 1 on any
failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

from endowlab.instances import cohen_pair_name_payload, fixture_cohen_pair, pair_space_payload, save_instance
from endowlab.preservation import generate_scenario

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"


class Case(NamedTuple):
    code: int  # the expected exit code
    argv: tuple[str, ...]
    env: tuple[str, str] | None = None
    mutant: tuple[str, str, str] | None = None  # (file under endowlab/, text, replacement)
    cap: float = 60  # seconds
    stderr: tuple[str, ...] = ()  # texts stderr must hold
    check: Callable[[str, Path], str | None] | None = None  # (stdout, directory) -> problem
    setup: Callable[[Path], None] | None = None  # writes derived inputs into the directory


def case(code: int, *argv: str, **options) -> Case:
    return Case(code, argv, **options)


# -- checks and setups ----------------------------------------------------------


def stdout_starts(prefix: str):
    return lambda out, work: None if out.startswith(prefix) else f"stdout does not start with {prefix!r}"


def stdout_has(text: str):
    return lambda out, work: None if text in out else f"stdout lacks {text!r}"


def stdout_json(test: Callable[[object], bool], what: str):
    def check(out, work):
        try:
            return None if test(json.loads(out)) else f"stdout JSON has no {what}"
        except (ValueError, LookupError, TypeError):
            return f"stdout is no JSON object with {what}"
    return check


def same_bytes(a: str | Path, b: str | Path):
    """`a` and `b`, relative to the case's directory, hold the same bytes."""
    return lambda out, work: None if (work / a).read_bytes() == (work / b).read_bytes() else f"{a} and {b} differ"


def write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data))


def derived_inputs(work: Path) -> None:
    """The inputs the cases derive from the goldens and the fixtures."""
    goldens = {g: json.loads((GOLDEN / f"{g}.cert.json").read_text()) for g in ("cohen-pair", "measure-pair")}
    for g, data in goldens.items():
        write_json(work / f"{g}.scenario.json",
                   {"format_version": 1, "kind": "scenario", "payload": data["scenario"]})
    (work / "indented.cert.json").write_text(json.dumps(goldens["cohen-pair"], indent=2))
    write_json(work / "flipped.cert.json", {**goldens["cohen-pair"], "verdict": "negative"})
    save_instance(work / "nine.json", "scenario", fixture_cohen_pair(levels=9).to_jsonable())
    save_instance(work / "pair.space.json", "space", pair_space_payload())
    save_instance(work / "pair.name.json", "name", cohen_pair_name_payload())
    write_json(work / "sets.json", [["y"]])
    # level 4 of `gen --seed 10` (measure k=2) approximates negatively under
    # the adversarial family
    scenario = generate_scenario(10).to_jsonable()
    save_instance(work / "g.space.json", "space", scenario["space"])
    save_instance(work / "g4.name.json", "name", scenario["names"][4])
    # ten groups of a bottom below three atoms: 4^10 maximal antichains
    g = range(10)
    save_instance(work / "groups10.json", "poset", {
        "elements": [c for i in g for c in [f"b{i}", f"a{i}_0", f"a{i}_1", f"a{i}_2"]],
        "leq": [[f"b{i}", f"a{i}_{j}"] for i in g for j in range(3)]})


def accented(work: Path) -> None:
    """The pair fixture's scenario with point x renamed to é, written as
    UTF-8 bytes rather than as a JSON escape."""
    text = json.dumps({"format_version": 1, "kind": "scenario", "payload": fixture_cohen_pair().to_jsonable()},
                      ensure_ascii=False)
    (work / "accented.json").write_text(text.replace('"x"', '"é"'), encoding="utf-8")


def reordered(work: Path) -> None:
    """`s.json` with every name's pairs reversed and its first pair repeated."""
    data = json.loads((work / "s.json").read_text())
    data["payload"]["names"] = [n[::-1] + n[:1] for n in data["payload"]["names"]]
    write_json(work / "reordered.json", data)


# selftest imports `traceback` only when a scenario raises a program fault;
# pytest preloads it, so only a fresh interpreter shows the traceback
FAULT = """import sys, endowlab.cli as cli
def boom(*args): raise RuntimeError("boom")
cli.run_preservation = boom
sys.exit(cli.main(["selftest", "--count", "1"]))"""

PARTIAL = stdout_json(lambda d: "partial" in d, "partial entry")
PYTEST = ("-m", "pytest", "-q", "-p", "no:cacheprovider")

CASES = [
    case(0, "--help", check=stdout_starts("usage: endowlab")),
    case(0, "preserve", "--help", check=stdout_starts("usage: endowlab")),
    case(0, "verify", "--cert", f"{GOLDEN}/cohen-pair.cert.json"),
    case(0, "verify", "--cert", f"{GOLDEN}/measure-pair.cert.json"),
    case(0, "verify", "--cert", "indented.cert.json", setup=derived_inputs),
    case(3, "verify", "--cert", "flipped.cert.json"),
    # preserve writes each golden again, byte for byte, from its embedded scenario
    *(case(0, "preserve", "--scenario", f"{g}.scenario.json", "--cert", f"{g}.cert.json",
           check=same_bytes(f"{g}.cert.json", GOLDEN / f"{g}.cert.json"))
      for g in ("cohen-pair", "measure-pair")),
    case(0, "gen", "--seed", "11", "--out", "s.json"),
    case(0, "preserve", "--scenario", "s.json", "--cert", "s.cert.json"),
    case(0, "verify", "--cert", "s.cert.json"),
    # names are normalised where they enter: reordered pairs certify the same bytes
    case(0, "preserve", "--scenario", "reordered.json", "--cert", "reordered.cert.json",
         setup=reordered, check=same_bytes("s.cert.json", "reordered.cert.json")),
    case(0, "verify", "--cert", "reordered.cert.json"),
    # instance files are UTF-8 whatever the locale: the C locale, with UTF-8
    # mode off, would read them as ASCII
    case(0, "-X", "utf8=0", "-m", "endowlab.cli", "preserve", "--scenario", "accented.json",
         "--cert", "accented.cert.json", env=("LC_ALL", "C"), setup=accented),
    case(65, "preserve", "--scenario", "s.json", "--cert", "missing/x.cert.json"),
    case(65, "gen", "--seed", "0", "--out", "."),
    case(65, "gen", "--seed", "0", "--bounds", '{"max_indices":0,"max_k":0,"max_poset":2}',
         stderr=("error: generation bounds leave no poset kind available",)),
    case(0, "dow", "cohen:D=2", "--member", "0:0", "--member", "0:1", "--n", "1"),
    case(65, "dow", "cohen:D=2", "--member", "0:0", "--n", "1"),
    case(65, "dow", "cohen:D=2", "--member", "nowhere", "--n", "1"),
    case(0, "selftest", "--count", "24", "--seed", "0"),
    case(0, "selftest", "--count", "200", "--seed", "7"),
    case(3, "-c", FAULT, stderr=("Traceback", "RuntimeError: boom")),
    # selftest's oracle sweep catches a wrong forcing mask (e) and a wrong
    # refinement mask (b)
    case(3, "selftest", "--count", "24", "--seed", "0",
         mutant=("names.py", "outside = ~truth_mask & ", "outside = ~(truth_mask | 1) & ")),
    case(3, "selftest", "--count", "24", "--seed", "0",
         mutant=("poset.py", "mask &= ~present | superset_mask(coarser, u)",
                 "mask &= superset_mask(coarser, u)")),
    # a kernel that drops the last atom of each mask (f) trips an invariant
    # check: a program fault, not bad input
    case(1, "verify", "--cert", f"{GOLDEN}/cohen-pair.cert.json", stderr=("InvariantError",),
         mutant=("poset.py", "above |= atom_up[low.bit_length() - 1]",
                 "above |= atom_up[low.bit_length() - 1] if atoms else 0")),
    # a self-least mask that marks every position (g) makes a condition its
    # own witness even when a stronger one comes first, which only explicit
    # posets do; selftest's oracle pool holds one, and the kernel tests kill it
    *(case(code, *argv, mutant=("poset.py", "if not mask & ((1 << i) - 1)", "if mask"))
      for code, argv in ((3, ("selftest", "--count", "24", "--seed", "0")),
                         (1, (*PYTEST, f"{ROOT}/tests/test_kernel.py")))),
    # claims that overlap (i) let dow_construct keep an element for a
    # position an earlier element claimed; the kernel tests kill it, while
    # selftest's Cohen posets are too small to show it
    case(1, *PYTEST, f"{ROOT}/tests/test_kernel.py",
         mutant=("endowment.py", "claims.append((elements[i], rest & compatible[i]))",
                 "claims.append((elements[i], compatible[i]))")),
    # a patched witness written into its own skeleton entry (h) breaks the
    # certificate text wherever a witness differs from its condition
    case(1, *PYTEST, f"{ROOT}/tests/test_certificate_text.py",
         mutant=("canon.py", "skeleton[i] = ", "skeleton[i - 1] = ")),
    # a refined value mask that skips the last row of its column (j) leaves
    # the atoms below the identifier-last condition out of the closing pass
    case(1, *PYTEST, f"{ROOT}/tests/test_names.py",
         mutant=("names.py", "compress(atom_masks, column)", "compress(atom_masks, column[:-1])")),
    # openness that asks a point's least neighborhood only to meet the set (k)
    # makes every set open that meets each of its points' neighborhoods
    case(1, *PYTEST, f"{ROOT}/tests/test_topology.py",
         mutant=("topology.py", "neighborhoods[x] <= s", "neighborhoods[x] & s")),
    # a committed set taken from the last value holding a used member (l)
    # instead of the first changes the pieces; the prior-step references
    # and the frozenset oracle of the name tests kill it
    case(1, *PYTEST, f"{ROOT}/tests/test_names.py",
         mutant=("names.py", "for u, r in values:", "for u, r in reversed(values):")),
    # a staged loop that stops one stage early (m) drops the last stage's
    # keepers; the kernel tests kill it
    case(1, *PYTEST, f"{ROOT}/tests/test_kernel.py",
         mutant=("endowment.py", "for _ in range(n):", "for _ in range(n - 1):")),
    case(64, "selftest", "--count", "1", "--jobs", "2"),
    case(65, "selftest", "--count", "3", "--bounds", '{"max_points": 1}'),
    case(70, "preserve", "--scenario", "nine.json", "--cert", "nine.cert.json"),
    case(70, "selftest", "--count", "10001"),
    case(70, "endow-verify", "cohen:D=2", "--n", "1", "--seeded", "10001"),
    case(0, "endow-verify", "cohen:D=5", "--n", "2", "--seeded", "5"),
    case(0, "endow-verify", "measure:k=3", "--n", "1", "--seeded", "5"),
    case(0, "endow-verify", "measure:k=3", "--n", "1", "--seeded", "10000", "--seed", "3", "--full"),
    case(0, "endow-verify", "cohen:D=5", "--n", "1", "--seeded", "10000", "--seed", "3", "--full"),
    case(70, "endow-verify", "cohen:D=2", "--n", "1", "--exhaustive",
         env=("ENDOWLAB_BOUNDS", '{"max_poset": 5}')),
    # a built-in poset past `poset.MAX_CONDITIONS` is refused before it is built,
    # whatever limit lets its parameter through
    case(70, "endow-verify", "measure:k=4", "--n", "1", "--seeded", "1", cap=2,
         env=("ENDOWLAB_BOUNDS", '{"max_k": 4}'),
         stderr=("resource error: poset capped at 19683 conditions, got 2^(2^4) - 1",)),
    case(70, "endow-verify", "cohen:D=10", "--n", "1", "--seeded", "1", cap=2,
         env=("ENDOWLAB_BOUNDS", '{"max_indices": 10}'),
         stderr=("resource error: poset capped at 19683 conditions, got 3^10",)),
    case(70, "endow-verify", "cohen:D=2", "--n", "2", "--full", "--budget", "10", "--json",
         check=PARTIAL),
    # at n = 3 the joint clause scans rows with a two-entry prefix
    case(70, "endow-verify", "cohen:D=2", "--n", "3", "--full", "--budget", "100", "--json",
         check=PARTIAL),
    case(3, "endow-verify", "cohen:D=3", "--n", "2", "--full"),
    case(65, "refine", "--poset", "cohen:D=2", "--space", "pair.space.json",
         "--name", "pair.name.json", "--n", "1", "--sets", "sets.json"),
    case(3, "approx", "--poset", "measure:k=2", "--space", "g.space.json", "--name", "g4.name.json",
         "--n", "4", "--family", "adversarial",
         check=stdout_has("counterexample: piece ['x', 'y', 'z'] at condition '01'")),
    case(70, "endow-verify", "@groups10.json", "--n", "1", "--json", cap=20,
         check=stdout_json(lambda d: d["partial"] == {"antichains_reached": 100001, "cap": 100000},
                           "partial entry {antichains_reached: 100001, cap: 100000}")),
]


# -- the runner -------------------------------------------------------------------


def label(case: Case) -> str:
    text = f"exit {case.code} {' '.join(case.argv).splitlines()[0]}"
    return text if case.mutant is None else f"{text} [mutant {case.mutant[0]}: {case.mutant[2]!r}]"


def mutate(src: Path, mutant: tuple[str, str, str], work: Path) -> tuple[Path, str | None]:
    """A copy of `src` under `work` with the mutant's text replaced, and the
    problem when the text does not occur exactly once."""
    file, text, replacement = mutant
    copy = Path(tempfile.mkdtemp(prefix="mutant-", dir=work))
    shutil.copytree(src, copy, dirs_exist_ok=True, ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / "endowlab" / file
    source = path.read_text()
    if source.count(text) != 1:
        return copy, f"mutant text occurs {source.count(text)} times in {file}"
    path.write_text(source.replace(text, replacement))
    return copy, None


def run_case(case: Case, src: Path, work: Path) -> str | None:
    """Run one case in a fresh interpreter against `src`; its problem, or None."""
    env = {k: v for k, v in os.environ.items() if k != "ENDOWLAB_BOUNDS"}
    env["PYTHONPATH"] = str(src)
    if case.env is not None:
        env[case.env[0]] = case.env[1]
    argv = case.argv if case.argv[0] in ("-c", "-m", "-X") else ("-m", "endowlab.cli", *case.argv)
    try:
        run = subprocess.run([sys.executable, *argv], cwd=work, env=env,
                             capture_output=True, text=True, timeout=case.cap)
    except subprocess.TimeoutExpired:
        return f"still running after {case.cap} s"
    if run.returncode != case.code:
        last = run.stderr.strip().splitlines()[-1:]
        return f"exit {run.returncode}" + "".join(f" ({line})" for line in last)
    if "Traceback" in run.stderr and case.code != 1 and "Traceback" not in case.stderr:
        return "a traceback on stderr"
    missing = [text for text in case.stderr if text not in run.stderr]
    if missing:
        return f"stderr lacks {missing}"
    return None if case.check is None else case.check(run.stdout, work)


def run_table(cases, src: Path, work: Path) -> list[str]:
    """Run `cases` in order in `work` against the package in `src`, each
    mutant case against its own mutated copy of `src`; one line per failing
    case."""
    failures = []
    for case in cases:
        if case.setup is not None:
            case.setup(work)
        where, problem = (src, None) if case.mutant is None else mutate(src, case.mutant, work)
        problem = problem or run_case(case, where, work)
        if problem is not None:
            failures.append(f"FAIL {label(case)}: {problem}")
    return failures


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as work:
        failures = run_table(CASES, SRC, Path(work))
    for line in failures:
        print(line)
    print(f"{len(CASES)} cases, {len(failures)} failed, {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
