"""The functions under src/ that no `cli.main` call reaches.

Runs the tier-1 tests under `tests/` in this process under `sys.setprofile`,
records each function the profiler sees called while a `cli.main` call is
running, and lists every named function of the `endowlab` package, nested
ones included, that was never recorded.  The tests under `bench/` are left
out: they wrap `cli.main` in the benchmark's tracer, and what the tracer
reads would count as reached by a command.  Each listed function needs a line
`module.qualname: why it stays` in `tests/reach_allowlist.txt`; a line
that names no listed function is stale.  From the repository root:

    PYTHONPATH=src python tests/reach_report.py

It prints the list, then one line per unlisted function, stale line or
line without a reason, and exits 1 on any of them or when the suite fails.
The run takes about 80 s on a shared 2-core machine.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import threading
from functools import cached_property
from pathlib import Path
from types import CodeType, FunctionType

import pytest

import endowlab
import endowlab.cli as cli

ROOT = Path(__file__).resolve().parents[1]
ALLOWLIST = ROOT / "tests" / "reach_allowlist.txt"
SOURCE = str(Path(endowlab.__file__).parent)


def _functions_of(value) -> list[FunctionType]:
    """The plain functions a module attribute holds: itself, or a class's
    methods, class methods, property getters and cached properties."""
    if isinstance(value, FunctionType):
        return [value]
    if not isinstance(value, type):
        return []
    found = []
    for member in vars(value).values():
        if isinstance(member, classmethod):
            member = member.__func__
        if isinstance(member, property):
            member = member.fget
        elif isinstance(member, cached_property):
            member = member.func
        if isinstance(member, FunctionType):
            found.append(member)
    return found


def package_functions() -> dict[int, str]:
    """Every named function defined under src/, as `module.qualname` by the
    id of its code object; a nested function is found among the constants
    of the code around it."""
    names: dict[int, str] = {}

    def add(code: CodeType, name: str) -> None:
        names[id(code)] = name
        for inner in code.co_consts:
            if isinstance(inner, CodeType) and not inner.co_name.startswith("<"):
                add(inner, f"{name}.<locals>.{inner.co_name}")

    for info in pkgutil.iter_modules(endowlab.__path__):
        module = importlib.import_module(f"endowlab.{info.name}")
        for value in vars(module).values():
            for function in _functions_of(value):
                code = function.__code__
                if code.co_filename.startswith(SOURCE) and function.__module__ == module.__name__:
                    add(code, f"{info.name}.{function.__qualname__}")
    return names


def reached_in_suite(args: list[str]) -> tuple[int, set[int]]:
    """Run pytest on `args`; return its exit status and the ids of the code
    objects called while a `cli.main` call was running."""
    main = cli.main.__code__
    reached: set[int] = set()
    depth = 0  # `cli.main` calls now running

    def profile(frame, event, arg) -> None:
        nonlocal depth
        if event == "call":
            code = frame.f_code
            if code is main:
                depth += 1
            if depth:
                reached.add(id(code))
        elif event == "return" and frame.f_code is main:
            depth -= 1

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        status = pytest.main(args)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return int(status), reached


def read_allowlist(path: Path) -> tuple[dict[str, str], list[str]]:
    """The allowlist's names with their reasons, and a problem per line
    without a reason; blank lines and lines starting with # are skipped."""
    allowed, problems = {}, []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(":")
        if not reason.strip():
            problems.append(f"{path.name}:{number}: no reason given for {name.strip()}")
        allowed[name.strip()] = reason.strip()
    return allowed, problems


def main() -> int:
    names = package_functions()
    status, reached = reached_in_suite(
        ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests")])
    unreached = sorted(name for key, name in names.items() if key not in reached)
    allowed, problems = read_allowlist(ALLOWLIST)
    print(f"functions under src/ that no cli.main call reaches ({len(unreached)} of {len(names)}):")
    for name in unreached:
        print(f"  {name}")
    problems += [f"not in {ALLOWLIST.name}: {name}" for name in unreached if name not in allowed]
    problems += [f"{ALLOWLIST.name} names no unreached function: {name}"
                 for name in allowed if name not in unreached]
    if status:
        problems.append(f"the suite exited {status}, so the list may miss what a failing test reaches")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
