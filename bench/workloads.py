"""The benchmark's four workloads and the op each one times.

Each workload has a fixed catalog of inputs whose expected exit codes and
output digests are pinned in `pins.json`.  The benchmark's `--seed`
shuffles the order in which a run visits its catalog; the program only
ever sees the generated files and command lines.  Catalog sizes are chosen
so that a 25 s run on a 2-core machine visits every entry about once, which
keeps the input mix, and so the medians, the same from seed to seed.

Every op goes in-process through `endowlab.cli.main(argv)`, so instance
validation, file I/O, canonical JSON and exit codes are inside the timed
region; checking the outputs is not.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from builder import instance, limit_scenario, small_scenario

PINS = Path(__file__).resolve().parent / "pins.json"


@dataclass(frozen=True)
class Outcome:
    seconds: float
    exits: list[int]
    output: bytes          # the certificate file, or the --json report
    error: str | None = None


class CertifyOp:
    """`preserve` on a scenario file, then `verify` on its certificate."""

    def __init__(self, key: str, workdir: Path, payload: dict):
        self.key = key
        self.scenario = workdir / f"{key}.scenario.json"
        self.cert = workdir / f"{key}.cert.json"
        self.scenario.write_text(json.dumps(instance(payload)))

    def run(self, main) -> Outcome:
        start = time.perf_counter()
        made = call_cli(main, ["preserve", "--scenario", str(self.scenario), "--cert", str(self.cert)])
        replayed = call_cli(main, ["verify", "--cert", str(self.cert)])
        seconds = time.perf_counter() - start
        output = self.cert.read_bytes() if self.cert.exists() else b""
        self.cert.unlink(missing_ok=True)
        return Outcome(seconds, [made, replayed], output)

    def check(self, outcome: Outcome, pin: dict) -> str | None:
        return _check_common(outcome, pin)


class EndowOp:
    """One `endow-verify ... --full --json` command line."""

    def __init__(self, key: str, argv: list[str]):
        self.key = key
        self.argv = argv

    def run(self, main) -> Outcome:
        out = io.StringIO()
        start = time.perf_counter()
        code = call_cli(main, self.argv, out)
        seconds = time.perf_counter() - start
        return Outcome(seconds, [code], out.getvalue().encode())

    def check(self, outcome: Outcome, pin: dict) -> str | None:
        problem = _check_common(outcome, pin)
        if problem is None:
            found = violations(outcome.output)
            if found != pin["violations"]:
                problem = f"{found} violations, pinned {pin['violations']}"
        return problem


def call_cli(main, argv: list[str], out: io.StringIO | None = None) -> int:
    """Run one command, capturing what it prints; returns its exit code."""
    with contextlib.redirect_stdout(out or io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _check_common(outcome: Outcome, pin: dict) -> str | None:
    if outcome.error is not None:
        return outcome.error
    if outcome.exits != pin["exit"]:
        return f"exit codes {outcome.exits}, pinned {pin['exit']}"
    digest = hashlib.sha256(outcome.output).hexdigest()
    if digest != pin["sha256"]:
        return f"output digest {digest[:12]}..., pinned {pin['sha256'][:12]}..."
    return None


def run_op(op, main) -> Outcome:
    """Run one op; an exception escaping the program is a failed op."""
    start = time.perf_counter()
    try:
        return op.run(main)
    except Exception as exc:  # noqa: BLE001 - any escape is a failure to report
        return Outcome(time.perf_counter() - start, [], b"", f"{type(exc).__name__}: {exc}")


def pin_of(outcome: Outcome, op) -> dict:
    """The pin an outcome would write; used to take pins at a trusted commit."""
    pin = {"exit": outcome.exits, "sha256": hashlib.sha256(outcome.output).hexdigest()}
    if isinstance(op, EndowOp):
        pin["violations"] = violations(outcome.output)
    return pin


def violations(report: bytes) -> int:
    """Weak plus joint-extension violations in an `endow-verify --json` report."""
    data = json.loads(report)
    return sum(len(data[part]["violations"]) for part in ("weak", "full"))


def load_pins() -> dict:
    return json.loads(PINS.read_text())


# -- workloads -----------------------------------------------------------------


def _endow_argv(index: int) -> list[str]:
    """Even entries: Cohen D=4 at n=2; odd entries: measure k=3 at n=1."""
    seed = str(index // 2)
    if index % 2 == 0:
        poset = ["cohen:D=4", "--n", "2", "--seeded", "40"]
    else:
        poset = ["measure:k=3", "--n", "1", "--seeded", "150"]
    return ["endow-verify", *poset, "--seed", seed, "--full", "--json"]


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    make: Callable[[int, Path], object]
    interleave: int = 1    # visit the catalog in this many alternating lanes

    def catalog(self, workdir: Path) -> list:
        return [self.make(i, workdir) for i in range(self.size)]

    def order(self, seed: int) -> list[int]:
        """Seed-shuffled visiting order; with lanes, entry i sits in lane
        i % interleave and consecutive ops take consecutive lanes."""
        rng = random.Random(seed)
        lanes = []
        for lane in range(self.interleave):
            members = list(range(lane, self.size, self.interleave))
            rng.shuffle(members)
            lanes.append(members)
        return [i for group in zip(*lanes) for i in group]


def _certify(kind: str, size: int):
    def make(i: int, workdir: Path) -> CertifyOp:
        return CertifyOp(f"{kind}{size}-{i}", workdir, limit_scenario(kind, size, i))
    return make


def _certify_small(i: int, workdir: Path) -> CertifyOp:
    return CertifyOp(f"small-{i}", workdir, small_scenario(i))


def _endow(i: int, workdir: Path) -> EndowOp:
    return EndowOp(f"endow-{i}", _endow_argv(i))


WORKLOADS = {
    w.name: w for w in (
        Workload("certify-cohen5", 24, _certify("cohen", 5)),
        Workload("certify-measure3", 36, _certify("measure", 3)),
        Workload("certify-small", 600, _certify_small),
        Workload("endow-full", 24, _endow, interleave=2),
    )
}
