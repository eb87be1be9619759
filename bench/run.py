"""endowlab benchmark: closed-loop certify and endow workloads.

One client in one process, pinned to one CPU, sends each op only after the
previous one has finished; there is no `--jobs` pool and the default limits
apply (the ENDOWLAB_BOUNDS variable is cleared).  Run from the repository
root:

    python3 bench/run.py --workload certify-cohen5 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

With --trace 0 the last line reports the end-to-end metrics; with --trace 1
each op runs once untraced and once traced, and the last line reports the
per-layer metrics.  Times are reported in nominal seconds (see
NominalClock); the readable lines also give the measured seconds.  Every
op's output is checked against `pins.json`, and the two golden
certificates are replayed before timing starts.  Any mismatch makes the
run exit 1.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDENS = ROOT / "tests" / "golden"
WORK = BENCH / "_work"
OUT = BENCH / "_out"
SETUP_SPAWNS = 9
CALIBRATION_LOOP = 150_000
NOMINAL_CALIBRATION_S = 0.005
WORKLOAD_NAMES = ("certify-cohen5", "certify-measure3", "certify-small", "endow-full")
END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


def use_source_tree() -> None:
    """Import endowlab from the checkout's own `src`, never an installed copy."""
    if not (SRC / "endowlab" / "cli.py").is_file():
        raise FileNotFoundError(f"no endowlab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.pop("ENDOWLAB_BOUNDS", None)


def calibration_seconds() -> float:
    """Time a fixed pure-Python loop: the probe of how fast the host runs."""
    start = time.perf_counter()
    total = 0
    for k in range(CALIBRATION_LOOP):
        total += k
    return time.perf_counter() - start


class NominalClock:
    """Converts measured seconds to nominal seconds.

    A nominal second is a second at the speed at which the calibration loop
    takes NOMINAL_CALIBRATION_S.  Each timed interval is bracketed by a probe
    before and after it, and `factor` is the nominal time of the loop over
    the mean of the two.  A shared host can change how fast this process
    runs by a factor of two within a minute; the factor cancels that, while
    any change to the program's own work still shows in full.
    """

    def __init__(self):
        self._last = calibration_seconds()

    def factor(self) -> float:
        """The factor for the interval since the previous probe."""
        probe = calibration_seconds()
        factor = NOMINAL_CALIBRATION_S / ((self._last + probe) / 2)
        self._last = probe
        return factor


def pin_to_one_cpu() -> None:
    """Keep this process, and the interpreters it spawns, on one CPU, so the
    speed probes run where the timed work runs.  Where affinity cannot be
    set, the run goes on unpinned."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def setup_seconds(spawns: int = SETUP_SPAWNS) -> tuple[float, float]:
    """Median time from spawning a fresh interpreter until `import
    endowlab.cli` has returned in it, in nominal and in measured seconds.
    The child reports the shared monotonic clock, so interpreter teardown
    and the parent's wait are not counted."""
    env = dict(os.environ)
    env.pop("ENDOWLAB_BOUNDS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import time, endowlab.cli; print(time.perf_counter())"
    clock = NominalClock()
    measured, nominal = [], []
    for _ in range(spawns):
        start = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                               capture_output=True, text=True, timeout=60)
        measured.append(float(child.stdout) - start)
        nominal.append(measured[-1] * clock.factor())
    return median(nominal), median(measured)


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 ops beyond it, as (value,
    percentile).  Below 11 ops no such percentile exists and the fastest op
    is reported."""
    ordered = sorted(latencies)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def replay_goldens(main) -> tuple[int, list[str]]:
    """Replay the checked-in golden certificates read-only; returns the
    number replayed and the failures."""
    from workloads import call_cli

    goldens = sorted(GOLDENS.glob("*.cert.json"))
    if not goldens:
        return 1, [f"no golden certificates under {GOLDENS}"]
    return len(goldens), [f"golden {path.name}: verify exit {code}"
                          for path in goldens
                          if (code := call_cli(main, ["verify", "--cert", str(path)])) != 0]


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    use_source_tree()
    from endowlab import cli
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS, load_pins, run_op

    workload = WORKLOADS[name]
    pins = load_pins()[name]
    pin_to_one_cpu()
    setup = None if trace else setup_seconds()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    tracer = Tracer()
    measured: list[float] = []   # untraced op latencies, measured seconds
    nominal: list[float] = []    # the same, nominal seconds
    traced: list[float] = []     # traced op latencies, nominal seconds
    speed: dict[int, float] = {}  # traced op id -> nominal factor
    try:
        attempted, failures = replay_goldens(cli.main)
        bad_ops = 0
        ops = workload.catalog(workdir)
        order = workload.order(seed)
        clock = NominalClock()
        deadline = time.perf_counter() + seconds
        j = 0
        while True:
            index = order[j % len(order)]
            op, pin = ops[index], pins[str(index)]
            outcome = run_op(op, cli.main)
            measured.append(outcome.seconds)
            nominal.append(outcome.seconds * clock.factor())
            attempted += 1
            if (problem := op.check(outcome, pin)) is not None:
                failures.append(f"{op.key}: {problem}")
                bad_ops += 1
            if trace:
                with tracer, tracer.op(j):
                    again = run_op(op, cli.main)
                speed[j] = clock.factor()
                traced.append(again.seconds * speed[j])
                attempted += 1
                problem = op.check(again, pin)
                if problem is None and again.output != outcome.output:
                    problem = "traced output differs from the untraced one"
                if problem is not None:
                    failures.append(f"{op.key} (traced): {problem}")
            j += 1
            if time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print(f"ops: {j}  attempted: {attempted}  failed: {len(failures)}  "
          f"fail_ratio: {len(failures) / attempted:.4f}")
    for message in failures[:10]:
        print(f"  FAIL {message}")
    if trace:
        metrics = layer_metrics(tracer, traced, nominal, speed)
        units = {key: layer_unit(key) for key in metrics}
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"trace-{name}-seed{seed}.json"
        tracer.dump(dump)
        print(f"spans: {len(tracer.spans)} written to {dump.relative_to(ROOT)}")
    else:
        tail, percentile = tail_latency(nominal)
        metrics = {
            "ops_per_s": (j - bad_ops) / sum(nominal),
            "latency_p50_s": median(nominal),
            "latency_tail_s": tail,
            "ok_ratio": 1 - len(failures) / attempted,
            "setup_s": setup[0],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        print(f"latency_tail_s is p{percentile:.0f} of {j} ops")
        print(f"measured seconds: latency_p50 {median(measured):.6g}  "
              f"tail {tail_latency(measured)[0]:.6g}  ops/s {(j - bad_ops) / sum(measured):.6g}  "
              f"setup {setup[1]:.6g}")
    for key, value in metrics.items():
        print(f"  {key:30s} {value:12.6g} {units[key]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0 if not failures else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in a fresh process, so peak RSS does not accumulate."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=seconds + 600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and proc.returncode in (0, 1) else None
    print("\nsummary")
    for name, result in results.items():
        if result is None:
            print(f"  {name}: no result")
            continue
        print(f"  {name}: correct {result['correct']}  attempted {result['attempted']}  "
              f"failed {result['failed']}")
        for key, metric in result["metrics"].items():
            print(f"    {key:30s} {metric['value']:12.6g} {metric['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not GOLDENS.is_dir():
        print(f"error: no golden certificates under {GOLDENS}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
