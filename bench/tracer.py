"""Per-layer tracing of endowlab, done from outside the program.

The tracer replaces each traced function at every module binding callers
resolve it through (for example `poset.forces` and `names.forces`, which are
the same function object reached by two global lookups), and each traced
`Poset` / `FiniteSpace` method on its class.  Stage functions become spans;
hot functions are only counted, against the innermost open span, so that a
ratio such as "forces calls inside check_approximation" is measured where
the work happens.  Spans and counts stay in memory until `dump`.  `uninstall`
puts every original binding back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from statistics import median

import endowlab.cli  # noqa: F401 - loads every module the tracer rebinds
from endowlab.poset import Poset
from endowlab.topology import FiniteSpace

# (module, function, span label).  Labels shared by two functions add up.
SPAN_FUNCTIONS = (
    ("endowlab.cli", "cmd_preserve", "cli.preserve"),
    ("endowlab.cli", "cmd_verify", "cli.verify"),
    ("endowlab.cli", "cmd_endow_verify", "cli.endow_verify"),
    ("endowlab.instances", "load_instance", "instances.load"),
    ("endowlab.preservation", "run_preservation", "preservation.run"),
    ("endowlab.preservation", "replay_certificate", "preservation.replay"),
    ("endowlab.preservation", "build_bundle", "preservation.build_bundle"),
    ("endowlab.names", "derive_point_names", "names.point_names"),
    ("endowlab.names", "approximate", "names.approximate"),
    ("endowlab.names", "check_approximation", "names.approx_check"),
    ("endowlab.names", "run_pipeline", "names.pipeline"),
    ("endowlab.names", "refine_name", "names.refine"),
    ("endowlab.selection", "solve_selection", "selection.solve"),
    ("endowlab.selection", "check_selection", "selection.check"),
    ("endowlab.canon", "canonical_json", "canon.serialize"),
    ("endowlab.canon", "canonical_json_pretty", "canon.serialize"),
    ("endowlab.endowment", "dow_construct", "endowment.extract"),
    ("endowlab.measure", "extract_measure_endowment", "endowment.extract"),
    ("endowlab.endowment", "verify_weak_endowment", "endowment.weak"),
    ("endowlab.endowment", "verify_full_endowment", "endowment.full"),
)
SPAN_METHODS = (
    (Poset, "random_maximal_antichain", "poset.antichain_sample"),
    (FiniteSpace, "__init__", "topology.space"),
)
COUNT_FUNCTIONS = (
    ("endowlab.poset", "forces", "forces"),
    ("endowlab.poset", "statement_holds_at", "statement_evals"),
    ("endowlab.poset", "evaluate_name", "name_evals"),
)
COUNT_METHODS = (
    (Poset, "compatible", "compatible"),
    (Poset, "down", "down"),
    (Poset, "up", "up"),
)


def _record_result(span: "Span", result) -> None:
    """Useful outcomes read off a stage's return value."""
    if span.name == "names.approx_check":
        span.counts["witnesses"] = len(result.triples)
    elif span.name == "names.refine":
        span.counts["pairs_kept"] = len(result[0].pairs)
    elif span.name in ("endowment.weak", "endowment.full"):
        span.counts["violations"] = len(result.violations)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name: str, parent: int | None, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.counts: dict[str, int] = {}
        self.start = self.end = 0.0

    def to_jsonable(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "counts": self.counts}


class Tracer:
    """Install with `with tracer:`; wrap each op in `with tracer.op(op_id):`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._op = None

    # -- installation ----------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for module, attr, label in SPAN_FUNCTIONS:
                self._rebind(sys.modules[module], attr, lambda f, l=label: self._span(l, f))
            for module, attr, label in COUNT_FUNCTIONS:
                self._rebind(sys.modules[module], attr, lambda f, l=label: self._count(l, f))
            for cls, attr, label in SPAN_METHODS:
                self._set(cls, attr, self._span(label, cls.__dict__[attr]))
            for cls, attr, label in COUNT_METHODS:
                self._set(cls, attr, self._count(label, cls.__dict__[attr]))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, module, attr: str, make_wrapper) -> None:
        """Replace the function at every endowlab module binding."""
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for mod in [m for n, m in sys.modules.items() if n == "endowlab" or n.startswith("endowlab.")]:
            for key in [k for k, v in vars(mod).items() if v is original]:
                self._set(mod, key, wrapper)

    # -- wrappers --------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None, self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _span(self, label: str, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._open(label)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            _record_result(span, result)
            return result
        return wrapper

    def _count(self, label: str, original):
        stack, spans = self._stack, self.spans

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if stack:
                counts = spans[stack[-1]].counts
                counts[label] = counts.get(label, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    @contextmanager
    def op(self, op_id):
        """Root span for one benchmark op."""
        self._op = op_id
        span = self._open("op")
        try:
            yield span
        finally:
            self._close(span)
            self._op = None

    # -- results ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus its direct children's durations."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([s.to_jsonable() for s in self.spans], fh)


def layer_metrics(tracer: Tracer, traced_latencies, untraced_latencies, speed=None) -> dict[str, float]:
    """Per-op layer numbers over all traced ops, plus the tracing overhead.

    `speed` maps an op id to the factor that converts its measured seconds
    to nominal seconds; ops without one keep measured seconds.
    """
    speed = speed or {}
    ops = sum(1 for s in tracer.spans if s.name == "op")
    own = tracer.self_times()
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    inside: dict[tuple[str, str], int] = {}
    for i, s in enumerate(tracer.spans):
        factor = speed.get(s.op, 1.0)
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start) * factor
        self_total[s.name] = self_total.get(s.name, 0.0) + own[i] * factor
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.counts.items():
            counts[key] = counts.get(key, 0) + value
            inside[s.name, key] = inside.get((s.name, key), 0) + value

    def per_op(value: float) -> float:
        return value / ops if ops else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "names.approx_check_s": per_op(total.get("names.approx_check", 0.0)),
        "poset.forces_calls": per_op(counts.get("forces", 0)),
        "poset.statement_evals": per_op(counts.get("statement_evals", 0)),
        "poset.name_evals": per_op(counts.get("name_evals", 0)),
        "names.witness_yield": ratio(inside.get(("names.approx_check", "witnesses"), 0),
                                     inside.get(("names.approx_check", "forces"), 0)),
        "names.refine_s": per_op(total.get("names.refine", 0.0)),
        "names.refine_pair_yield": ratio(inside.get(("names.refine", "pairs_kept"), 0),
                                         inside.get(("names.refine", "forces"), 0)),
        "names.point_names_s": per_op(total.get("names.point_names", 0.0)),
        "names.approximate_s": per_op(self_total.get("names.approximate", 0.0)),
        "names.pipeline_self_s": per_op(self_total.get("names.pipeline", 0.0)),
        "endowment.extract_s": per_op(total.get("endowment.extract", 0.0)),
        "endowment.extract_calls": per_op(calls.get("endowment.extract", 0)),
        "endowment.weak_s": per_op(total.get("endowment.weak", 0.0)),
        "endowment.full_s": per_op(total.get("endowment.full", 0.0)),
        "endowment.violations": per_op(counts.get("violations", 0)),
        "poset.antichain_sample_s": per_op(total.get("poset.antichain_sample", 0.0)),
        "poset.compatible_calls": per_op(counts.get("compatible", 0)),
        "poset.down_calls": per_op(counts.get("down", 0)),
        "poset.up_calls": per_op(counts.get("up", 0)),
        "instances.load_s": per_op(total.get("instances.load", 0.0)),
        "preservation.run_s": per_op(total.get("preservation.run", 0.0)),
        "preservation.build_bundle_s": per_op(total.get("preservation.build_bundle", 0.0)),
        "preservation.self_s": per_op(self_total.get("preservation.run", 0.0)),
        "preservation.replay_s": per_op(total.get("preservation.replay", 0.0)),
        "preservation.replay_self_s": per_op(self_total.get("preservation.replay", 0.0)),
        "topology.space_s": per_op(total.get("topology.space", 0.0)),
        "selection.solve_s": per_op(total.get("selection.solve", 0.0)),
        "selection.check_s": per_op(total.get("selection.check", 0.0)),
        "canon.serialize_s": per_op(total.get("canon.serialize", 0.0)),
        "cli.preserve_s": per_op(total.get("cli.preserve", 0.0)),
        "cli.verify_s": per_op(total.get("cli.verify", 0.0)),
        "cli.endow_verify_s": per_op(total.get("cli.endow_verify", 0.0)),
        "trace.op_s": per_op(total.get("op", 0.0)),
        "trace.overhead_ratio": ratio(median(traced_latencies), median(untraced_latencies)),
    }
