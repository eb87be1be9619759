"""Tests of the benchmark's own code: the scenario builder, the output
check, and the tracer.  They use small inputs and run in a few seconds."""

from __future__ import annotations

import json
import math
import sys

from run import (
    BENCH, END_TO_END_UNITS, ROOT, WORKLOAD_NAMES, layer_unit, tail_latency, use_source_tree,
)

use_source_tree()

import pytest  # noqa: E402

from builder import headroom_points, limit_scenario  # noqa: E402
from endowlab import cli  # noqa: E402
from endowlab.poset import Poset  # noqa: E402
from endowlab.preservation import Scenario, build_bundle, run_preservation  # noqa: E402
from endowlab.topology import FiniteSpace  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, EndowOp, Outcome, load_pins, pin_of, run_op  # noqa: E402


@pytest.mark.parametrize("kind,size", [("cohen", 5), ("measure", 3), ("cohen", 2)])
def test_builder_is_deterministic_and_keeps_headroom(kind, size):
    for index in range(3):
        payload = limit_scenario(kind, size, index)
        assert payload == limit_scenario(kind, size, index)
        scenario = Scenario.from_jsonable(payload)
        bundle = build_bundle(scenario.poset)
        floor = bundle.strat.stabilization_index
        assert len(scenario.names) == 8
        assert len(scenario.points) == headroom_points(floor) == min(6, 8 - floor)
        assert floor + len(scenario.points) <= len(scenario.names)
        assert len(scenario.base) <= 12
        assert frozenset().union(*scenario.base) == frozenset(scenario.points)
        for name in scenario.names:
            assert bundle.poset.is_maximal_antichain(name.conditions())
    assert limit_scenario(kind, size, 0) != limit_scenario(kind, size, 1)


def test_headroom_makes_the_verdict_positive():
    for index in range(3):
        cert = run_preservation(Scenario.from_jsonable(limit_scenario("cohen", 2, index)))
        assert cert.verdict == "positive"


def _small_op(tmp_path, index=0):
    return WORKLOADS["certify-small"].make(index, tmp_path)


def test_pinned_outputs_match(tmp_path):
    op = _small_op(tmp_path, 3)
    assert op.check(run_op(op, cli.main), load_pins()["certify-small"]["3"]) is None


def test_tampered_certificate_fails_the_digest_check(tmp_path):
    op = _small_op(tmp_path)
    outcome = run_op(op, cli.main)
    pin = pin_of(outcome, op)
    assert op.check(outcome, pin) is None
    data = json.loads(outcome.output)
    data["verdict"] = "negative"
    tampered = Outcome(outcome.seconds, outcome.exits, json.dumps(data).encode())
    assert "digest" in op.check(tampered, pin)
    wrong_exit = Outcome(outcome.seconds, [0, 3], outcome.output)
    assert "exit codes" in op.check(wrong_exit, pin)


def test_endow_op_checks_the_violation_count():
    op = EndowOp("endow-d2", ["endow-verify", "cohen:D=2", "--n", "1", "--full", "--json"])
    outcome = run_op(op, cli.main)
    pin = pin_of(outcome, op)
    assert op.check(outcome, pin) is None
    assert "violations" in op.check(outcome, dict(pin, violations=pin["violations"] + 1))


def test_escaping_exception_is_a_failed_op(tmp_path):
    def broken(argv):
        raise RuntimeError("boom")

    outcome = run_op(_small_op(tmp_path), broken)
    assert outcome.error == "RuntimeError: boom"


def _bindings():
    """Every endowlab module attribute and traced class attribute."""
    snap = {}
    for name, mod in sys.modules.items():
        if name == "endowlab" or name.startswith("endowlab."):
            snap.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (Poset, FiniteSpace):
        snap.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return snap


def test_tracer_restores_every_binding():
    import endowlab.names as names
    import endowlab.poset as poset

    before = _bindings()
    original_forces = poset.forces
    with Tracer():
        assert names.forces is poset.forces is not original_forces
        assert Poset.__dict__["compatible"] is not before[("Poset", "compatible")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_self_times_are_nonnegative_and_sum_to_the_op(tmp_path):
    tracer = Tracer()
    op = _small_op(tmp_path, 1)
    plain = run_op(op, cli.main)
    for j in range(2):
        with tracer, tracer.op(j):
            traced = run_op(op, cli.main)
        assert traced.output == plain.output
    own = tracer.self_times()
    assert all(t >= 0 for t in own)
    for j in range(2):
        root = next(s for s in tracer.spans if s.name == "op" and s.op == j)
        total = sum(t for t, s in zip(own, tracer.spans) if s.op == j)
        assert math.isclose(total, root.end - root.start, rel_tol=1e-9, abs_tol=1e-9)
    names = {s.name for s in tracer.spans}
    assert {"cli.preserve", "cli.verify", "names.approx_check", "preservation.replay"} <= names


def test_reported_metrics_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared["paths"] == [BENCH.name]
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END_UNITS
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS) == list(WORKLOAD_NAMES)
    layers = layer_metrics(Tracer(), [1.0], [1.0])
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == \
        {key: layer_unit(key) for key in layers}


def test_every_catalog_entry_is_pinned():
    pins = load_pins()
    for name, workload in WORKLOADS.items():
        assert set(pins[name]) == {str(i) for i in range(workload.size)}
        assert sorted(workload.order(7)) == list(range(workload.size))
        assert workload.order(7) == workload.order(7) != workload.order(8)


def test_endow_order_alternates_posets():
    order = WORKLOADS["endow-full"].order(5)
    assert [i % 2 for i in order[:6]] == [0, 1, 0, 1, 0, 1]


def test_tail_latency_leaves_ten_ops_beyond():
    values = [float(i) for i in range(40)]
    value, percentile = tail_latency(values)
    assert sum(v > value for v in values) == 10
    assert percentile == 75.0
