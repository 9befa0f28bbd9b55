"""The benchmark's tracer (bench/spans.py) still finds every solver name it
wraps, so a rename fails here rather than in a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

from hqp import InstanceKind, InstanceSpec, generate, solve_qp

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_an_attribute_of_its_owner(spans):
    # Tracer.install reads owner.__dict__[attr]; inherited or missing names
    # would crash every traced run.
    missing = [name for owner, attr, name, _ in spans.TARGETS if attr not in owner.__dict__]
    assert missing == []


def test_traced_solve_records_linsys_spans(spans):
    raw = [owner.__dict__[attr] for owner, attr, _, _ in spans.TARGETS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        solve_qp(generate(InstanceSpec(InstanceKind.FEASIBLE_SV, 10, seed=0)))
    finally:
        tracer.uninstall()
    recorded = {tracer.names[i] for i in tracer.name}
    assert {"linsys.factorize", "linsys.backsolve", "linsys.newton_backward_error"} <= recorded
    metrics = spans.layer_metrics(tracer.names, tracer.arrays())
    assert metrics["linsys.factorizations"] == 1.0
    assert metrics["linsys.backward_error_calls"] == 1.0
    # The predictor's plain backsolve and the corrected solve's one.
    assert metrics["linsys.backsolves"] == 2.0
    assert metrics["iipm.iterations"] > 0
    assert [owner.__dict__[attr] for owner, attr, _, _ in spans.TARGETS] == raw
