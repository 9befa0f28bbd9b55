"""Tests of the benchmark's own checks and span arithmetic.

    python3 -m pytest bench -q
"""

import numpy as np
import pytest

from checks import (
    CheckFailed,
    certificate_violation,
    check_twin_values,
    feasible_sv_optimum,
    kkt_violation,
    lp_feasible,
    sv_reference,
)


def test_closed_form_two_entries_both_in_support():
    # min 0.5|y|^2 + y1 + y2, y1 + y2 = 1: by symmetry y = (1/2, 1/2) and
    # stationarity y_i + 1 + nu = 0 gives nu = -3/2.
    y, nu = feasible_sv_optimum(np.array([1.0, 1.0]))
    np.testing.assert_allclose(y, [0.5, 0.5])
    assert nu == pytest.approx(-1.5)


def test_closed_form_small_entry_left_at_zero():
    # e = (1, 1/4): with support {1}, y1 = 1 and nu = -2; then
    # -(1 + nu e2) = -1/2 < 0, so y2 = 0 is optimal with xi2 = 1/2.
    y, nu = feasible_sv_optimum(np.array([1.0, 0.25]))
    np.testing.assert_allclose(y, [1.0, 0.0])
    assert nu == pytest.approx(-2.0)


def test_closed_form_satisfies_kkt_on_random_rows():
    rng = np.random.default_rng(0)
    for n in (1, 3, 50, 400):
        e = 1.0 - rng.random(n)
        y, nu = feasible_sv_optimum(e)
        xi = y + 1.0 + nu * e
        C, c, E, f = np.eye(n), np.ones(n), e[None, :], np.ones(1)
        assert kkt_violation(C, c, E, f, y, np.array([nu]), xi) < 1e-12


def test_kkt_violation_sees_each_condition():
    C, c, E, f = np.eye(2), np.ones(2), np.array([[1.0, 1.0]]), np.ones(1)
    y, nu, xi = np.array([0.5, 0.5]), np.array([-1.5]), np.zeros(2)
    assert kkt_violation(C, c, E, f, y, nu, xi) == pytest.approx(0.0, abs=1e-15)
    assert kkt_violation(C, c, E, f, y + 1e-3, nu, xi) >= 1e-3         # stationarity, Ey = f
    assert kkt_violation(C, c, E, f, y, nu, xi + 1e-3) >= 1e-3         # complementarity
    assert kkt_violation(C, c, E, f, np.array([1.5, -0.5]), nu, np.array([1.0, -1.0])) >= 0.5


def test_certificate_of_a_positive_row_with_negative_rhs():
    # E >= 0 and f = -1: nu = 1 gives E'nu = e >= 0 and f'nu = -1.
    e = np.array([[0.3, 0.9, 0.1]])
    f = np.array([-1.0])
    assert certificate_violation(e, f, np.array([1.0]), e[0]) == 0.0
    assert certificate_violation(e, f, np.array([1.0]), e[0] - 0.2) == pytest.approx(0.2)
    assert certificate_violation(e, f, np.array([0.5]), 0.5 * e[0]) == pytest.approx(0.5)


def test_lp_feasibility():
    E = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, 1.0]])
    assert lp_feasible(E, np.array([1.0, 2.0]))
    assert not lp_feasible(np.array([[1.0, 1.0]]), np.array([-1.0]))


def test_reference_rejects_wrong_status_and_wrong_point():
    C, c, E, f = np.eye(2), np.ones(2), np.array([[1.0, 0.25]]), np.ones(1)
    ref = sv_reference(C, c, E, f)
    good = {
        "status": "optimal",
        "y": np.array([1.0, 0.0]),
        "nu": np.array([-2.0]),
        "xi": np.array([0.0, 0.5]),
    }
    assert ref.verify(good) == pytest.approx(1.5)
    with pytest.raises(CheckFailed, match="status"):
        ref.verify({"status": "infeasible", "cert_nu": np.ones(1), "cert_xi": np.ones(2)})
    with pytest.raises(CheckFailed):
        ref.verify(dict(good, y=np.array([0.9, 0.4])))


def test_reference_checks_certificates():
    E, f = np.array([[0.5, 1.0]]), np.array([-1.0])
    ref = sv_reference(np.eye(2), np.ones(2), E, f)
    cert = {"status": "infeasible", "cert_nu": np.ones(1), "cert_xi": E[0]}
    assert ref.verify(cert) is None
    with pytest.raises(CheckFailed, match="certificate"):
        ref.verify(dict(cert, cert_xi=np.zeros(2)))


def test_sv_reference_refuses_other_data():
    with pytest.raises(ValueError):
        sv_reference(2.0 * np.eye(2), np.ones(2), np.array([[1.0, 1.0]]), np.ones(1))


def test_twin_values():
    check_twin_values(-3.25, -3.25 * (1 + 1e-9))
    with pytest.raises(CheckFailed):
        check_twin_values(-3.25, -3.26)


def test_column_scaling_keeps_value_and_status():
    import workloads

    op = workloads._instance("random_spd", 12, seed=4, m=3)
    twin = workloads._column_scaled(op, np.linspace(-2.0, 2.0, 12), 0)
    assert twin.ref.feasible == op.ref.feasible
    d = 10.0 ** np.linspace(-2.0, 2.0, 12)
    y = np.abs(np.sin(np.arange(12.0)))
    assert op.problem.objective(d * y) == pytest.approx(twin.problem.objective(y), rel=1e-12)


def test_layer_metrics_self_time_and_ratios():
    from spans import Tracer, layer_metrics

    t = Tracer()
    ids = {name: i for i, name in enumerate(t.names)}
    # op 0..10: cli.main 0..10 with a 4 ms load inside (2 MB) and a solve
    # 5..9 whose loop runs one direction (2 factorization-free ms).
    rows = [
        ("op", 0, 10, -1, 0.0),
        ("cli.main", 0, 10, 0, 0.0),
        ("fileio.load_problem", 0, 4, 1, 2e6),
        ("cli.solve_qp", 5, 9, 1, 0.0),
        ("iipm.solve", 5, 9, 3, 0.0),
        ("iipm.newton_direction", 5, 7, 4, 0.0),
        ("linsys.newton_backward_error", 6, 7, 5, 0.0),
    ]
    spans = {
        "name": np.array([ids[r[0]] for r in rows]),
        "start_ns": np.array([r[1] * 1_000_000 for r in rows]),
        "end_ns": np.array([r[2] * 1_000_000 for r in rows]),
        "parent": np.array([r[3] for r in rows]),
        "op": np.zeros(len(rows), dtype=int),
        "value": np.array([r[4] for r in rows]),
    }
    m = layer_metrics(t.names, spans)
    assert m["cli.self_ms"] == pytest.approx(10 - 4 - 4)
    assert m["fileio.load_ms"] == pytest.approx(4.0)
    assert m["fileio.load_mb_per_s"] == pytest.approx(2.0 / 0.004)
    assert m["iipm.iterations"] == 1.0
    assert m["iipm.loop_self_ms"] == pytest.approx(2.0)
    assert m["linsys.backward_error_calls"] == 1.0
    assert m["linsys.factorizations"] == 0.0


def test_metric_lists_match_benchmark_json():
    import json
    from pathlib import Path

    import run
    from spans import PER_LAYER

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        *PER_LAYER,
        ("trace.overhead_pct", "%"),
    ]
