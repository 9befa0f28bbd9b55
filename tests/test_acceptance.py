"""Acceptance suite: one test per criterion, one printed line each.

Solver configs per criterion: every criterion runs at the shipped
defaults (tol_mu = 1e-8) except criterion 2, whose recovered-point quality
check runs at tol_mu = 1e-11 because the complementarity of the rescaled
point scales with the final duality measure (a near-degenerate pair
behaves like sqrt(mu) after rescaling).  The per-iteration decay check
carries a finite-precision floor of 1e-13 * data scale * iterate scale
(~450 machine epsilons): on infeasible instances the dual multipliers
grow along the certificate ray, and once residuals shrink below that
floor the identity is evaluated at noise level.
"""

import time

import numpy as np
import pytest

from hqp import (
    AmbiguousStatus,
    IipmConfig,
    InfeasCertificate,
    InstanceKind,
    InstanceSpec,
    QpKktPoint,
    SolveStatus,
    check_certificate,
    compute_theta,
    embed,
    generate,
    qp_kkt_residuals,
    solve_qp,
    validate,
)
from _support import (
    HqpKktPoint,
    active_set_oracle,
    check_reduced_hessian_pd,
    hqp_data_scale,
    hqp_kkt_residuals,
    lifted_hessian,
    lifted_nullspace_basis,
    paper_pd_bounds,
    planted_certificate_instance,
    planted_kkt_instance,
)

SIZES = (10, 25, 50)
SEEDS = range(10)


def run_family(kind, config):
    records = []
    for n in SIZES:
        for seed in SEEDS:
            problem = generate(InstanceSpec(kind=kind, n=n, seed=seed))
            start = time.perf_counter()
            error = None
            result = None
            try:
                result = solve_qp(problem, config)
            except AmbiguousStatus as exc:
                error = exc
            elapsed = time.perf_counter() - start
            records.append(
                {
                    "kind": kind,
                    "n": n,
                    "seed": seed,
                    "problem": problem,
                    "result": result,
                    "error": error,
                    "elapsed": elapsed,
                }
            )
    return records


@pytest.fixture(scope="module")
def infeasible_default():
    return run_family(InstanceKind.INFEASIBLE_SV, IipmConfig())


@pytest.fixture(scope="module")
def feasible_default():
    return run_family(InstanceKind.FEASIBLE_SV, IipmConfig())


@pytest.fixture(scope="module")
def feasible_tight():
    return run_family(InstanceKind.FEASIBLE_SV, IipmConfig(tol_mu=1e-11))


@pytest.fixture(scope="module")
def oracle_agreement_runs():
    config = IipmConfig()
    start = time.perf_counter()
    records = []
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, min(n, 4)))
        problem = generate(InstanceSpec(InstanceKind.RANDOM_SPD, n=n, m=m, seed=seed))
        oracle = active_set_oracle(problem)
        result = solve_qp(problem, config)
        records.append({"problem": problem, "oracle": oracle, "result": result})
    return records, time.perf_counter() - start


def test_criterion_1_infeasible_family_reproduction(infeasible_default):
    worst = {"cert": 0.0, "normalizer": 0.0, "xi_min": 0.0, "obj": 0.0, "iters": 0, "time": 0.0}
    for rec in infeasible_default:
        assert rec["error"] is None, f"{rec['n']}/{rec['seed']}: {rec['error']}"
        outcome = rec["result"].outcome
        assert outcome.status is SolveStatus.INFEASIBLE, (
            f"n={rec['n']} seed={rec['seed']} returned {outcome.status}"
        )
        p = rec["problem"]
        res = check_certificate(p, InfeasCertificate(outcome.cert_nu, outcome.cert_xi))
        r1 = float(np.linalg.norm(res.r1, np.inf))
        assert r1 <= 1e-6
        assert abs(res.r2) <= 1e-6
        assert float(outcome.cert_xi.min()) >= -1e-9
        obj = abs(outcome.diagnostics["hqp_objective"])
        assert obj <= 1e-6
        iters = outcome.diagnostics["iterations"]
        assert iters <= 200
        assert rec["elapsed"] <= 1.0
        worst["cert"] = max(worst["cert"], r1)
        worst["normalizer"] = max(worst["normalizer"], abs(res.r2))
        worst["xi_min"] = min(worst["xi_min"], float(outcome.cert_xi.min()))
        worst["obj"] = max(worst["obj"], obj)
        worst["iters"] = max(worst["iters"], iters)
        worst["time"] = max(worst["time"], rec["elapsed"])
    print(
        f"criterion 1 PASS: 30/30 infeasible; worst cert residual {worst['cert']:.2e}, "
        f"worst normalizer gap {worst['normalizer']:.2e}, min xi {worst['xi_min']:.1e}, "
        f"worst |objective| {worst['obj']:.2e}, max iters {worst['iters']}, "
        f"max time {worst['time']*1e3:.0f} ms"
    )


def test_criterion_2_feasible_family_reproduction(feasible_tight):
    worst = {"kkt": 0.0, "comp": 0.0, "tau": np.inf, "iters": 0}
    for rec in feasible_tight:
        assert rec["error"] is None, f"{rec['n']}/{rec['seed']}: {rec['error']}"
        outcome = rec["result"].outcome
        assert outcome.status is SolveStatus.OPTIMAL, (
            f"n={rec['n']} seed={rec['seed']} returned {outcome.status}"
        )
        res = qp_kkt_residuals(
            rec["problem"], QpKktPoint(outcome.y, outcome.nu, outcome.xi)
        )
        assert np.linalg.norm(res.r_stat, np.inf) <= 1e-6
        assert np.linalg.norm(res.r_eq, np.inf) <= 1e-6
        assert res.r_comp <= 1e-6
        assert np.max(np.abs(res.comp_min)) <= 1e-6
        assert res.r_nonneg <= 1e-6
        tau = outcome.recovery.tau_hat
        assert tau > 1e-4  # rescaling route confirmed, not the certificate
        worst["kkt"] = max(worst["kkt"], res.max_violation())
        worst["comp"] = max(worst["comp"], res.r_comp)
        worst["tau"] = min(worst["tau"], tau)
        worst["iters"] = max(worst["iters"], outcome.diagnostics["iterations"])
    print(
        f"criterion 2 PASS: 30/30 optimal via rescaling; worst KKT violation "
        f"{worst['kkt']:.2e}, worst y'xi {worst['comp']:.2e}, min tau {worst['tau']:.3f}, "
        f"max iters {worst['iters']}"
    )


def test_criterion_3_oracle_equivalence(oracle_agreement_runs):
    records, elapsed = oracle_agreement_runs
    assert elapsed <= 30.0
    worst_gap = 0.0
    statuses = {"optimal": 0, "infeasible": 0}
    for rec in records:
        status = rec["result"].outcome.status
        assert status is rec["oracle"].status, rec["problem"]
        statuses[status.value] += 1
        if status is SolveStatus.OPTIMAL:
            gap = float(np.linalg.norm(rec["result"].outcome.y - rec["oracle"].y_opt, np.inf))
            assert gap <= 1e-6
            worst_gap = max(worst_gap, gap)
    print(
        f"criterion 3 PASS: 100/100 status agreement ({statuses['optimal']} optimal, "
        f"{statuses['infeasible']} infeasible); worst optimal-point gap {worst_gap:.2e}; "
        f"{elapsed:.1f} s total"
    )


def test_criterion_4_embedding_round_trips():
    rng = np.random.default_rng(100)
    worst_opt = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, min(4, n)))
        problem, point = planted_kkt_instance(rng, n, m)
        v = validate(problem)
        h = embed(v, compute_theta(v))
        tau_bar = h.theta / (h.theta + problem.c @ point.y - problem.f @ point.nu)
        assert tau_bar > 0
        lifted = HqpKktPoint(
            y_hat=tau_bar * point.y,
            tau_hat=tau_bar,
            nu_hat=tau_bar * point.nu,
            xi_hat=tau_bar * point.xi,
            omega_hat=0.0,
        )
        viol = hqp_kkt_residuals(h, lifted).max_violation()
        assert viol <= 1e-10
        worst_opt = max(worst_opt, viol)

    rng = np.random.default_rng(101)
    worst_cert = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, min(4, n)))
        problem, nu0, xi0 = planted_certificate_instance(rng, n, m)
        v = validate(problem)
        h = embed(v, compute_theta(v))
        lifted = HqpKktPoint(
            y_hat=np.zeros(n),
            tau_hat=0.0,
            nu_hat=h.theta * nu0,
            xi_hat=h.theta * xi0,
            omega_hat=0.0,
        )
        viol = hqp_kkt_residuals(h, lifted).max_violation()
        assert viol <= 1e-10
        worst_cert = max(worst_cert, viol)
    print(
        f"criterion 4 PASS: 50 planted-optimum round trips (worst {worst_opt:.2e}) and "
        f"50 planted-certificate round trips (worst {worst_cert:.2e}) at 1e-10"
    )


def test_criterion_5_theta_machinery():
    rng = np.random.default_rng(200)
    worst_margin = np.inf
    for _ in range(50):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(1, min(4, n)))
        problem = generate(
            InstanceSpec(InstanceKind.RANDOM_SPD, n=n, m=m, seed=int(rng.integers(0, 10**6)))
        )
        v = validate(problem)
        rep = compute_theta(v)
        lam = check_reduced_hessian_pd(v, rep.theta)
        assert lam > 0.0
        assert rep.theta > 2.0 * abs(rep.theta_star)
        # Exact threshold -2 theta_star <= the paper's exact_Z bound <= its
        # norm-relaxed bound, the last two computed on the test side.
        bounds = paper_pd_bounds(problem)
        assert bounds["exact_Z"] >= -2.0 * rep.theta_star - 1e-12
        assert bounds["norm_relaxed"] >= bounds["exact_Z"] - 1e-12
        worst_margin = min(worst_margin, lam)
    print(
        f"criterion 5 PASS: 50 instances; reduced Hessian stays positive definite "
        f"(smallest margin {worst_margin:.2e}), magnitude condition strict, "
        f"-2 theta_star <= exact_Z bound <= norm-relaxed bound"
    )


def _check_log_invariants(rec, failures):
    assert rec["error"] is None, f"{rec['kind']} n={rec['n']} seed={rec['seed']}: {rec['error']}"
    log = rec["result"].log
    data_scale = 1.0 + hqp_data_scale(rec["result"].hqp)
    config = IipmConfig()
    rows = log
    for prev, cur in zip(rows, rows[1:]):
        where = f"{rec['kind']} n={rec['n']} seed={rec['seed']} k={cur.k}"
        if not cur.nbhd_ratio <= config.beta * (1 + 1e-9):
            failures.append(f"{where}: neighborhood ratio {cur.nbhd_ratio}")
        if not cur.centrality >= config.gamma * (1 - 1e-9):
            failures.append(f"{where}: centrality {cur.centrality}")
        if not cur.mu <= (1 - 0.01 * prev.alpha) * prev.mu * (1 + 1e-12):
            failures.append(f"{where}: mu decrease {prev.mu} -> {cur.mu}")
        prev_norm = float(np.hypot(prev.rd_norm, prev.rp_norm))
        floor = 1e-13 * data_scale * cur.iterate_scale
        if not cur.decay_abs_err <= 1e-8 * prev_norm + floor:
            failures.append(f"{where}: decay error {cur.decay_abs_err}")
        if not prev.newton_rel_resid <= 1e-10:
            failures.append(f"{where}: newton accuracy {prev.newton_rel_resid}")


def test_criterion_6_per_iteration_invariants(
    infeasible_default, feasible_default, feasible_tight
):
    failures = []
    total_rows = 0
    runs = 0
    for batch in (infeasible_default, feasible_default, feasible_tight):
        for rec in batch:
            _check_log_invariants(rec, failures)
            total_rows += len(rec["result"].log)
            runs += 1
    assert not failures, "\n".join(failures[:20])
    print(
        f"criterion 6 PASS: neighborhood membership, mu decrease, residual decay, "
        f"and Newton accuracy hold on all {total_rows} logged iterations of {runs} runs"
    )


def test_criterion_7_nullspace_product_identity():
    cases = [
        generate(InstanceSpec(InstanceKind.FEASIBLE_SV, n=10, seed=0)),
        generate(InstanceSpec(InstanceKind.INFEASIBLE_SV, n=10, seed=0)),
        generate(InstanceSpec(InstanceKind.RANDOM_SPD, n=8, m=3, seed=0)),
        generate(InstanceSpec(InstanceKind.RANDOM_SPD, n=5, m=1, seed=1)),
    ]
    rng = np.random.default_rng(300)
    checked = 0
    worst_gap = 0.0
    worst_neg = 0.0
    for problem in cases:
        v = validate(problem)
        h = embed(v, compute_theta(v))
        Zhat = lifted_nullspace_basis(v)
        for _ in range(250):
            x_bar = Zhat @ rng.standard_normal(Zhat.shape[1])
            lam_bar = rng.standard_normal(h.m)
            s_bar = h.apply_hessian(x_bar) + h.A.T @ lam_bar
            lhs = float(x_bar @ lifted_hessian(h) @ x_bar)
            rhs = float(x_bar @ s_bar)
            gap = abs(lhs - rhs)
            assert gap <= 1e-10 * max(1.0, abs(lhs))
            assert rhs >= -1e-10 * float(x_bar @ x_bar)
            worst_gap = max(worst_gap, gap / max(1.0, abs(lhs)))
            worst_neg = min(worst_neg, rhs)
            checked += 1
    assert checked == 1000
    print(
        f"criterion 7 PASS: 1000 null-space samples; worst relative product gap "
        f"{worst_gap:.2e}, smallest x's {worst_neg:.2e} (never below -1e-10 ||x||^2)"
    )


def test_criterion_8_iteration_budget(
    infeasible_default, feasible_default
):
    # Iteration counts at tol_mu = 1e-8 stay within the budget and are
    # reported per size for growth inspection.
    table = {}
    for rec in infeasible_default + feasible_default:
        assert rec["error"] is None, f"{rec['kind']} n={rec['n']} seed={rec['seed']}: {rec['error']}"
        iters = rec["result"].outcome.diagnostics["iterations"]
        assert iters <= 200, f"{rec['kind']} n={rec['n']} seed={rec['seed']}: {iters}"
        table.setdefault((rec["kind"].value, rec["n"]), []).append(iters)
    lines = []
    for (kind, n), counts in sorted(table.items()):
        lines.append(f"    {kind} n={n}: iters {min(counts)}-{max(counts)}")
    print(
        "criterion 8 PASS: all 60 default-config runs within the 200-iteration budget\n"
        + "\n".join(lines)
    )
