"""Interior-point iteration: residuals, neighborhood, steps, full solves."""

import io

import numpy as np
import pytest

from hqp import (
    IipmConfig,
    IipmIterate,
    InstanceKind,
    InstanceSpec,
    QpProblem,
    SolveStatus,
    StepSearchFailed,
    embed,
    compute_theta,
    generate,
    validate,
)
from hqp.embedding import manual_theta_report
from hqp.iipm import (
    LOG_CSV_COLUMNS,
    automatic_zeta,
    check_iterate_norm_bound,
    in_neighborhood,
    newton_direction,
    positivity_boundary,
    residuals,
    solve,
    step_length,
)
from hqp.embedding import lifted_nullspace_basis

from _support import planted_kkt_instance


def one_var_hqp(theta=2.0, f=1.0):
    v = validate(QpProblem([[1.0]], [0.0], [[1.0]], [f]))
    return embed(v, manual_theta_report(v, theta))


def make_initial(hqp, config=None):
    config = config or IipmConfig()
    zeta = config.zeta if config.zeta is not None else automatic_zeta(hqp)
    ones = np.ones(hqp.dim)
    return IipmIterate.compute(hqp, zeta * ones, np.zeros(hqp.m), zeta * ones), zeta


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": 0.0},
            {"gamma": 1.0},
            {"beta": 0.5},
            {"sigma_min": 0.6, "sigma_max": 0.7},
            {"sigma_min": 0.2, "sigma_max": 0.1},
            {"zeta": -1.0},
            {"tol_mu": 0.0},
            {"max_iter": 0},
            {"step_backtrack": 1.0},
            {"step_trials": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IipmConfig(**kwargs)

    def test_sigma_clamped(self):
        assert IipmConfig(sigma=0.9).clamped_sigma() == 0.5
        assert IipmConfig(sigma=0.01).clamped_sigma() == 0.05


class TestResiduals:
    def test_zero_at_stationary_point(self):
        h = one_var_hqp(theta=2.0)
        tau_bar = 2.0 / 3.0
        r_d, r_p, mu = residuals(
            h, np.array([tau_bar, tau_bar]), np.array([-tau_bar]), np.array([1e-30, 1e-30])
        )
        assert np.linalg.norm(r_d, np.inf) <= 1e-12
        assert np.linalg.norm(r_p, np.inf) <= 1e-12

    def test_initial_point_values(self):
        h = one_var_hqp()
        it, zeta = make_initial(h)
        assert it.mu == pytest.approx(zeta**2)
        assert it.r_p == pytest.approx(zeta * (h.A @ np.ones(h.dim)))

    def test_doubling_identity(self):
        h = one_var_hqp()
        rng = np.random.default_rng(0)
        x = rng.random(2) + 0.5
        lam = rng.standard_normal(1)
        s = rng.random(2) + 0.5
        r_d, r_p, _ = residuals(h, x, lam, s)
        r_d2, r_p2, _ = residuals(h, 2 * x, 2 * lam, 2 * s)
        assert np.array_equal(r_p2, 2 * r_p)  # exact: scaling by 2
        assert np.allclose(r_d2, 2 * r_d - h.q, atol=1e-14)

    def test_cached_residuals_match_recomputation(self):
        h = one_var_hqp()
        it, _ = make_initial(h)
        r_d, r_p, mu = residuals(h, it.x, it.lam, it.s)
        assert np.allclose(it.r_d, r_d, rtol=1e-12)
        assert np.allclose(it.r_p, r_p, rtol=1e-12)
        assert it.mu == pytest.approx(mu, rel=1e-12)

    def test_positivity_enforced(self):
        h = one_var_hqp()
        with pytest.raises(ValueError):
            IipmIterate.compute(h, np.array([1.0, 0.0]), np.zeros(1), np.ones(2))


class TestNeighborhood:
    def test_initial_point_inside(self):
        h = one_var_hqp()
        cfg = IipmConfig()
        it, _ = make_initial(h, cfg)
        r0 = it.residual_norm()
        check = in_neighborhood(it, cfg, r0, it.mu)
        assert check.ok
        assert check.residual_ratio == pytest.approx(1.0)
        assert check.centrality == pytest.approx(1.0)

    def test_centrality_violation(self):
        h = one_var_hqp()
        cfg = IipmConfig(gamma=0.5)
        it, _ = make_initial(h, cfg)
        x = it.x.copy()
        s = it.s.copy()
        # Push one product to a quarter of the average.
        x[0] *= 0.05
        bad = IipmIterate.compute(h, x, it.lam, s)
        check = in_neighborhood(bad, cfg, bad.residual_norm(), bad.mu)
        assert check.centrality < cfg.gamma
        r0_loose = bad.residual_norm()  # make the ratio condition non-binding
        assert not in_neighborhood(bad, cfg, r0_loose, bad.mu).ok

    def test_ratio_violation(self):
        h = one_var_hqp()
        cfg = IipmConfig()
        it, zeta = make_initial(h, cfg)
        r0 = it.residual_norm()
        mu0 = it.mu
        # Shrinking (x, s) uniformly shrinks mu quadratically while the
        # residuals change much more slowly, blowing up the ratio.
        small = IipmIterate.compute(h, 0.01 * it.x, it.lam, 0.01 * it.s)
        check = in_neighborhood(small, cfg, r0, mu0)
        assert check.residual_ratio > cfg.beta
        assert not check.ok


class TestNewtonDirection:
    def test_centered_feasible_point_full_centering(self):
        h = one_var_hqp(theta=2.0)
        x = np.array([2.0, 2.0])
        s = h.Q @ x + h.q  # lam = 0 keeps the dual residual zero
        it = IipmIterate.compute(h, x, np.zeros(1), s)
        d = newton_direction(h, it, sigma=1.0)
        assert np.linalg.norm(np.concatenate([d.dx, d.dlam, d.ds]), np.inf) <= 1e-12

    def test_block_identities(self):
        h = one_var_hqp()
        cfg = IipmConfig()
        it, _ = make_initial(h, cfg)
        sigma = 0.3
        d = newton_direction(h, it, sigma)
        assert np.allclose(h.A @ d.dx, -it.r_p, atol=1e-10)
        assert np.allclose(
            it.s * d.dx + it.x * d.ds,
            -it.x * it.s + sigma * it.mu,
            atol=1e-10 * max(1.0, it.mu),
        )
        assert d.rel_residual <= 1e-10


class TestStepLength:
    def test_positivity_boundary_unit(self):
        e = np.ones(3)
        assert positivity_boundary(e, e, -e, -e) == pytest.approx(1.0)

    def test_positivity_boundary_unbounded(self):
        e = np.ones(3)
        assert positivity_boundary(e, e, e, np.zeros(3)) == np.inf

    def test_zero_direction_fails(self):
        h = one_var_hqp()
        cfg = IipmConfig()
        it, _ = make_initial(h, cfg)
        from hqp.iipm import NewtonDirection

        zero = NewtonDirection(
            dx=np.zeros(h.dim), dlam=np.zeros(h.m), ds=np.zeros(h.dim), rel_residual=0.0
        )
        with pytest.raises(StepSearchFailed):
            step_length(h, it, zero, cfg, it.residual_norm(), it.mu)

    def test_first_iteration_accepts_reasonable_step(self):
        h = one_var_hqp(theta=2.0)
        cfg = IipmConfig()
        it, _ = make_initial(h, cfg)
        d = newton_direction(h, it, cfg.clamped_sigma())
        alpha = step_length(h, it, d, cfg, it.residual_norm(), it.mu)
        assert alpha >= 0.1
        stepped = IipmIterate.compute(
            h, it.x + alpha * d.dx, it.lam + alpha * d.dlam, it.s + alpha * d.ds
        )
        assert stepped.mu <= (1 - 0.01 * alpha) * it.mu


class TestSolve:
    def test_one_variable_worked_instance(self):
        h = one_var_hqp(theta=2.0)
        outcome, log = solve(h)
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.y == pytest.approx([1.0], abs=1e-6)
        assert outcome.nu == pytest.approx([-1.0], abs=1e-6)
        assert outcome.diagnostics["converged"]
        assert len(log) <= IipmConfig().max_iter + 1

    def test_infeasible_one_variable(self):
        h = one_var_hqp(theta=2.0, f=-1.0)
        outcome, log = solve(h)
        assert outcome.status is SolveStatus.INFEASIBLE
        assert outcome.cert_nu == pytest.approx([1.0], abs=1e-6)
        assert abs(outcome.diagnostics["hqp_objective"]) <= 1e-6

    def test_objective_nonpositive_at_termination(self):
        # The origin is feasible for every embedding, so the optimal value
        # of the lifted program never exceeds zero.
        for f in (1.0, -1.0):
            h = one_var_hqp(theta=2.0, f=f)
            outcome, _ = solve(h)
            assert outcome.diagnostics["hqp_objective"] <= 1e-9

    def test_no_equalities_pipeline(self):
        from hqp import active_set_oracle, solve_qp

        prob = QpProblem(np.eye(3), [-1.0, 0.5, -2.0])
        result = solve_qp(prob)
        oracle = active_set_oracle(prob)
        assert result.outcome.status is SolveStatus.OPTIMAL
        assert np.allclose(result.outcome.y, oracle.y_opt, atol=1e-7)
        assert result.outcome.diagnostics["hqp_objective"] <= 1e-9

    def test_square_equality_pipeline(self):
        from hqp import solve_qp

        # m = n pins the feasible set to a single point; the sign of that
        # point decides the outcome, and the empty-null-space branch of the
        # parameter selection is exercised either way.
        E = np.array([[2.0, 0.0], [0.0, 1.0]])
        feasible = QpProblem(np.eye(2), [0.0, 0.0], E, [2.0, 3.0])
        r = solve_qp(feasible)
        assert r.outcome.status is SolveStatus.OPTIMAL
        assert np.allclose(r.outcome.y, [1.0, 3.0], atol=1e-6)

        infeasible = QpProblem(np.eye(2), [0.0, 0.0], E, [-2.0, 3.0])
        r = solve_qp(infeasible)
        assert r.outcome.status is SolveStatus.INFEASIBLE
        from hqp import InfeasCertificate, check_certificate

        res = check_certificate(
            infeasible, InfeasCertificate(r.outcome.cert_nu, r.outcome.cert_xi)
        )
        assert res.max_violation() <= 1e-6

    def test_iteration_limit(self):
        h = one_var_hqp(theta=2.0)
        outcome, log = solve(h, IipmConfig(max_iter=2))
        assert outcome.status is SolveStatus.ITERATION_LIMIT
        assert outcome.diagnostics["iterations"] == 2
        assert len(log) == 3

    def test_log_invariants(self):
        h = one_var_hqp(theta=2.0)
        cfg = IipmConfig()
        outcome, log = solve(h, cfg)
        rows = log.rows
        assert rows[0].upsilon == 1.0
        for prev, cur in zip(rows, rows[1:]):
            assert cur.mu <= (1 - 0.01 * prev.alpha) * prev.mu + 1e-300
            assert cur.upsilon == pytest.approx((1 - prev.alpha) * prev.upsilon)
            assert cur.nbhd_ratio <= cfg.beta * (1 + 1e-9)
            assert cur.centrality >= cfg.gamma * (1 - 1e-9)
        for row in rows[:-1]:
            assert row.newton_rel_resid <= 1e-10

    @pytest.mark.parametrize(
        "spec",
        [
            InstanceSpec(InstanceKind.FEASIBLE_SV, 20, seed=1),
            InstanceSpec(InstanceKind.INFEASIBLE_SV, 20, seed=1),
            InstanceSpec(InstanceKind.RANDOM_SPD, 20, m=4, seed=1),
        ],
        ids=lambda spec: spec.kind.value,
    )
    def test_one_factorization_and_backward_error_per_step(self, spec, monkeypatch):
        import hqp.iipm
        import hqp.linsys

        counts = {"factorizations": 0, "backward_errors": 0}
        per_step = []
        raw_backward_error = hqp.linsys.newton_backward_error

        class CountingFactorization(hqp.linsys.AugmentedFactorization):
            def __init__(self, *args, **kwargs):
                counts["factorizations"] += 1
                super().__init__(*args, **kwargs)

        def counting_backward_error(*args, **kwargs):
            counts["backward_errors"] += 1
            return raw_backward_error(*args, **kwargs)

        raw_direction = hqp.iipm.newton_direction

        def counting_direction(hqp_problem, iterate, sigma):
            counts.update(factorizations=0, backward_errors=0)
            d = raw_direction(hqp_problem, iterate, sigma)
            x, s = iterate.x, iterate.s
            rhs = np.concatenate([-iterate.r_d, -iterate.r_p, -x * s + sigma * iterate.mu])
            # Without data_norm the matrix norms are recomputed from scratch.
            eta = raw_backward_error(
                hqp_problem.Q, hqp_problem.A, x, s, rhs, d.dx, d.dlam, d.ds
            )
            per_step.append((counts["factorizations"], counts["backward_errors"], eta))
            return d

        monkeypatch.setattr(hqp.linsys, "AugmentedFactorization", CountingFactorization)
        monkeypatch.setattr(hqp.linsys, "newton_backward_error", counting_backward_error)
        monkeypatch.setattr(hqp.iipm, "newton_direction", counting_direction)
        validated = validate(generate(spec))
        _, log = solve(embed(validated, compute_theta(validated)))
        assert len(per_step) == len(log) - 1 > 0
        for row, (factorizations, backward_errors, eta) in zip(log.rows, per_step):
            assert (factorizations, backward_errors) == (1, 1)
            assert row.newton_rel_resid == pytest.approx(eta, rel=1e-12)

    def test_deterministic(self):
        h = one_var_hqp(theta=2.0)
        out1, log1 = solve(h)
        out2, log2 = solve(h)
        assert np.array_equal(out1.y, out2.y)
        assert [r.mu for r in log1.rows] == [r.mu for r in log2.rows]

    def test_zeta_override(self):
        h = one_var_hqp(theta=2.0)
        outcome, log = solve(h, IipmConfig(zeta=25.0))
        assert outcome.diagnostics["zeta"] == 25.0
        assert log.rows[0].mu == pytest.approx(625.0)


class TestIterationLogCsv:
    def test_columns_and_rows(self):
        h = one_var_hqp(theta=2.0)
        _, log = solve(h)
        buf = io.StringIO()
        log.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == ",".join(LOG_CSV_COLUMNS)
        assert len(lines) == len(log.rows) + 1
        first = lines[1].split(",")
        assert first[0] == "0"


class TestNullspaceSelfConsistency:
    def test_nullspace_product_identity_small(self):
        # For x in null(A) and s = Qx + A'lam, the products x'Qx and x's
        # agree and are nonnegative under reduced positive definiteness.
        rng = np.random.default_rng(44)
        problem, _ = planted_kkt_instance(rng, 6, 2)
        v = validate(problem)
        h = embed(v, compute_theta(v))
        Zhat = lifted_nullspace_basis(v)
        for _ in range(100):
            u = rng.standard_normal(Zhat.shape[1])
            x_bar = Zhat @ u
            lam_bar = rng.standard_normal(h.m)
            s_bar = h.Q @ x_bar + h.A.T @ lam_bar
            lhs = x_bar @ h.Q @ x_bar
            rhs = x_bar @ s_bar
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
            assert rhs >= -1e-10 * (x_bar @ x_bar)


class TestIterateNormBoundDiagnostic:
    def test_bound_holds_with_dominating_zeta(self):
        h = one_var_hqp(theta=2.0)
        cfg = IipmConfig(zeta=10.0)
        outcome, log = solve(h, cfg)
        # Converged pair is small, so the start radius dominates it.
        tau = outcome.recovery.tau_hat
        x_final = np.concatenate([outcome.y, [1.0]]) * tau
        s_final = np.concatenate([outcome.xi * tau, [outcome.recovery.omega_hat]])
        report = check_iterate_norm_bound(log, 10.0, cfg.beta, h.dim, x_final, s_final)
        assert report["applicable"]
        assert report["violations"] == []

    def test_not_applicable_with_tiny_zeta(self):
        h = one_var_hqp(theta=2.0)
        _, log = solve(h)
        report = check_iterate_norm_bound(
            log, 1e-6, 2.0, h.dim, np.ones(h.dim), np.ones(h.dim)
        )
        assert not report["applicable"]


class TestDirectionDiagnostics:
    def test_scaled_direction_norms_logged(self):
        h = one_var_hqp(theta=2.0)
        _, log = solve(h, IipmConfig(direction_diagnostics=True))
        stepped = [r for r in log.rows if np.isfinite(r.alpha)]
        assert stepped
        assert all(r.scaled_dx_norm is not None for r in stepped)
