"""Interior-point iteration: residuals, neighborhood, steps, full solves."""

import io

import numpy as np
import pytest

from hqp import (
    AmbiguousStatus,
    IipmConfig,
    IipmIterate,
    InstanceKind,
    InstanceSpec,
    QpKktPoint,
    QpProblem,
    SingularNewton,
    SolveStatus,
    StepSearchFailed,
    embed,
    compute_theta,
    generate,
    qp_kkt_residuals,
    solve_qp,
    validate,
)
from hqp.embedding import manual_theta_report
from hqp.iipm import (
    LOG_CSV_COLUMNS,
    SIGMA_MAX,
    SIGMA_MIN,
    automatic_zeta,
    centering_weight,
    in_neighborhood,
    newton_direction,
    positivity_boundary,
    residuals,
    solve,
    step_length,
)
from _support import (
    check_iterate_norm_bound,
    dense_backward_error,
    full_newton_matrix,
    lifted_hessian,
    lifted_nullspace_basis,
    planted_kkt_instance,
    record_steps,
    structured_problem,
)


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
            {"tol_res": 0.0},
            {"zeta": 0.0},
            {"zeta": -1.0},
            {"tol_mu": 0.0},
            {"max_iter": 0},
            {"gamma": float("nan")},
            {"beta": float("nan")},
            {"beta": float("inf")},
            {"zeta": float("nan")},
            {"zeta": float("inf")},
            {"tol_mu": float("nan")},
            {"tol_mu": float("inf")},
            {"tol_res": float("nan")},
            {"tol_res": float("inf")},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IipmConfig(**kwargs)

    def test_centering_weight_clamps_mehrotra_ratio(self, monkeypatch):
        import hqp.iipm

        assert centering_weight(0.9, 1.0) == 0.5
        assert centering_weight(0.1, 1.0) == 0.05
        assert centering_weight(0.0, 1.0) == 0.05
        assert centering_weight(-1e-18, 1.0) == 0.05
        assert centering_weight(1.4, 2.0) == pytest.approx(0.7**3, rel=1e-15)
        # The clamp is read from the module constants at call time.
        monkeypatch.setattr(hqp.iipm, "SIGMA_MIN", 0.2)
        monkeypatch.setattr(hqp.iipm, "SIGMA_MAX", 0.25)
        assert centering_weight(0.7, 1.0) == 0.25
        assert centering_weight(0.5, 1.0) == 0.2


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
    def test_centered_feasible_point_scales_affine_direction(self):
        # At a feasible, exactly centered point (Xs = mu e) the corrected
        # right-hand side is (1 - sigma) times the affine one minus the
        # second-order term dx_aff ds_aff, so the direction is (1 - sigma)
        # times the affine one plus the solve of that term; mu_aff follows
        # from the affine direction in closed form.
        h = one_var_hqp(theta=2.0)
        x = np.array([2.0, 2.0])
        s = h.apply_hessian(x) + h.q  # lam = 0 keeps the dual residual zero
        it = IipmIterate.compute(h, x, np.zeros(1), s)
        d = newton_direction(h, it)
        assert d.corrected
        assert SIGMA_MIN <= d.sigma <= SIGMA_MAX
        assert d.sigma == centering_weight(d.mu_aff, it.mu)
        M = full_newton_matrix(lifted_hessian(h), h.A, x, s)
        aff = np.linalg.solve(M, np.concatenate([np.zeros(3), -x * s]))
        dx_aff, ds_aff = aff[:2], aff[3:]
        second = np.linalg.solve(M, np.concatenate([np.zeros(3), -dx_aff * ds_aff]))
        assert np.allclose(
            np.concatenate([d.dx, d.dlam, d.ds]), (1.0 - d.sigma) * aff + second, atol=1e-12
        )
        alpha = min(1.0, positivity_boundary(x, s, dx_aff, ds_aff))
        expected = (1.0 - alpha) * it.mu + alpha**2 * (dx_aff @ ds_aff) / 2.0
        assert d.mu_aff == pytest.approx(expected, rel=1e-12, abs=1e-14 * it.mu)

    def test_block_identities(self):
        # The third block row carries Mehrotra's second-order term, with
        # the affine direction from a dense solve of the three-block system.
        h = one_var_hqp()
        cfg = IipmConfig()
        it, _ = make_initial(h, cfg)
        d = newton_direction(h, it)
        aff = np.linalg.solve(
            full_newton_matrix(lifted_hessian(h), h.A, it.x, it.s),
            np.concatenate([-it.r_d, -it.r_p, -it.x * it.s]),
        )
        dx_aff, ds_aff = aff[: h.dim], aff[h.dim + h.m :]
        assert np.allclose(h.A @ d.dx, -it.r_p, atol=1e-10)
        assert np.allclose(
            it.s * d.dx + it.x * d.ds,
            -it.x * it.s + d.sigma * it.mu - dx_aff * ds_aff,
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
            dx=np.zeros(h.dim),
            dlam=np.zeros(h.m),
            ds=np.zeros(h.dim),
            rel_residual=0.0,
            sigma=SIGMA_MIN,
            mu_aff=it.mu,
        )
        with pytest.raises(StepSearchFailed):
            step_length(h, it, zero, cfg, it.residual_norm(), it.mu)

    def test_first_iteration_accepts_reasonable_step(self):
        h = one_var_hqp(theta=2.0)
        cfg = IipmConfig()
        it, _ = make_initial(h, cfg)
        d = newton_direction(h, it)
        alpha, stepped, nbhd = step_length(h, it, d, cfg, it.residual_norm(), it.mu)
        assert alpha >= 0.1
        fresh = IipmIterate.compute(
            h, it.x + alpha * d.dx, it.lam + alpha * d.dlam, it.s + alpha * d.ds
        )
        for name in ("x", "lam", "s", "r_d", "r_p"):
            assert np.array_equal(getattr(stepped, name), getattr(fresh, name))
        assert stepped.mu == fresh.mu <= (1 - 0.01 * alpha) * it.mu
        assert nbhd == in_neighborhood(fresh, cfg, it.residual_norm(), it.mu)


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
        from _support import active_set_oracle

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

        counts = {"factorizations": 0, "backsolves": 0, "backward_errors": 0}
        per_step = []
        raw_backward_error = hqp.linsys.newton_backward_error

        class CountingFactorization(hqp.linsys.AugmentedFactorization):
            def __init__(self, *args, **kwargs):
                counts["factorizations"] += 1
                super().__init__(*args, **kwargs)

            def backsolve(self, rhs):
                counts["backsolves"] += 1
                return super().backsolve(rhs)

        def counting_backward_error(*args, **kwargs):
            counts["backward_errors"] += 1
            return raw_backward_error(*args, **kwargs)

        raw_solve = hqp.linsys.solve_newton_system
        solved = {}

        def recording_solve(*args):
            # The right-hand side that the center callback hands back.
            *head, center = args

            def recording_center(*affine):
                solved["rhs"] = center(*affine)
                return solved["rhs"]

            return raw_solve(*head, recording_center)

        raw_direction = hqp.iipm.newton_direction

        def counting_direction(hqp_problem, iterate):
            counts.update(factorizations=0, backsolves=0, backward_errors=0)
            d = raw_direction(hqp_problem, iterate)
            x, s, mu = iterate.x, iterate.s, iterate.mu
            Q, A = lifted_hessian(hqp_problem), hqp_problem.A
            # The affine-scaling direction from a dense solve of the
            # unreduced three-block system, independent of the solver's.
            N, m = x.size, A.shape[0]
            aff = np.linalg.solve(
                full_newton_matrix(Q, A, x, s),
                np.concatenate([-iterate.r_d, -iterate.r_p, -x * s]),
            )
            dx_aff, ds_aff = aff[:N], aff[N + m :]
            alpha = min(1.0, positivity_boundary(x, s, dx_aff, ds_aff))
            mu_aff = (x + alpha * dx_aff) @ (s + alpha * ds_aff) / N
            # The corrected right-hand side from the dense affine direction.
            # The solver's comes from its own plain backsolve, so the two
            # agree to that backsolve's accuracy, and the backward error is
            # recomputed against the solver's.
            oracle_rhs = np.concatenate(
                [-iterate.r_d, -iterate.r_p, -x * s + d.sigma * mu - dx_aff * ds_aff]
            )
            rhs = solved.pop("rhs")
            # The dense Q and its norm, recomputed from scratch.
            data_norm = hqp.linsys.newton_data_norm(np.linalg.norm(Q, np.inf), A)
            eta = dense_backward_error(Q, A, x, s, rhs, d.dx, d.dlam, d.ds, data_norm)
            per_step.append((dict(counts), mu, mu_aff, eta, rhs, oracle_rhs))
            return d

        monkeypatch.setattr(hqp.linsys, "AugmentedFactorization", CountingFactorization)
        monkeypatch.setattr(hqp.linsys, "newton_backward_error", counting_backward_error)
        monkeypatch.setattr(hqp.linsys, "solve_newton_system", recording_solve)
        monkeypatch.setattr(hqp.iipm, "newton_direction", counting_direction)
        validated = validate(generate(spec))
        cfg = IipmConfig()
        _, log = solve(embed(validated, compute_theta(validated)), cfg)
        assert len(per_step) == len(log) - 1 > 0
        for row, (step, mu, mu_aff, eta, rhs, oracle_rhs) in zip(log.rows, per_step):
            assert step["factorizations"] == 1
            assert step["backward_errors"] == 1
            # The predictor's plain backsolve, then the corrected solve.
            assert step["backsolves"] == 2
            assert row.corrected is True
            assert SIGMA_MIN <= row.sigma <= SIGMA_MAX
            assert row.mu_aff == pytest.approx(mu_aff, rel=1e-9, abs=1e-9 * mu)
            assert row.sigma == pytest.approx(centering_weight(mu_aff, mu), rel=1e-9)
            scale = np.linalg.norm(oracle_rhs, np.inf)
            assert np.linalg.norm(rhs - oracle_rhs, np.inf) <= 1e-12 * scale
            assert row.newton_rel_resid == pytest.approx(eta, rel=1e-12)

    @pytest.mark.parametrize(
        "kind, status",
        [("feasible_sv", SolveStatus.OPTIMAL), ("infeasible_sv", SolveStatus.INFEASIBLE)],
    )
    def test_safeguard_falls_back_on_same_factors(self, kind, status, monkeypatch):
        # With the threshold above every step length, each corrected step
        # counts as short and falls back to the pure centered direction.
        import hqp.iipm
        import hqp.linsys

        factorizations = []

        class CountingFactorization(hqp.linsys.AugmentedFactorization):
            def __init__(self, *args, **kwargs):
                factorizations[-1] += 1
                super().__init__(*args, **kwargs)

        raw_direction = hqp.iipm.newton_direction

        def counting_direction(*args):
            factorizations.append(0)
            return raw_direction(*args)

        validated = validate(generate(InstanceSpec(InstanceKind(kind), 10, seed=0)))
        h = embed(validated, compute_theta(validated))
        monkeypatch.setattr(hqp.iipm, "SAFEGUARD_STEP", np.inf)
        monkeypatch.setattr(hqp.linsys, "AugmentedFactorization", CountingFactorization)
        monkeypatch.setattr(hqp.iipm, "newton_direction", counting_direction)
        steps = record_steps(monkeypatch)
        outcome, log = solve(h)
        assert outcome.status is status
        stepped = log.rows[:-1]
        assert len(steps) == len(factorizations) == len(stepped) > 0
        assert factorizations == [1] * len(stepped)
        Q = lifted_hessian(h)
        data_norm = hqp.linsys.newton_data_norm(np.linalg.norm(Q, np.inf), h.A)
        assert log.rows[-1].as_dict()["corrected"] is None
        for row, (it, d, _) in zip(stepped, steps):
            assert row.corrected is False and not d.corrected
            assert row.as_dict()["corrected"] is False
            assert row.newton_rel_resid == d.rel_residual <= 1e-10
            # The logged backward error, recomputed with the dense Q against
            # the pure centered right-hand side.
            centered = np.concatenate([-it.r_d, -it.r_p, -it.x * it.s + row.sigma * it.mu])
            eta = dense_backward_error(
                Q, h.A, it.x, it.s, centered, d.dx, d.dlam, d.ds, data_norm
            )
            assert row.newton_rel_resid == pytest.approx(eta, rel=1e-12)
            # The centered direction as computed without the corrector: a
            # fresh factorization whose center callback returns that
            # right-hand side.
            affine = np.concatenate([-it.r_d, -it.r_p, -it.x * it.s])
            plain = hqp.linsys.solve_newton_system(
                h.apply_hessian, h.A, it.x, it.s, affine, h.newton_data_norm,
                h.newton_split, lambda *_: centered,
            )
            expected = np.concatenate(plain[:3])
            gap = np.linalg.norm(np.concatenate([d.dx, d.dlam, d.ds]) - expected, np.inf)
            assert gap <= 1e-12 * np.linalg.norm(expected, np.inf)

    @pytest.mark.parametrize(
        "kind, n, m, seed, cost_scale",
        [
            *(
                ("feasible_sv", n, 1, seed, 1.0)
                for n, seed in ((10, 5), (10, 12), (10, 19), (25, 9), (50, 5), (100, 9))
            ),
            ("random_spd", 30, 5, 2, 1e-3),
        ],
    )
    def test_formerly_ambiguous_instances_solve(self, kind, n, m, seed, cost_scale):
        # Each raised AmbiguousStatus at the defaults when the first iterate
        # with mu <= tol_mu ended the run; recovery now decides when to stop.
        p = generate(InstanceSpec(InstanceKind(kind), n, m=m, seed=seed))
        problem = QpProblem(p.C * cost_scale, p.c * cost_scale, p.E, p.f)
        outcome = solve_qp(problem).outcome
        assert outcome.status is SolveStatus.OPTIMAL
        res = qp_kkt_residuals(problem, QpKktPoint(outcome.y, outcome.nu, outcome.xi))
        assert res.max_violation() <= 1e-6 * (1.0 + problem.data_scale())

    @pytest.mark.parametrize("kind", ["negative_diagonal", "slack_rows"])
    def test_divided_hessian_rows_match_oracle(self, kind):
        # Newton steps divide out the diagonal rows of C with C_ii >= 0.  A
        # C that is indefinite on R^n through a negative diagonal-only entry
        # keeps that row in the factored block; the slack variables of
        # to_standard_form have C_ii = 0 and pivot s_i / x_i alone.
        from hqp import InfeasCertificate, check_certificate
        from _support import active_set_oracle

        statuses = set()
        for seed in range(6):
            problem = structured_problem(np.random.default_rng(seed), kind)
            if kind == "negative_diagonal":
                assert np.linalg.eigvalsh(problem.C)[0] < 0.0
            oracle = active_set_oracle(problem)
            outcome = solve_qp(problem, IipmConfig(tol_mu=1e-11)).outcome
            assert outcome.status is oracle.status, seed
            statuses.add(outcome.status)
            if outcome.status is SolveStatus.OPTIMAL:
                assert np.linalg.norm(outcome.y - oracle.y_opt, np.inf) <= 1e-6
            else:
                cert = InfeasCertificate(outcome.cert_nu, outcome.cert_xi)
                assert check_certificate(problem, cert).max_violation() <= 1e-6
        assert SolveStatus.OPTIMAL in statuses

    def test_numerical_failure_after_recovery_is_ambiguous(self, monkeypatch):
        # feasible_sv n=10 seed 12 first reaches mu <= tol_mu with neither
        # route certified; a Newton failure from then on ends the run with
        # the last recovery report and the log.
        import hqp.linsys

        raw = hqp.linsys.solve_newton_system

        def fail_late(apply_q, A, x, s, *args):
            if x @ s / x.size <= IipmConfig().tol_mu:
                raise SingularNewton("forced")
            return raw(apply_q, A, x, s, *args)

        monkeypatch.setattr(hqp.linsys, "solve_newton_system", fail_late)
        validated = validate(generate(InstanceSpec(InstanceKind.FEASIBLE_SV, 10, seed=12)))
        with pytest.raises(AmbiguousStatus, match="forced") as info:
            solve(embed(validated, compute_theta(validated)))
        report = info.value.report
        assert report.kkt_scaled > report.tol and report.certificate_scaled > report.tol
        rows = info.value.log.rows
        assert rows[-1].mu <= IipmConfig().tol_mu < rows[-2].mu

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
            s_bar = h.apply_hessian(x_bar) + h.A.T @ lam_bar
            lhs = x_bar @ lifted_hessian(h) @ x_bar
            rhs = x_bar @ s_bar
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
            assert rhs >= -1e-10 * (x_bar @ x_bar)


def row_iterates(steps):
    """The iterate of each log row of one solve, from record_steps."""
    return [step[0] for step in steps] + [steps[-1][2]]


class TestIterateNormBoundDiagnostic:
    def test_bound_holds_with_dominating_zeta(self, monkeypatch):
        steps = record_steps(monkeypatch)
        h = one_var_hqp(theta=2.0)
        cfg = IipmConfig(zeta=10.0)
        outcome, log = solve(h, cfg)
        # Converged pair is small, so the start radius dominates it.
        tau = outcome.recovery.tau_hat
        x_final = np.concatenate([outcome.y, [1.0]]) * tau
        s_final = np.concatenate([outcome.xi * tau, [outcome.recovery.omega_hat]])
        report = check_iterate_norm_bound(
            log, row_iterates(steps), 10.0, cfg.beta, h.dim, x_final, s_final
        )
        assert report["applicable"]
        assert report["violations"] == []

    def test_not_applicable_with_tiny_zeta(self, monkeypatch):
        steps = record_steps(monkeypatch)
        h = one_var_hqp(theta=2.0)
        _, log = solve(h)
        report = check_iterate_norm_bound(
            log, row_iterates(steps), 1e-6, 2.0, h.dim, np.ones(h.dim), np.ones(h.dim)
        )
        assert not report["applicable"]


class TestDirectionDiagnostics:
    def test_scaled_direction_norms_logged(self, monkeypatch):
        # ||D^-1 dx|| / (N mu) and ||D ds|| / (N mu), D = (X/S)^(1/2), of
        # every step taken, from the recorded iterates and directions.
        steps = record_steps(monkeypatch)
        h = one_var_hqp(theta=2.0)
        _, log = solve(h)
        stepped = [r for r in log.rows if np.isfinite(r.alpha)]
        assert stepped
        assert len(steps) == len(stepped)
        for row, (iterate, direction, _) in zip(stepped, steps):
            assert iterate.mu == row.mu
            d_scale = np.sqrt(iterate.x / iterate.s)
            denom = h.dim * row.mu
            scaled_dx_norm = np.linalg.norm(direction.dx / d_scale) / denom
            scaled_ds_norm = np.linalg.norm(direction.ds * d_scale) / denom
            assert np.isfinite(scaled_dx_norm) and np.isfinite(scaled_ds_norm)
