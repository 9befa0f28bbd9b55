"""Embedding parameter selection, the lifted program, and recovery."""

import numpy as np
import pytest

from hqp import (
    AmbiguousStatus,
    InfeasCertificate,
    InstanceKind,
    InstanceSpec,
    NotReducedPd,
    QpProblem,
    SolveStatus,
    check_certificate,
    compute_theta,
    embed,
    generate,
    qp_kkt_residuals,
    recover,
    validate,
)
from hqp.embedding import manual_theta_report

from _support import (
    STRUCTURED_KINDS,
    HqpKktPoint,
    HqpKktResiduals,
    check_reduced_hessian_pd,
    hqp_kkt_residuals,
    lifted_matrices,
    paper_pd_bounds,
    planted_certificate_instance,
    planted_kkt_instance,
    reduced_min_eig,
    reference_theta_star,
    separable_reference,
    structured_problem,
)


def worked_problem():
    return QpProblem(np.eye(2), [1.0, 1.0], [[1.0, 1.0]], [-1.0])


def worked_validated():
    return validate(worked_problem())


def column_scaled(problem, seed):
    d = 10.0 ** np.random.default_rng(seed).uniform(-2, 2, problem.n)
    return QpProblem(problem.C * np.outer(d, d), problem.c * d, problem.E * d, problem.f)


def one_var_hqp(theta=2.0):
    v = validate(QpProblem([[1.0]], [0.0], [[1.0]], [1.0]))
    return embed(v, manual_theta_report(v, theta))


class TestThetaStar:
    def test_one_variable(self):
        # Equality-relaxed minimum of 0.5 y^2 on y = 1.
        v = validate(QpProblem([[1.0]], [0.0], [[1.0]], [1.0]))
        assert v.theta_star == pytest.approx(0.5, abs=1e-12)

    def test_worked_instance(self):
        assert worked_validated().theta_star == pytest.approx(-0.75, abs=1e-12)

    def test_zero_data(self):
        v = validate(QpProblem(np.eye(2), np.zeros(2), [[1.0, 1.0]], [0.0]))
        assert v.theta_star == pytest.approx(0.0, abs=1e-14)


class TestComputeTheta:
    def test_worked_exact_bound(self):
        # The paper's exact bound, kept as a test-side reference, equals
        # 2|theta_star| = -2 theta_star here.
        rep = compute_theta(worked_validated())
        assert paper_pd_bounds(worked_problem())["exact_Z"] == pytest.approx(1.5, abs=1e-12)
        assert rep.condition1_rhs == pytest.approx(1.5, abs=1e-12)
        assert rep.theta == pytest.approx(1.65, abs=1e-12)
        assert rep.margin == 0.1

    def test_worked_norm_relaxed(self):
        # The paper's norm-relaxed bound, kept as a test-side reference,
        # is 2.0 here and sits above the exact threshold 1.5.
        bounds = paper_pd_bounds(worked_problem())
        assert bounds["norm_relaxed"] == pytest.approx(2.0, abs=1e-12)
        assert bounds["exact_Z"] == pytest.approx(1.5, abs=1e-12)
        assert -2.0 * compute_theta(worked_validated()).theta_star <= bounds["norm_relaxed"]

    def test_zero_data_floor(self):
        v = validate(QpProblem(np.eye(2), np.zeros(2), [[1.0, 1.0]], [0.0]))
        rep = compute_theta(v)
        assert rep.theta_star == pytest.approx(0.0, abs=1e-14)
        assert paper_pd_bounds(v.problem)["exact_Z"] == pytest.approx(0.0, abs=1e-14)
        assert rep.theta == pytest.approx(1.1)

    def test_user_alpha_bound(self):
        # ||Cd+c||^2 / alpha - d'Cd - 2c'd = 0.5/0.5 - 0.5 + 2 = 2.5, above
        # the exact threshold 1.5.
        bounds = paper_pd_bounds(worked_problem(), alpha=0.5)
        assert bounds["alpha"] == pytest.approx(2.5, abs=1e-12)
        assert -2.0 * compute_theta(worked_validated()).theta_star <= bounds["alpha"]

    @pytest.mark.parametrize(
        "kind,n,m,scaled",
        [
            ("feasible_sv", 50, 1, False),
            ("infeasible_sv", 50, 1, False),
            ("random_spd", 30, 5, False),
            ("random_spd", 30, 5, True),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_reference_exact_z(self, kind, n, m, scaled, seed):
        # The shipped theta is 1.1 max(2|theta_star|, 1), with theta_star
        # recomputed by a dense KKT solve.  The paper's exact_Z rule, from
        # scipy's null space and a least-squares d, never lies below it, and
        # on the sv families (Z'CZ = I) it gives the same theta.
        problem = generate(InstanceSpec(InstanceKind(kind), n=n, m=m, seed=seed))
        if scaled:
            problem = column_scaled(problem, seed)
        rep = compute_theta(validate(problem))
        condition1 = 2.0 * abs(reference_theta_star(problem))
        assert rep.theta == pytest.approx(1.1 * max(condition1, 1.0), rel=1e-9)
        exact_z = 1.1 * max(condition1, paper_pd_bounds(problem)["exact_Z"], 1.0)
        assert rep.theta <= exact_z * (1.0 + 1e-9)
        if kind != "random_spd":
            assert rep.theta == pytest.approx(exact_z, rel=1e-9)

    def test_square_equality_block(self):
        # m = n leaves only the single diagonal entry theta + d'Cd + 2c'd.
        v = validate(QpProblem([[1.0]], [0.0], [[1.0]], [1.0]))
        rep = compute_theta(v)
        assert paper_pd_bounds(v.problem)["exact_Z"] == pytest.approx(-1.0, abs=1e-12)
        assert v.theta_star == pytest.approx(0.5)
        assert rep.theta == pytest.approx(1.1 * max(1.0, 1.0))

    def test_invariants_hold(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p, _ = planted_kkt_instance(rng, int(rng.integers(2, 7)), int(rng.integers(1, 3)))
            v = validate(p)
            rep = compute_theta(v)
            assert rep.theta > 2 * abs(rep.theta_star)
            assert rep.theta > -2.0 * rep.theta_star
            assert rep.theta > 0
            assert check_reduced_hessian_pd(v, rep.theta) > 0.0


class TestReducedHessianCheck:
    def test_worked_instance_margin(self):
        # Reduced lifted Hessian is diag(1, theta - 3/2), so the smallest
        # eigenvalue at theta = 1.65 is 0.15.
        v = worked_validated()
        assert check_reduced_hessian_pd(v, 1.65) == pytest.approx(0.15, abs=1e-12)

    def test_rejection_witness_below_bound(self):
        v = worked_validated()
        assert check_reduced_hessian_pd(v, 1.4) == pytest.approx(-0.1, abs=1e-12)

    def test_square_equality_scalar_block(self):
        v = validate(QpProblem([[1.0]], [0.0], [[1.0]], [1.0]))
        assert check_reduced_hessian_pd(v, 2.0) == pytest.approx(3.0, abs=1e-12)

    def test_positive_for_computed_theta(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            p, _ = planted_kkt_instance(rng, int(rng.integers(2, 8)), int(rng.integers(0, 3)))
            v = validate(p)
            rep = compute_theta(v)
            assert check_reduced_hessian_pd(v, rep.theta) > 0.0


class TestEmbed:
    def test_one_variable_blocks(self):
        h = one_var_hqp(theta=2.0)
        Q = np.column_stack([h.apply_hessian(e) for e in np.eye(2)])
        assert np.array_equal(Q, [[1.0, 0.0], [0.0, 2.0]])
        assert np.array_equal(h.q, [0.0, -2.0])
        assert np.array_equal(h.A, [[1.0, -1.0]])

    @pytest.mark.parametrize("kind", STRUCTURED_KINDS)
    def test_structure_matches_dense_lift(self, kind):
        # Q is applied, normed and split from C, c and theta; each agrees
        # with the dense [[C, c], [c', theta]] of the test side.
        rng = np.random.default_rng(23)
        v = validate(structured_problem(rng, kind))
        h = embed(v, compute_theta(v))
        Q, q, A = lifted_matrices(v.problem, h.theta)
        assert np.array_equal(h.q, q) and np.array_equal(h.A, A)
        for _ in range(5):
            x = rng.standard_normal(h.dim)
            assert np.allclose(h.apply_hessian(x), Q @ x, rtol=1e-14, atol=1e-14)
        assert h.hessian_norm == pytest.approx(np.linalg.norm(Q, np.inf), rel=1e-14)
        # The split is the dense KKT matrix [[Q, A'], [A, 0]] indexed by
        # its own sep and keep.
        split = h.newton_split
        assert split.sep.tolist() == [
            i for i in separable_reference(v.problem.C) if v.problem.C[i, i] >= 0.0
        ]
        K = np.block([[Q, A.T], [A, np.zeros((h.m, h.m))]])
        assert np.array_equal(split.K, K[np.ix_(split.keep, split.keep)])
        assert np.array_equal(split.W, K[np.ix_(split.sep, split.keep)])
        assert np.array_equal(split.pivot, np.diag(Q)[split.sep])
        assert split.kept_vars.tolist() == [i for i in split.keep if i <= h.n]

    def test_origin_always_feasible(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            p, _ = planted_kkt_instance(rng, 4, 2)
            v = validate(p)
            h = embed(v, compute_theta(v))
            x0 = np.zeros(h.dim)
            assert np.array_equal(h.A @ x0, np.zeros(h.m))
            assert h.objective(x0) == 0.0

    def test_objective_identity(self):
        rng = np.random.default_rng(22)
        p, _ = planted_kkt_instance(rng, 3, 1)
        v = validate(p)
        h = embed(v, compute_theta(v))
        theta = h.theta
        for _ in range(10):
            y = rng.standard_normal(3)
            tau = rng.random()
            x = np.concatenate([y, [tau]])
            direct = (
                0.5 * y @ p.C @ y
                + tau * (p.c @ y)
                + 0.5 * theta * (tau**2 - 2 * tau)
            )
            assert h.objective(x) == pytest.approx(direct, rel=1e-12, abs=1e-12)


class TestManualTheta:
    @pytest.mark.parametrize(
        "kind,n,m,seed",
        [("feasible_sv", 10, 1, 0), ("feasible_sv", 50, 1, 3), ("infeasible_sv", 10, 1, 1),
         ("random_spd", 30, 5, 0), ("random_spd", 30, 5, 4), ("random_spd", 8, 3, 4)],
    )
    def test_threshold_matches_reduced_hessian(self, kind, n, m, seed):
        # The refusal test theta <= -2 theta_star agrees with the sign of the
        # reduced lifted Hessian's smallest eigenvalue on both sides.  The
        # instances have theta_star < 0, so the threshold is above the
        # theta > 0 floor.
        v = validate(generate(InstanceSpec(InstanceKind(kind), n=n, m=m, seed=seed)))
        threshold = -2.0 * v.theta_star
        assert threshold > 0.0
        assert check_reduced_hessian_pd(v, 1.1 * threshold) > 0.0
        manual_theta_report(v, 1.1 * threshold)
        assert check_reduced_hessian_pd(v, 0.9 * threshold) < 0.0
        with pytest.raises(NotReducedPd):
            manual_theta_report(v, 0.9 * threshold)

    def test_too_small_rejected(self):
        with pytest.raises(NotReducedPd):
            manual_theta_report(worked_validated(), 1.4)

    def test_nonpositive_rejected(self):
        with pytest.raises(NotReducedPd):
            manual_theta_report(worked_validated(), 0.0)

    def test_valid_override(self):
        rep = manual_theta_report(worked_validated(), 5.0)
        assert rep.override
        assert rep.theta == 5.0


class TestRecover:
    def test_one_variable_optimal(self):
        # tau_bar = theta/(theta + c'y* - f'nu*) = 2/3; the lifted solution
        # rescales back to (y, nu, xi) = (1, -1, 0).
        h = one_var_hqp(theta=2.0)
        tau_bar = 2.0 / 3.0
        out = recover(
            h,
            x_hat=np.array([tau_bar, tau_bar]),
            lam_hat=np.array([-tau_bar]),
            s_hat=np.array([0.0, 0.0]),
        )
        assert out.status is SolveStatus.OPTIMAL
        assert out.y == pytest.approx([1.0], abs=1e-12)
        assert out.nu == pytest.approx([-1.0], abs=1e-12)
        assert out.xi == pytest.approx([0.0], abs=1e-12)

    def test_one_variable_certificate(self):
        v = validate(QpProblem([[1.0]], [0.0], [[1.0]], [-1.0]))
        h = embed(v, manual_theta_report(v, 2.0))
        theta = h.theta
        out = recover(
            h,
            x_hat=np.zeros(2),
            lam_hat=np.array([theta * 1.0]),
            s_hat=np.array([theta * 1.0, 0.0]),
        )
        assert out.status is SolveStatus.INFEASIBLE
        assert out.cert_nu == pytest.approx([1.0], abs=1e-12)
        assert out.cert_xi == pytest.approx([1.0], abs=1e-12)

    def test_degenerate_all_zero_is_ambiguous(self):
        h = one_var_hqp(theta=2.0)
        with pytest.raises(AmbiguousStatus):
            recover(h, np.zeros(2), np.zeros(1), np.zeros(2))

    def test_gap_bounds_the_optimal_route(self):
        # On y = 1 with xi = eps and nu = eps - 1, stationarity and the
        # equality hold exactly, and min(y, xi) = eps is within tolerance;
        # the relative gap eps / (1 + 0.5) decides the optimal route.
        h = one_var_hqp(theta=2.0)
        tau = 2.0 / 3.0
        for eps, optimal in ((1e-8, True), (5e-7, False)):
            args = (
                np.array([tau, tau]),
                np.array([tau * (eps - 1.0)]),
                np.array([tau * eps, 0.0]),
            )
            if optimal:
                rep = recover(h, *args).recovery
            else:
                with pytest.raises(AmbiguousStatus, match="gap") as info:
                    recover(h, *args)
                rep = info.value.report
                assert rep.kkt_scaled <= rep.tol
            assert rep.gap == pytest.approx(eps / 1.5, rel=1e-9)
            assert rep.as_dict()["gap"] == rep.gap

    def test_exact_tie_goes_to_the_optimal_route(self, monkeypatch):
        # Both routes certified with equal scores, whatever tau_hat is.
        import hqp.embedding

        class Scored:
            r_comp = 0.0

            def max_violation(self):
                return 1e-9

        monkeypatch.setattr(hqp.embedding, "qp_kkt_residuals", lambda *_: Scored())
        monkeypatch.setattr(hqp.embedding, "check_certificate", lambda *_: Scored())
        h = one_var_hqp(theta=2.0)
        for tau in (1e-6, 1.0):
            out = recover(h, np.array([tau, tau]), np.array([-tau]), np.array([0.0, 0.0]))
            assert out.status is SolveStatus.OPTIMAL
            assert out.recovery.kkt_scaled == out.recovery.certificate_scaled <= out.recovery.tol

    def test_report_carries_both_routes(self):
        h = one_var_hqp(theta=2.0)
        tau_bar = 2.0 / 3.0
        out = recover(
            h,
            np.array([tau_bar, tau_bar]),
            np.array([-tau_bar]),
            np.array([0.0, 0.0]),
        )
        rep = out.recovery
        assert rep.tau_hat == pytest.approx(tau_bar)
        assert rep.kkt is not None
        assert rep.certificate_scaled > rep.kkt_scaled


def lifted_point_from_qp_point(theta, point, problem):
    tau_bar = theta / (theta + problem.c @ point.y - problem.f @ point.nu)
    return HqpKktPoint(
        y_hat=tau_bar * point.y,
        tau_hat=tau_bar,
        nu_hat=tau_bar * point.nu,
        xi_hat=tau_bar * point.xi,
        omega_hat=0.0,
    ), tau_bar


class TestEmbeddingRoundTrips:
    def test_optimal_point_round_trip(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(1, min(4, n)))
            problem, point = planted_kkt_instance(rng, n, m)
            assert qp_kkt_residuals(problem, point).max_violation() <= 1e-12 * (
                1 + problem.data_scale()
            )
            v = validate(problem)
            h = embed(v, compute_theta(v))
            lifted, tau_bar = lifted_point_from_qp_point(h.theta, point, problem)
            # Positivity of the rescaling denominator follows from the
            # identity theta + c'y + y'Cy + ... staying above zero.
            chain = h.theta + 2 * problem.c @ point.y + point.y @ problem.C @ point.y
            assert chain > 0 and tau_bar > 0
            res = hqp_kkt_residuals(h, lifted)
            assert res.max_violation() <= 1e-10 * (1 + problem.data_scale())

    def test_certificate_round_trip(self):
        rng = np.random.default_rng(32)
        for _ in range(15):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(1, min(4, n)))
            problem, nu0, xi0 = planted_certificate_instance(rng, n, m)
            assert check_certificate(
                problem, InfeasCertificate(nu0, xi0)
            ).max_violation() <= 1e-12 * (1 + problem.data_scale())
            v = validate(problem)
            h = embed(v, compute_theta(v))
            lifted = HqpKktPoint(
                y_hat=np.zeros(n),
                tau_hat=0.0,
                nu_hat=h.theta * nu0,
                xi_hat=h.theta * xi0,
                omega_hat=0.0,
            )
            res = hqp_kkt_residuals(h, lifted)
            assert res.max_violation() <= 1e-10 * (1 + problem.data_scale())


class TestBoundOrdering:
    """-2 theta_star (the exact threshold) <= the paper's exact_Z bound <=
    its relaxed bounds, which live on the test side."""

    def test_norm_relaxed_dominates_exact(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, n))
            problem, _ = planted_kkt_instance(rng, n, m)
            v = validate(problem)
            rep = compute_theta(v)
            bounds = paper_pd_bounds(problem)
            assert bounds["exact_Z"] >= -2.0 * rep.theta_star - 1e-12
            assert bounds["norm_relaxed"] >= bounds["exact_Z"] - 1e-12
            assert check_reduced_hessian_pd(v, rep.theta) > 0.0

    def test_user_alpha_dominates_exact(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n))
            problem, _ = planted_kkt_instance(rng, n, m)
            v = validate(problem)
            rep = compute_theta(v)
            bounds = paper_pd_bounds(problem, alpha=0.5 * reduced_min_eig(problem))
            assert bounds["exact_Z"] >= -2.0 * rep.theta_star - 1e-12
            assert bounds["alpha"] >= bounds["exact_Z"] - 1e-12


class TestObjectiveLowerBoundChain:
    def test_feasible_values_stay_above_half_theta(self):
        # Any feasible point's objective exceeds -theta/2 with the safety
        # margin to spare.
        rng = np.random.default_rng(35)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            E = 1.0 - rng.random((1, n))
            problem = QpProblem(np.eye(n), np.ones(n), E, [1.0])
            v = validate(problem)
            rep = compute_theta(v)
            y_feas = E[0] / (E[0] @ E[0])
            assert np.all(y_feas >= 0)
            value = problem.objective(y_feas)
            assert value > -rep.theta / 2.0


class TestHqpKktResiduals:
    @pytest.mark.parametrize("field", ["stat_y", "stat_tau", "eq", "comp_max", "nonneg"])
    def test_nan_is_not_dropped(self, field):
        parts = dict(stat_y=np.zeros(2), stat_tau=0.0, eq=np.zeros(1), comp_max=0.0, nonneg=0.0)
        parts[field] = np.full_like(parts[field], np.nan) if field in ("stat_y", "eq") else np.nan
        assert not np.isfinite(HqpKktResiduals(**parts).max_violation())
