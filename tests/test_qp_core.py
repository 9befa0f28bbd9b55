"""Standard-form problem data, validation, and residual evaluators."""

import numpy as np
import pytest

from hqp import (
    DimensionMismatch,
    FreeVariable,
    GeneralQp,
    InfeasCertificate,
    NotReducedPd,
    ProblemFormatError,
    QpKktPoint,
    QpProblem,
    RankDeficient,
    check_certificate,
    qp_kkt_residuals,
    to_standard_form,
    validate,
)

from hqp.qp import CertificateResiduals, KktResiduals

from _support import (
    null_space_and_min_norm,
    planted_kkt_instance,
    random_full_rank,
    random_spd_matrix,
    reduced_min_eig,
    reference_theta_star,
    standard_variables,
)


def worked_problem():
    return QpProblem(np.eye(2), [1.0, 1.0], [[1.0, 1.0]], [-1.0])


class TestProblemConstruction:
    def test_symmetrizes_hessian(self):
        p = QpProblem([[1.0, 2.0], [0.0, 1.0]], [0.0, 0.0])
        assert np.array_equal(p.C, [[1.0, 1.0], [1.0, 1.0]])

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            QpProblem(np.eye(2), [1.0, 1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            QpProblem(np.eye(2), [1.0, 1.0], [[1.0, 1.0]], [1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            QpProblem(np.eye(1), [1.0], [[1.0], [2.0]], [1.0, 2.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["C", "c", "E", "f"])
    def test_nonfinite_rejected(self, field, value):
        data = dict(C=np.eye(2), c=np.ones(2), E=np.ones((1, 2)), f=np.ones(1))
        data[field] = np.array(data[field])
        data[field].flat[-1] = value
        with pytest.raises(ProblemFormatError, match=f"^{field} has non-finite"):
            QpProblem(data["C"], data["c"], data["E"], data["f"])

    def test_arrays_immutable(self):
        p = worked_problem()
        with pytest.raises(ValueError):
            p.C[0, 0] = 5.0


class TestValidate:
    def test_worked_instance(self):
        # Null space of [1 1] is spanned by z = (1,-1)/sqrt(2); the reduced
        # Hessian z'Cz of the identity is exactly 1.
        # Validation keeps theta_star = -0.75, the minimum of
        # 0.5|y|^2 + y1 + y2 on y1 + y2 = -1.
        p = worked_problem()
        v = validate(p)
        z = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert z @ np.eye(2) @ z == pytest.approx(1.0, abs=1e-15)
        assert reduced_min_eig(p) == pytest.approx(1.0, abs=1e-12)
        Z = null_space_and_min_norm(p.E, p.f)[0]
        assert abs(Z[:, 0] @ z) == pytest.approx(1.0, abs=1e-12)
        assert v.theta_star == pytest.approx(-0.75, abs=1e-15)

    def test_duplicate_row_rank_deficient(self):
        p = QpProblem(np.eye(2), [0.0, 0.0], [[1.0, 1.0], [2.0, 2.0]], [0.0, 0.0])
        with pytest.raises(RankDeficient):
            validate(p)

    def test_indefinite_reduced_hessian(self):
        p = QpProblem(np.diag([1.0, -1.0]), [0.0, 0.0], [[1.0, 0.0]], [0.0])
        with pytest.raises(NotReducedPd):
            validate(p)

    def test_singular_on_null_space(self):
        # C = diag(1, 0) is positive semidefinite, and zero on null([1, 0]):
        # the KKT matrix is singular, with a zero pivot.
        p = QpProblem(np.diag([1.0, 0.0]), [0.0, 0.0], [[1.0, 0.0]], [0.0])
        with pytest.raises(NotReducedPd, match=r"inertia \(1, 1, 1\)"):
            validate(p)

    def test_square_equality_is_vacuous(self):
        p = QpProblem(np.diag([1.0, -1.0]), [0.0, 0.0], np.eye(2), [1.0, 1.0])
        v = validate(p)
        assert reduced_min_eig(p) is None
        assert null_space_and_min_norm(p.E, p.f)[0].shape == (2, 0)
        # y = (1, 1) is the only feasible point: 0.5 (1 - 1) = 0.
        assert v.theta_star == pytest.approx(0.0, abs=1e-15)

    def test_no_equalities(self):
        p = QpProblem(np.eye(3), np.zeros(3))
        v = validate(p)
        assert null_space_and_min_norm(p.E, p.f)[0].shape == (3, 3)
        assert reduced_min_eig(p) == pytest.approx(1.0)
        assert v.theta_star == 0.0

    @pytest.mark.parametrize(
        "n,m,seed",
        [(4, 0, 0), (4, 4, 1), (1, 1, 2), (2, 1, 3), (7, 3, 4), (30, 5, 5), (60, 59, 6)],
    )
    def test_outputs(self, n, m, seed):
        # The test-side SVD of E gives Z and d and the reduced eigenvalue;
        # validation's theta_star matches a dense KKT solve.
        rng = np.random.default_rng(seed)
        C = random_spd_matrix(rng, n)
        E = random_full_rank(rng, m, n)
        f = rng.standard_normal(m)
        p = QpProblem(C, rng.standard_normal(n), E if m else None, f if m else None)
        v = validate(p)
        assert v.theta_star == pytest.approx(reference_theta_star(p), rel=1e-9, abs=1e-12)
        Z, d = null_space_and_min_norm(p.E, p.f)
        tol = 1e-12 * max(1.0, np.linalg.norm(E, np.inf), np.linalg.norm(f, np.inf))
        assert Z.shape == (n, n - m) and d.shape == (n,)
        assert np.linalg.norm(Z.T @ Z - np.eye(n - m), np.inf) <= 1e-12
        assert np.linalg.norm(E @ Z, np.inf) <= 1e2 * tol
        assert np.linalg.norm(E @ d - f, np.inf) <= 1e2 * tol * max(1.0, np.linalg.norm(d))
        assert np.linalg.norm(Z.T @ d, np.inf) <= 1e-12 * max(1.0, np.linalg.norm(d))
        if n > m:
            expected = np.linalg.eigvalsh(Z.T @ p.C @ Z)[0]
            assert reduced_min_eig(p) == pytest.approx(expected, rel=1e-12)
        else:
            assert reduced_min_eig(p) is None
        again = validate(p)
        assert again.theta_star == v.theta_star

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
    def test_dependent_rows_rejected(self, scale):
        rng = np.random.default_rng(7)
        E = rng.standard_normal((2, 6))
        E = np.vstack([E, E[0] + 2.0 * E[1]]) * scale
        p = QpProblem(np.eye(6), np.zeros(6), E, E @ np.ones(6))
        with pytest.raises(RankDeficient):
            validate(p)


class TestKktResiduals:
    def test_one_variable_solution(self):
        # y = 1 forced by the constraint, xi = 0 by complementarity,
        # nu = -1 from stationarity.
        p = QpProblem([[1.0]], [0.0], [[1.0]], [1.0])
        r = qp_kkt_residuals(p, QpKktPoint(np.array([1.0]), np.array([-1.0]), np.array([0.0])))
        assert r.max_violation() == 0.0

    def test_origin_on_homogeneous_problem(self):
        p = QpProblem(np.eye(2), np.zeros(2), [[1.0, 1.0]], [0.0])
        r = qp_kkt_residuals(p, QpKktPoint(np.zeros(2), np.zeros(1), np.zeros(2)))
        assert r.max_violation() == 0.0

    def test_equality_residual_linear_in_perturbation(self):
        p = worked_problem()
        base = QpKktPoint(np.zeros(2), np.zeros(1), np.zeros(2))
        delta = 0.25
        moved = QpKktPoint(base.y + delta, base.nu, base.xi)
        r0 = qp_kkt_residuals(p, base)
        r1 = qp_kkt_residuals(p, moved)
        assert np.linalg.norm(r1.r_eq - r0.r_eq, np.inf) == pytest.approx(
            abs(delta) * 2.0
        )

    def test_affine_in_point(self):
        rng = np.random.default_rng(7)
        p, _ = planted_kkt_instance(rng, 5, 2)
        pts = [
            QpKktPoint(rng.standard_normal(5), rng.standard_normal(2), rng.standard_normal(5))
            for _ in range(2)
        ]
        t = 0.5
        mix = QpKktPoint(
            t * pts[0].y + (1 - t) * pts[1].y,
            t * pts[0].nu + (1 - t) * pts[1].nu,
            t * pts[0].xi + (1 - t) * pts[1].xi,
        )
        r_mix = qp_kkt_residuals(p, mix)
        r0 = qp_kkt_residuals(p, pts[0])
        r1 = qp_kkt_residuals(p, pts[1])
        scale = 1.0 + p.data_scale()
        assert np.allclose(
            r_mix.r_stat, t * r0.r_stat + (1 - t) * r1.r_stat, atol=1e-13 * scale
        )
        assert np.allclose(
            r_mix.r_eq, t * r0.r_eq + (1 - t) * r1.r_eq, atol=1e-13 * scale
        )


class TestMaxViolation:
    @pytest.mark.parametrize("field", ["r_stat", "r_eq", "comp_min", "r_nonneg"])
    def test_kkt_nan_is_not_dropped(self, field):
        parts = dict(
            r_stat=np.zeros(2), r_eq=np.zeros(1), r_comp=0.0, comp_min=np.zeros(2), r_nonneg=0.0
        )
        parts[field] = np.full_like(parts[field], np.nan) if field != "r_nonneg" else np.nan
        assert not np.isfinite(KktResiduals(**parts).max_violation())

    @pytest.mark.parametrize("field", ["r1", "r2", "r3"])
    def test_certificate_nan_is_not_dropped(self, field):
        parts = dict(r1=np.zeros(2), r2=0.0, r3=0.0)
        parts[field] = np.full(2, np.nan) if field == "r1" else np.nan
        assert not np.isfinite(CertificateResiduals(**parts).max_violation())

    def test_nan_point_fails(self):
        p = worked_problem()
        nan = np.full(2, np.nan)
        r = qp_kkt_residuals(p, QpKktPoint(nan, np.full(1, np.nan), nan))
        assert not r.max_violation() <= 1.0


class TestCertificate:
    def test_single_row(self):
        p = QpProblem([[1.0]], [0.0], [[1.0]], [-1.0])
        r = check_certificate(p, InfeasCertificate(np.array([1.0]), np.array([1.0])))
        assert r.max_violation() == 0.0

    def test_two_variables(self):
        p = worked_problem()
        r = check_certificate(p, InfeasCertificate(np.array([1.0]), np.array([1.0, 1.0])))
        assert r.max_violation() == 0.0

    def test_zero_certificate_rejected(self):
        p = QpProblem([[1.0]], [0.0], [[1.0]], [-1.0])
        r = check_certificate(p, InfeasCertificate(np.zeros(1), np.zeros(1)))
        assert r.r2 == 1.0
        assert not r.accepted(1e-6)

    def test_r1_r3_scale_exactly_with_power_of_two(self):
        rng = np.random.default_rng(3)
        E = rng.standard_normal((2, 4))
        p = QpProblem(np.eye(4), np.zeros(4), E, rng.standard_normal(2))
        nu = rng.standard_normal(2)
        xi = rng.standard_normal(4)
        base = check_certificate(p, InfeasCertificate(nu, xi))
        for t in (0.5, 2.0, 4.0):
            scaled = check_certificate(p, InfeasCertificate(t * nu, t * xi))
            assert np.array_equal(scaled.r1, t * base.r1)
            assert scaled.r3 == t * base.r3


class TestStandardForm:
    def test_box_shift_with_slack_row(self):
        # min 0.5 y^2 on -1 <= y <= 1: shift z = y + 1 and add z + w = 2.
        g = GeneralQp(
            H=np.array([[1.0]]),
            g=np.array([0.0]),
            lower=np.array([-1.0]),
            upper=np.array([1.0]),
        )
        p, mapping = to_standard_form(g)
        assert p.n == 2 and p.m == 1
        assert np.array_equal(p.E, [[1.0, 1.0]])
        assert np.array_equal(p.f, [2.0])
        x = standard_variables(mapping, np.array([0.25]), g)
        assert np.array_equal(mapping.original_variables(x), [0.25])

    def test_already_standard_identity(self):
        g = GeneralQp(
            H=np.eye(2),
            g=np.array([1.0, 1.0]),
            lower=np.zeros(2),
            upper=np.full(2, np.inf),
            A_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([-1.0]),
        )
        p, mapping = to_standard_form(g)
        assert p.n == 2 and p.m == 1
        assert np.array_equal(p.C, np.eye(2))
        assert np.array_equal(p.c, [1.0, 1.0])
        assert np.array_equal(p.E, [[1.0, 1.0]])
        assert np.array_equal(mapping.scale, [1.0, 1.0])
        assert mapping.objective_offset == 0.0

    def test_upper_bounded_with_inequality(self):
        # min y s.t. y <= 3, y >= 0 turns the row into y + w = 3.
        g = GeneralQp(
            H=np.array([[0.0]]),
            g=np.array([1.0]),
            lower=np.array([0.0]),
            upper=np.array([np.inf]),
            G=np.array([[1.0]]),
            h=np.array([3.0]),
        )
        p, _ = to_standard_form(g)
        assert np.array_equal(p.E, [[1.0, 1.0]])
        assert np.array_equal(p.f, [3.0])

    def test_free_variable_rejected(self):
        g = GeneralQp(
            H=np.eye(1),
            g=np.zeros(1),
            lower=np.array([-np.inf]),
            upper=np.array([np.inf]),
        )
        with pytest.raises(FreeVariable):
            to_standard_form(g)

    def test_objective_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            H = rng.standard_normal((n, n))
            H = H + H.T
            lower = np.where(rng.random(n) < 0.7, rng.standard_normal(n), -np.inf)
            width = rng.random(n) * 3 + 0.5
            upper = np.where(
                np.isfinite(lower),
                np.where(rng.random(n) < 0.5, lower + width, np.inf),
                rng.standard_normal(n),
            )
            g = GeneralQp(H=H, g=rng.standard_normal(n), lower=lower, upper=upper)
            p, mapping = to_standard_form(g)
            y = np.clip(rng.standard_normal(n), np.where(np.isfinite(lower), lower, -10), np.where(np.isfinite(upper), upper, 10))
            x = standard_variables(mapping, y, g)
            assert np.all(x >= -1e-12)
            orig = 0.5 * y @ H @ y + g.g @ y
            via_std = mapping.original_objective(p.objective(x))
            assert via_std == pytest.approx(orig, rel=1e-12, abs=1e-12)
            back = mapping.original_variables(x)
            assert np.allclose(back, y, atol=1e-12)

    def test_reflected_upper_bound_only(self):
        g = GeneralQp(
            H=np.array([[2.0]]),
            g=np.array([1.0]),
            lower=np.array([-np.inf]),
            upper=np.array([4.0]),
        )
        p, mapping = to_standard_form(g)
        # z = 4 - y >= 0; objective matches at a sample point
        y = np.array([1.5])
        x = standard_variables(mapping, y, g)
        assert x[0] == pytest.approx(2.5)
        assert mapping.original_objective(p.objective(x)) == pytest.approx(
            0.5 * 2.0 * 1.5**2 + 1.5
        )
