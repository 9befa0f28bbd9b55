"""Dense kernel: saddle-point solves and their inertia, and Newton solves.
The test-side null space and minimum-norm solution of E are checked too."""

import numpy as np
import pytest

from hqp import (
    InstanceKind,
    InstanceSpec,
    QpProblem,
    RankDeficient,
    SingularKkt,
    compute_theta,
    embed,
    generate,
    validate,
)
from hqp import linsys
from hqp.errors import SingularNewton
from hqp.linsys import (
    AugmentedFactorization,
    MAX_REFINE_STEPS,
    SOLVE_RTOL,
    _refined_solve,
    newton_backward_error,
    solve_newton_system,
)

from _support import (
    STRUCTURED_KINDS,
    dense_backward_error,
    dense_newton,
    full_newton_matrix,
    lifted_hessian,
    null_space_and_min_norm,
    random_full_rank,
    random_spd_matrix,
    reduced_min_eig,
    separable_reference,
    structured_problem,
)


def equality_kkt(C, E):
    """linsys.EqualityKkt as validate builds it: every diagonal row with
    C_ii > 0 divided out, and the dense product with C."""
    C = np.asarray(C, dtype=float)
    divide = linsys.diagonal_rows(C) & (np.diagonal(C) > 0.0)
    return linsys.EqualityKkt(C, E, divide, C.__matmul__)


def solve_equality_kkt(C, E, rhs_top, rhs_bot):
    return equality_kkt(C, E).solve(rhs_top, rhs_bot)


def null_basis(E):
    E = np.atleast_2d(np.asarray(E, dtype=float))
    return null_space_and_min_norm(E, np.zeros(E.shape[0]))[0]


def min_norm(E, f):
    return null_space_and_min_norm(np.atleast_2d(np.asarray(E, dtype=float)), f)[1]


class TestNullspaceBasis:
    def test_coordinate_row(self):
        Z = null_basis([[1.0, 0.0]])
        assert Z.shape == (2, 1)
        assert abs(Z[1, 0]) == pytest.approx(1.0)
        assert abs(Z[0, 0]) < 1e-14

    def test_symmetric_row(self):
        Z = null_basis([[1.0, 1.0]])
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert abs(Z[:, 0] @ expected) == pytest.approx(1.0, abs=1e-14)

    def test_square_full_rank_is_empty(self):
        Z = null_basis(np.eye(2))
        assert Z.shape == (2, 0)

    def test_no_rows_gives_identity(self):
        assert np.array_equal(null_basis(np.zeros((0, 3))), np.eye(3))

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            null_basis([[1.0, 1.0], [2.0, 2.0]])

    def test_randomized_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(2, 51))
            m = int(rng.integers(1, n + 1))
            E = random_full_rank(rng, m, n)
            Z = null_basis(E)
            assert Z.shape == (n, n - m)
            if n > m:
                assert np.linalg.norm(Z.T @ Z - np.eye(n - m), np.inf) <= 1e-12
                assert np.linalg.norm(E @ Z, np.inf) <= 1e-10 * (
                    1 + np.linalg.norm(E, np.inf)
                )

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        E = rng.standard_normal((3, 7))
        f = rng.standard_normal(3)
        Z1, d1 = null_space_and_min_norm(E, f)
        Z2, d2 = null_space_and_min_norm(E, f)
        assert np.array_equal(Z1, Z2)
        assert np.array_equal(d1, d2)


class TestEqualityKkt:
    def test_scalar_system(self):
        y, nu = solve_equality_kkt(np.array([[1.0]]), np.array([[1.0]]), [0.0], [1.0])
        assert y == pytest.approx([1.0])
        assert nu == pytest.approx([-1.0])

    def test_worked_instance_system(self):
        # Saddle-point system of the two-variable instance with unit
        # Hessian, one symmetric row, and right-hand side (-1,-1;-1):
        # direct 3x3 solve gives ((-1/2, -1/2), -1/2).
        y, nu = solve_equality_kkt(
            np.eye(2), np.array([[1.0, 1.0]]), [-1.0, -1.0], [-1.0]
        )
        assert y == pytest.approx([-0.5, -0.5])
        assert nu == pytest.approx([-0.5])

    def test_zero_rhs(self):
        y, nu = solve_equality_kkt(np.eye(2), np.array([[1.0, 1.0]]), np.zeros(2), np.zeros(1))
        assert np.array_equal(y, np.zeros(2))
        assert np.array_equal(nu, np.zeros(1))

    def test_residual_property_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            m = int(rng.integers(0, n + 1))
            C = random_spd_matrix(rng, n)
            E = random_full_rank(rng, m, n)
            top = rng.standard_normal(n)
            bot = rng.standard_normal(m)
            y, nu = solve_equality_kkt(C, E, top, bot)
            r_top = C @ y + E.T @ nu - top
            r_bot = E @ y - bot
            rhs_norm = np.linalg.norm(np.concatenate([top, bot]))
            assert np.linalg.norm(np.concatenate([r_top, r_bot])) <= SOLVE_RTOL * rhs_norm


    @pytest.mark.parametrize("kind", STRUCTURED_KINDS)
    def test_structured_hessians(self, kind):
        # Positive diagonal-only rows are divided out; negative and zero
        # ones stay in the factored block.  Checked against a dense solve.
        rng = np.random.default_rng(8)
        problem = structured_problem(rng, kind)
        for _ in range(5):
            top = rng.standard_normal(problem.n)
            bot = rng.standard_normal(problem.m)
            y, nu = solve_equality_kkt(problem.C, problem.E, top, bot)
            r_top = problem.C @ y + problem.E.T @ nu - top
            r_bot = problem.E @ y - bot
            rhs = np.concatenate([top, bot])
            assert np.linalg.norm(np.concatenate([r_top, r_bot])) <= SOLVE_RTOL * np.linalg.norm(rhs)
            K = kkt_matrix(problem.C, problem.E)
            assert np.allclose(np.concatenate([y, nu]), np.linalg.solve(K, rhs), rtol=1e-8, atol=1e-10)

    def test_all_divided_without_rows(self):
        # A positive diagonal C and no equality rows leave nothing to factor.
        y, nu = solve_equality_kkt(np.diag([2.0, 4.0]), np.zeros((0, 2)), [2.0, -2.0], [])
        assert y == pytest.approx([1.0, -0.5])
        assert nu.shape == (0,)


class TestMinNormParticular:
    def test_coordinate(self):
        assert min_norm([[1.0, 0.0]], [2.0]) == pytest.approx([2.0, 0.0])

    def test_symmetric_row(self):
        # d = E'(EE')^{-1} f = E' (1/2) (-1) = (-1/2, -1/2).
        assert min_norm([[1.0, 1.0]], [-1.0]) == pytest.approx([-0.5, -0.5])

    def test_zero_rhs(self):
        assert np.array_equal(min_norm([[1.0, 1.0]], [0.0]), np.zeros(2))

    def test_no_rows(self):
        assert np.array_equal(min_norm(np.zeros((0, 3)), np.zeros(0)), np.zeros(3))

    def test_minimum_norm_among_solutions(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            m = int(rng.integers(1, n))
            E = random_full_rank(rng, m, n)
            f = rng.standard_normal(m)
            Z, d = null_space_and_min_norm(E, f)
            assert np.linalg.norm(E @ d - f) <= 1e-10 * max(1, np.linalg.norm(f))
            assert np.linalg.norm(Z.T @ d, np.inf) <= 1e-10 * max(1, np.linalg.norm(d))
            for _ in range(5):
                v = d + Z @ rng.standard_normal(n - m)
                assert np.linalg.norm(d) <= np.linalg.norm(v) + 1e-12

    def test_gram_failure(self):
        # A zero row has no minimum-norm solution for f != 0.
        with pytest.raises(RankDeficient):
            min_norm([[0.0, 0.0]], [1.0])


class TestReducedMinEig:
    """The smallest eigenvalue of Z'CZ (test side) on problems that
    validation accepts."""

    def test_identity(self):
        p = QpProblem(np.eye(2), np.zeros(2), [[1.0, -1.0]], [0.0])
        validate(p)
        assert reduced_min_eig(p) == pytest.approx(1.0)

    def test_coordinate_basis(self):
        p = QpProblem(np.diag([1.0, 4.0]), np.zeros(2), [[1.0, 0.0]], [0.0])
        validate(p)
        assert reduced_min_eig(p) == pytest.approx(4.0)

    def test_average(self):
        # null([1 1]) is spanned by (1, -1)/sqrt(2): (2 + 3)/2.
        p = QpProblem(np.diag([2.0, 3.0]), np.zeros(2), [[1.0, 1.0]], [0.0])
        validate(p)
        assert reduced_min_eig(p) == pytest.approx(2.5)

    def test_empty_basis(self):
        p = QpProblem(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2))
        validate(p)
        assert null_space_and_min_norm(p.E, p.f)[0].shape == (2, 0)
        assert reduced_min_eig(p) is None


class TestNewtonSystem:
    def test_zero_rhs(self):
        Q = np.eye(2)
        A = np.array([[1.0, -1.0]])
        apply_q, data_norm, split = dense_newton(Q, A)
        dx, dlam, ds, eta, _ = solve_newton_system(
            apply_q, A, np.ones(2), np.ones(2), np.zeros(5), data_norm, split
        )
        assert not dx.any() and not dlam.any() and not ds.any()
        assert eta == 0.0

    def test_central_point_with_full_centering(self):
        # On the lifted one-variable instance, x = (2,2), lam = 0,
        # s = (2,2) is exactly feasible and exactly centered; full
        # centering leaves nothing to correct.
        Q = np.array([[1.0, 0.0], [0.0, 2.0]])
        q = np.array([0.0, -2.0])
        A = np.array([[1.0, -1.0]])
        x = np.array([2.0, 2.0])
        lam = np.zeros(1)
        s = Q @ x + q + A.T @ lam
        assert s == pytest.approx([2.0, 2.0])
        mu = x @ s / 2.0
        rhs = np.concatenate([np.zeros(2), np.zeros(1), -x * s + 1.0 * mu * np.ones(2)])
        apply_q, data_norm, split = dense_newton(Q, A)
        dx, dlam, ds, _, _ = solve_newton_system(apply_q, A, x, s, rhs, data_norm, split)
        assert np.linalg.norm(np.concatenate([dx, dlam, ds]), np.inf) <= 1e-12

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = 3
            m = int(rng.integers(0, 3))
            Q = random_spd_matrix(rng, n)
            A = random_full_rank(rng, m, n)
            x = rng.random(n) + 0.1
            s = rng.random(n) + 0.1
            rhs = rng.standard_normal(2 * n + m)
            apply_q, data_norm, split = dense_newton(Q, A)
            dx, dlam, ds, returned_eta, solve_same = solve_newton_system(
                apply_q, A, x, s, rhs, data_norm, split
            )
            # The returned solve answers a second right-hand side on the
            # same factors with the same guarantee.
            rhs2 = rng.standard_normal(2 * n + m)
            for b, (dx, dlam, ds, returned_eta) in (
                (rhs, (dx, dlam, ds, returned_eta)),
                (rhs2, solve_same(rhs2)),
            ):
                oracle = np.linalg.solve(full_newton_matrix(Q, A, x, s), b)
                sol = np.concatenate([dx, dlam, ds])
                assert np.allclose(sol, oracle, rtol=1e-9, atol=1e-11)
                eta = dense_backward_error(Q, A, x, s, b, dx, dlam, ds, data_norm)
                assert eta <= SOLVE_RTOL
                assert returned_eta == eta

    @pytest.mark.parametrize(
        "spec",
        [
            InstanceSpec(InstanceKind.FEASIBLE_SV, 30, seed=1),
            InstanceSpec(InstanceKind.INFEASIBLE_SV, 30, seed=2),
            InstanceSpec(InstanceKind.RANDOM_SPD, 30, m=5, seed=3),
        ],
        ids=lambda spec: spec.kind.value,
    )
    def test_late_iterate_sweep(self, spec):
        # Late interior-point iterates: complementarity products x_i s_i and
        # ratios x_i / s_i spread over 1e-10 .. 1e6 on the lifted problem.
        validated = validate(generate(spec))
        hqp = embed(validated, compute_theta(validated))
        rng = np.random.default_rng(spec.seed)
        N = hqp.dim
        for _ in range(10):
            prod = 10.0 ** rng.uniform(-10, 6, N)
            ratio = 10.0 ** rng.uniform(-10, 6, N)
            x, s = np.sqrt(prod * ratio), np.sqrt(prod / ratio)
            rhs = rng.standard_normal(2 * N + hqp.m)
            # The dense split divides out only diagonal rows of Q (none
            # here, since c couples each y_i to tau); the problem's own
            # split divides out every y_i whose row of C is diagonal.  The
            # backward error is recomputed from the dense Q.
            Q = lifted_hessian(hqp)
            _, data_norm, dense_split = dense_newton(Q, hqp.A)
            assert data_norm == pytest.approx(hqp.newton_data_norm, rel=1e-14)
            for split in (dense_split, hqp.newton_split):
                dx, dlam, ds, eta, _ = solve_newton_system(
                    hqp.apply_hessian, hqp.A, x, s, rhs, hqp.newton_data_norm, split
                )
                assert eta <= SOLVE_RTOL
                assert eta == pytest.approx(
                    dense_backward_error(Q, hqp.A, x, s, rhs, dx, dlam, ds, data_norm),
                    rel=1e-12,
                )

    @pytest.mark.parametrize("kind", STRUCTURED_KINDS)
    def test_divided_variables(self, kind, monkeypatch):
        # y_i is divided out exactly when row i of C is diagonal with
        # C_ii >= 0; tau and the equality rows always stay, and the one
        # factorization is of the kept block alone.
        import hqp.linsys as linsys

        problem = structured_problem(np.random.default_rng(0), kind)
        validated = validate(problem)
        lifted = embed(validated, compute_theta(validated))
        split = lifted.newton_split
        expected = separable_reference(problem.C)
        assert split.sep.tolist() == expected
        kept = [i for i in range(lifted.dim + lifted.m) if i not in expected]
        assert sorted(split.keep.tolist()) == kept
        assert problem.n in split.keep.tolist()
        orders = []

        class Recording(linsys.AugmentedFactorization):
            def __init__(self, matrix, *args, **kwargs):
                orders.append(matrix.shape[0])
                super().__init__(matrix, *args, **kwargs)

        monkeypatch.setattr(linsys, "AugmentedFactorization", Recording)
        N = lifted.dim
        solve_newton_system(
            lifted.apply_hessian, lifted.A, np.ones(N), np.ones(N), np.ones(2 * N + lifted.m),
            lifted.newton_data_norm, split,
        )
        assert orders == [len(kept)]
        # The raw solve, before any refinement, is the augmented solve.
        shift = np.random.default_rng(1).random(N) + 0.5
        K = kkt_matrix(lifted_hessian(lifted) + np.diag(shift), lifted.A)
        r = np.random.default_rng(2).standard_normal(N + lifted.m)
        raw = linsys.factor_split(split, shift, SingularKkt)[0](r)
        assert np.allclose(raw, np.linalg.solve(K, r), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("kind", STRUCTURED_KINDS)
    def test_late_iterates_match_dense_oracle(self, kind):
        # Complementarity products x_i s_i and ratios x_i / s_i over
        # 1e-10 .. 1e6 on the lifted problem, solved through its split.  The
        # dense three-block matrix gives an independent backward error and
        # a forward reference whose accuracy is limited by its condition.
        rng = np.random.default_rng(7)
        validated = validate(structured_problem(rng, kind))
        hqp = embed(validated, compute_theta(validated))
        N = hqp.dim
        for _ in range(10):
            prod = 10.0 ** rng.uniform(-10, 6, N)
            ratio = 10.0 ** rng.uniform(-10, 6, N)
            x, s = np.sqrt(prod * ratio), np.sqrt(prod / ratio)
            rhs = rng.standard_normal(2 * N + hqp.m)
            dx, dlam, ds, eta, _ = solve_newton_system(
                hqp.apply_hessian, hqp.A, x, s, rhs, hqp.newton_data_norm, hqp.newton_split
            )
            assert eta <= SOLVE_RTOL
            M = full_newton_matrix(lifted_hessian(hqp), hqp.A, x, s)
            sol = np.concatenate([dx, dlam, ds])
            dense_eta = np.linalg.norm(M @ sol - rhs) / (
                np.linalg.norm(M, np.inf) * np.linalg.norm(sol) + np.linalg.norm(rhs)
            )
            assert dense_eta <= SOLVE_RTOL
            oracle = np.linalg.solve(M, rhs)
            bound = 100.0 * SOLVE_RTOL * np.linalg.cond(M) * np.linalg.norm(oracle)
            assert np.linalg.norm(sol - oracle) <= bound

    def test_positivity_required(self):
        from hqp import SingularNewton

        A = np.zeros((0, 1))
        apply_q, data_norm, split = dense_newton(np.eye(1), A)
        with pytest.raises(SingularNewton):
            solve_newton_system(
                apply_q, A, np.array([0.0]), np.array([1.0]), np.zeros(2), data_norm, split
            )


def kkt_matrix(C, E):
    m = E.shape[0]
    return np.block([[C, E.T], [E, np.zeros((m, m))]])


def refined(M, rhs):
    """Factor a copy of M in place and solve M x = rhs through
    _refined_solve, refining against M itself."""
    fact = AugmentedFactorization(np.array(M, dtype=float, order="F"))
    return _refined_solve(
        rhs,
        fact.backsolve,
        lambda v: rhs - M @ v,
        lambda r, _: np.linalg.norm(r) / np.linalg.norm(rhs),
        SingularKkt,
    )[0]


# The two accuracy measures of the solver's solves of M x = rhs: the
# residual relative to the right-hand side (KKT), and the normwise backward
# error (Newton).
MEASURES = {
    "relative_residual": (
        lambda M, rhs: lambda r, _: np.linalg.norm(r) / np.linalg.norm(rhs),
        SingularKkt,
    ),
    "backward_error": (
        lambda M, rhs: lambda r, v: newton_backward_error(r, v, rhs, np.linalg.norm(M, np.inf)),
        SingularNewton,
    ),
}


@pytest.mark.parametrize("measure", MEASURES)
class TestRefinedSolve:
    """The one refinement loop, with a raw backsolve that is made
    inaccurate on purpose: no solve of the family sweep takes a
    refinement step."""

    def case(self, measure):
        rng = np.random.default_rng(13)
        M = random_spd_matrix(rng, 8) + 0.1 * rng.standard_normal((8, 8))
        rhs = rng.standard_normal(8)
        make_measure, error_cls = MEASURES[measure]
        return M, rhs, make_measure(M, rhs), error_cls, rng

    def test_inaccurate_backsolve_is_refined(self, measure):
        M, rhs, measure_fn, error_cls, rng = self.case(measure)
        # Each raw solve is off by a relative 1e-3, entry by entry.
        skew = 1.0 + 1e-3 * rng.uniform(-1.0, 1.0, rhs.size)
        calls = []

        def backsolve(r):
            calls.append(r)
            return np.linalg.solve(M, r) * skew

        x, err = _refined_solve(rhs, backsolve, lambda v: rhs - M @ v, measure_fn, error_cls)
        assert err <= SOLVE_RTOL
        assert err == measure_fn(rhs - M @ x, x)
        assert 2 <= len(calls) <= 5
        assert np.allclose(x, np.linalg.solve(M, rhs), rtol=1e-8, atol=1e-10)

    def test_diverging_backsolve_raises(self, measure):
        M, rhs, measure_fn, error_cls, _ = self.case(measure)
        calls = []

        def backsolve(r):
            calls.append(r)
            return 3.0 * np.linalg.solve(M, r)

        with pytest.raises(error_cls, match="refinement steps") as info:
            _refined_solve(rhs, backsolve, lambda v: rhs - M @ v, measure_fn, error_cls)
        assert len(calls) > MAX_REFINE_STEPS
        # The error doubles with each step, so the first solve is the best
        # seen, and the message reports its measure.
        first = 3.0 * np.linalg.solve(M, rhs)
        assert f"stalled at {measure_fn(rhs - M @ first, first):.3e}" in str(info.value)

    def test_nonfinite_backsolve_raises(self, measure):
        M, rhs, measure_fn, error_cls, _ = self.case(measure)
        with pytest.raises(error_cls):
            _refined_solve(
                rhs, lambda r: np.full(r.size, np.nan), lambda v: rhs - M @ v, measure_fn, error_cls
            )

    def test_zero_rhs_skips_the_backsolve(self, measure):
        M, _, _, error_cls, _ = self.case(measure)
        rhs = np.zeros(M.shape[0])

        def backsolve(r):
            raise AssertionError("no backsolve for a zero right-hand side")

        x, err = _refined_solve(
            rhs, backsolve, lambda v: rhs - M @ v, MEASURES[measure][0](M, rhs), error_cls
        )
        assert not x.any() and err == 0.0


class TestAugmentedFactorization:
    def test_singular_matrix_raises(self):
        for M in (
            np.array([[1.0, 1.0], [1.0, 1.0]]),
            np.zeros((2, 2)),
            # Dependent constraint rows leave the zero block singular.
            kkt_matrix(np.eye(2), np.array([[1.0, 0.0], [1.0, 0.0]])),
        ):
            with pytest.raises(SingularKkt):
                refined(M, np.eye(M.shape[0])[-1])

    @pytest.mark.parametrize(
        "M",
        [
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            # Zero Hessian block: every diagonal entry is zero.
            kkt_matrix(
                np.zeros((3, 3)),
                np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0], [4.0, 0.0, 1.0]]),
            ),
            kkt_matrix(
                random_spd_matrix(np.random.default_rng(3), 6),
                random_full_rank(np.random.default_rng(4), 4, 6),
            ),
        ],
        ids=["swap", "zero_hessian_kkt", "spd_kkt"],
    )
    def test_indefinite_needs_two_by_two_pivots(self, M):
        rhs = np.random.default_rng(5).standard_normal(M.shape[0])
        x = refined(M, rhs)
        assert np.linalg.norm(M @ x - rhs) <= SOLVE_RTOL * np.linalg.norm(rhs)

    def test_nonsymmetric_never_wrong(self):
        # Only one triangle is factored; refinement against the full matrix
        # either repairs the answer or the solve refuses it.
        rng = np.random.default_rng(6)
        solved = 0
        for k in range(20):
            n = int(rng.integers(2, 12))
            M = random_spd_matrix(rng, n) + 10.0 ** (k % 4 - 2) * rng.standard_normal((n, n))
            rhs = rng.standard_normal(n)
            try:
                x = refined(M, rhs)
            except SingularKkt:
                continue
            solved += 1
            assert np.linalg.norm(M @ x - rhs) <= SOLVE_RTOL * np.linalg.norm(rhs)
        assert solved > 0

    def test_nonfinite_rejected(self):
        with pytest.raises(SingularKkt):
            AugmentedFactorization(np.array([[np.nan]]))

    def test_bit_identical_solves(self):
        rng = np.random.default_rng(9)
        M = random_spd_matrix(rng, 6)
        rhs = rng.standard_normal(6)
        a = refined(M, rhs)
        b = refined(M, rhs)
        assert np.array_equal(a, b)

    def test_factors_in_place(self):
        # A Fortran-ordered matrix is overwritten by its factors.
        M = np.asfortranarray(random_spd_matrix(np.random.default_rng(10), 5))
        before = M.copy()
        AugmentedFactorization(M)
        assert not np.array_equal(M, before)


def eig_inertia(M):
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix,
    with zero judged relative to its largest eigenvalue."""
    w = np.linalg.eigvalsh(M)
    tol = 1e-10 * max(1.0, np.abs(w).max(initial=0.0))
    return int((w > tol).sum()), int((w < -tol).sum()), int((np.abs(w) <= tol).sum())


class TestInertia:
    def test_factorization_matches_eigvalsh(self):
        # Indefinite symmetric matrices need 2x2 pivots.
        rng = np.random.default_rng(11)
        two_by_two = 0
        for _ in range(40):
            n = int(rng.integers(1, 9))
            G = rng.standard_normal((n, n))
            M = G + G.T
            fact = AugmentedFactorization(np.asfortranarray(M))
            two_by_two += int((fact._piv < 0).sum())
            assert fact.inertia() == eig_inertia(M)
        assert two_by_two > 0

    def test_two_by_two_pivots_have_one_eigenvalue_of_each_sign(self):
        # Small diagonals force 2x2 pivots; spectra bounded away from 0 make
        # the sign of every eigenvalue unambiguous.  Each 2x2 block
        # [[a, b], [b, c]] of D meets the Bunch-Kaufman bound
        # |a c| <= alpha^2 b^2, so inertia() counts it as one of each sign.
        alpha = (1.0 + np.sqrt(17.0)) / 8.0
        rng = np.random.default_rng(13)
        matrices = blocks = 0
        for _ in range(300):
            n = int(rng.integers(2, 13))
            G = rng.standard_normal((n, n))
            M = G + G.T
            M[np.diag_indices(n)] *= 10.0 ** rng.uniform(-8.0, -1.0)
            w = np.linalg.eigvalsh(M)
            if np.abs(w).min() < 1e-3 * np.abs(w).max():
                continue
            fact = AugmentedFactorization(np.asfortranarray(M))
            assert fact.inertia() == (int((w > 0.0).sum()), int((w < 0.0).sum()), 0)
            ldu = fact._ldu
            for i in np.flatnonzero(fact._piv < 0)[::2]:
                a, b, c = ldu[i, i], ldu[i, i + 1], ldu[i + 1, i + 1]
                assert abs(a * c) <= alpha**2 * b * b and a * c - b * b < 0.0
                blocks += 1
            matrices += 1
        assert matrices >= 150 and blocks >= matrices

    def test_kkt_matches_eigvalsh(self):
        # Random KKT matrices whose C mixes diagonal-only rows (divided out
        # when C_ii > 0) with a dense block that is often indefinite.
        rng = np.random.default_rng(12)
        seen = set()
        for _ in range(60):
            n = int(rng.integers(2, 10))
            m = int(rng.integers(0, n + 1))
            C = np.diag(rng.standard_normal(n))
            block = rng.permutation(n)[: int(rng.integers(0, n + 1))]
            G = rng.standard_normal((block.size, block.size))
            C[np.ix_(block, block)] = G + G.T
            E = random_full_rank(rng, m, n)
            kkt = equality_kkt(C, E)
            expected = eig_inertia(kkt_matrix(C, E))
            assert kkt.inertia() == expected
            seen.add(expected == (n, m, 0))
            assert kkt.n_divided == len(
                [i for i in separable_reference(C) if C[i, i] > 0.0]
            )
        assert seen == {True, False}

    def test_failure_modes(self):
        # Dependent rows leave a zero eigenvalue; a C that is indefinite on
        # null(E) moves one to the negative side.
        E = np.array([[1.0, 0.0, 1.0], [2.0, 0.0, 2.0]])
        assert equality_kkt(np.eye(3), E).inertia() == (3, 1, 1)
        C = np.diag([1.0, -1.0, 1.0])
        assert equality_kkt(C, np.array([[1.0, 0.0, 0.0]])).inertia() == (2, 2, 0)
