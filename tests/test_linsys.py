"""Dense kernel: null-space bases, saddle-point and Newton solves."""

import numpy as np
import pytest

from hqp import (
    EmptyNullspace,
    InstanceKind,
    InstanceSpec,
    RankDeficient,
    SingularGram,
    SingularKkt,
    compute_theta,
    embed,
    generate,
    validate,
)
from hqp.linsys import (
    AugmentedFactorization,
    SOLVE_RTOL,
    min_norm_particular,
    newton_backward_error,
    nullspace_basis,
    reduced_min_eig,
    solve_equality_kkt,
    solve_newton_system,
)

from _support import random_full_rank, random_spd_matrix


class TestNullspaceBasis:
    def test_coordinate_row(self):
        b = nullspace_basis(np.array([[1.0, 0.0]]))
        assert b.Z.shape == (2, 1)
        assert abs(b.Z[1, 0]) == pytest.approx(1.0)
        assert abs(b.Z[0, 0]) < 1e-14

    def test_symmetric_row(self):
        b = nullspace_basis(np.array([[1.0, 1.0]]))
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert abs(b.Z[:, 0] @ expected) == pytest.approx(1.0, abs=1e-14)

    def test_square_full_rank_is_empty(self):
        b = nullspace_basis(np.eye(2))
        assert b.Z.shape == (2, 0)
        assert b.dim == 0

    def test_no_rows_gives_identity(self):
        b = nullspace_basis(np.zeros((0, 3)))
        assert np.array_equal(b.Z, np.eye(3))

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            nullspace_basis(np.array([[1.0, 1.0], [2.0, 2.0]]))

    def test_randomized_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(2, 51))
            m = int(rng.integers(1, n + 1))
            E = random_full_rank(rng, m, n)
            b = nullspace_basis(E)
            assert b.Z.shape == (n, n - m)
            if b.dim:
                assert np.linalg.norm(b.Z.T @ b.Z - np.eye(n - m), np.inf) <= 1e-12
                assert np.linalg.norm(E @ b.Z, np.inf) <= 1e-10 * (
                    1 + np.linalg.norm(E, np.inf)
                )

    def test_deterministic(self):
        E = np.random.default_rng(5).standard_normal((3, 7))
        one = nullspace_basis(E)
        two = nullspace_basis(E)
        assert np.array_equal(one.Z, two.Z)
        assert one.source_E == two.source_E


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


class TestMinNormParticular:
    def test_coordinate(self):
        d = min_norm_particular(np.array([[1.0, 0.0]]), [2.0])
        assert d == pytest.approx([2.0, 0.0])

    def test_symmetric_row(self):
        # Gram matrix is 2, so d = E' (1/2) (-1) = (-1/2, -1/2).
        d = min_norm_particular(np.array([[1.0, 1.0]]), [-1.0])
        assert d == pytest.approx([-0.5, -0.5])

    def test_zero_rhs(self):
        d = min_norm_particular(np.array([[1.0, 1.0]]), [0.0])
        assert np.array_equal(d, np.zeros(2))

    def test_no_rows(self):
        assert np.array_equal(min_norm_particular(np.zeros((0, 3)), np.zeros(0)), np.zeros(3))

    def test_minimum_norm_among_solutions(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            m = int(rng.integers(1, n))
            E = random_full_rank(rng, m, n)
            f = rng.standard_normal(m)
            d = min_norm_particular(E, f)
            assert np.linalg.norm(E @ d - f) <= 1e-10 * max(1, np.linalg.norm(f))
            Z = nullspace_basis(E).Z
            assert np.linalg.norm(Z.T @ d, np.inf) <= 1e-10 * max(1, np.linalg.norm(d))
            for _ in range(5):
                v = d + Z @ rng.standard_normal(n - m)
                assert np.linalg.norm(d) <= np.linalg.norm(v) + 1e-12

    def test_gram_failure(self):
        with pytest.raises((SingularGram, RankDeficient)):
            min_norm_particular(np.array([[0.0, 0.0]]), [1.0])


class TestReducedMinEig:
    def test_identity(self):
        Z = np.array([[1.0], [-1.0]]) / np.sqrt(2.0)
        assert reduced_min_eig(np.eye(2), Z) == pytest.approx(1.0)

    def test_coordinate_basis(self):
        assert reduced_min_eig(np.diag([1.0, 4.0]), np.array([[0.0], [1.0]])) == pytest.approx(4.0)

    def test_average(self):
        Z = np.array([[1.0], [-1.0]]) / np.sqrt(2.0)
        assert reduced_min_eig(np.diag([2.0, 3.0]), Z) == pytest.approx(2.5)

    def test_empty_basis(self):
        with pytest.raises(EmptyNullspace):
            reduced_min_eig(np.eye(2), np.zeros((2, 0)))


def full_newton_matrix(Q, A, x, s):
    N = Q.shape[0]
    m = A.shape[0]
    M = np.zeros((2 * N + m, 2 * N + m))
    M[:N, :N] = Q
    M[:N, N:N + m] = A.T
    M[:N, N + m:] = -np.eye(N)
    M[N:N + m, :N] = A
    M[N + m:, :N] = np.diag(s)
    M[N + m:, N + m:] = np.diag(x)
    return M


class TestNewtonSystem:
    def test_zero_rhs(self):
        Q = np.eye(2)
        A = np.array([[1.0, -1.0]])
        dx, dlam, ds, eta = solve_newton_system(Q, A, np.ones(2), np.ones(2), np.zeros(5))
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
        dx, dlam, ds, _ = solve_newton_system(Q, A, x, s, rhs)
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
            dx, dlam, ds, returned_eta = solve_newton_system(Q, A, x, s, rhs)
            oracle = np.linalg.solve(full_newton_matrix(Q, A, x, s), rhs)
            sol = np.concatenate([dx, dlam, ds])
            assert np.allclose(sol, oracle, rtol=1e-9, atol=1e-11)
            eta = newton_backward_error(Q, A, x, s, rhs, dx, dlam, ds)
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
            dx, dlam, ds, eta = solve_newton_system(
                hqp.Q, hqp.A, x, s, rhs, hqp.newton_data_norm
            )
            assert eta <= SOLVE_RTOL
            assert eta == pytest.approx(
                newton_backward_error(hqp.Q, hqp.A, x, s, rhs, dx, dlam, ds), rel=1e-12
            )

    def test_positivity_required(self):
        from hqp import SingularNewton

        with pytest.raises(SingularNewton):
            solve_newton_system(
                np.eye(1), np.zeros((0, 1)), np.array([0.0]), np.array([1.0]), np.zeros(2)
            )


def kkt_matrix(C, E):
    m = E.shape[0]
    return np.block([[C, E.T], [E, np.zeros((m, m))]])


class TestAugmentedFactorization:
    def test_singular_matrix_raises(self):
        for M in (
            np.array([[1.0, 1.0], [1.0, 1.0]]),
            np.zeros((2, 2)),
            # Dependent constraint rows leave the zero block singular.
            kkt_matrix(np.eye(2), np.array([[1.0, 0.0], [1.0, 0.0]])),
        ):
            with pytest.raises(SingularKkt):
                AugmentedFactorization(M).solve(np.eye(M.shape[0])[-1])

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
        x = AugmentedFactorization(M).solve(rhs)
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
                x = AugmentedFactorization(M).solve(rhs)
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
        a = AugmentedFactorization(M.copy()).solve(rhs)
        b = AugmentedFactorization(M.copy()).solve(rhs)
        assert np.array_equal(a, b)
