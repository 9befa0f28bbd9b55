"""Instance families and the brute-force oracle."""

import numpy as np
import pytest

from hqp import (
    InfeasCertificate,
    InstanceKind,
    InstanceSpec,
    QpProblem,
    SolveStatus,
    check_certificate,
    generate,
    qp_kkt_residuals,
    solve_qp,
    validate,
)
from hqp.qp import QpKktPoint
from _support import TooLarge, active_set_oracle


class TestGenerate:
    def test_infeasible_single_row_structure(self):
        p = generate(InstanceSpec(InstanceKind.INFEASIBLE_SV, n=10, seed=42))
        assert np.array_equal(p.C, np.eye(10))
        assert np.array_equal(p.c, np.ones(10))
        assert p.m == 1
        assert np.all(p.E > 0) and np.all(p.E <= 1)
        assert np.array_equal(p.f, [-1.0])

    def test_feasible_variant_flips_rhs(self):
        p = generate(InstanceSpec(InstanceKind.FEASIBLE_SV, n=10, seed=42))
        assert np.array_equal(p.f, [1.0])
        infeas = generate(InstanceSpec(InstanceKind.INFEASIBLE_SV, n=10, seed=42))
        assert np.array_equal(p.E, infeas.E)

    def test_deterministic(self):
        a = generate(InstanceSpec(InstanceKind.RANDOM_SPD, n=6, m=2, seed=9))
        b = generate(InstanceSpec(InstanceKind.RANDOM_SPD, n=6, m=2, seed=9))
        assert np.array_equal(a.C, b.C)
        assert np.array_equal(a.E, b.E)
        assert np.array_equal(a.c, b.c)

    def test_random_spd_is_positive_definite(self):
        p = generate(InstanceSpec(InstanceKind.RANDOM_SPD, n=8, m=3, seed=1))
        assert np.linalg.eigvalsh(p.C)[0] >= 0.1 - 1e-12
        validate(p)

    def test_one_variable_certificate_exists(self):
        p = generate(InstanceSpec(InstanceKind.INFEASIBLE_SV, n=1, seed=0))
        assert p.E[0, 0] > 0
        cert = InfeasCertificate(nu=np.array([1.0]), xi=p.E[0].copy())
        assert check_certificate(p, cert).max_violation() <= 1e-15

    def test_sv_kinds_force_single_row(self):
        with pytest.raises(ValueError):
            InstanceSpec(InstanceKind.FEASIBLE_SV, n=4, m=2)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            InstanceSpec(InstanceKind.RANDOM_SPD, n=0)
        with pytest.raises(ValueError):
            InstanceSpec(InstanceKind.RANDOM_SPD, n=3, m=4)


class TestOracle:
    def test_one_variable_optimal(self):
        p = QpProblem([[1.0]], [0.0], [[1.0]], [1.0])
        res = active_set_oracle(p)
        assert res.status is SolveStatus.OPTIMAL
        assert res.y_opt == pytest.approx([1.0], abs=1e-10)
        assert res.active_set == ()

    def test_infeasible_two_variables(self):
        p = generate(InstanceSpec(InstanceKind.INFEASIBLE_SV, n=2, seed=5))
        assert active_set_oracle(p).status is SolveStatus.INFEASIBLE

    def test_symmetric_optimum(self):
        p = QpProblem(np.eye(2), [-1.0, -1.0], [[1.0, 1.0]], [1.0])
        res = active_set_oracle(p)
        assert res.status is SolveStatus.OPTIMAL
        assert res.y_opt == pytest.approx([0.5, 0.5], abs=1e-10)

    def test_result_satisfies_kkt(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            p = generate(InstanceSpec(InstanceKind.RANDOM_SPD, n=5, m=2, seed=seed))
            res = active_set_oracle(p)
            if res.status is SolveStatus.OPTIMAL:
                kkt = qp_kkt_residuals(p, QpKktPoint(res.y_opt, res.nu_opt, res.xi_opt))
                assert kkt.max_violation() <= 1e-10 * (1 + p.data_scale())

    def test_too_large(self):
        p = QpProblem(np.eye(21), np.zeros(21))
        with pytest.raises(TooLarge):
            active_set_oracle(p)

    def test_bound_corner_optimum(self):
        # All bounds active: y = 0 with f = 0 and a nonnegative cost.
        p = QpProblem(np.eye(2), [1.0, 2.0], [[1.0, -1.0]], [0.0])
        res = active_set_oracle(p)
        assert res.status is SolveStatus.OPTIMAL
        assert res.y_opt == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_agreement_with_solver_small(self):
        from hqp import IipmConfig

        cfg = IipmConfig(tol_mu=1e-10)
        rng = np.random.default_rng(77)
        for seed in range(20):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, min(n, 4)))
            p = generate(InstanceSpec(InstanceKind.RANDOM_SPD, n=n, m=m, seed=seed))
            oracle = active_set_oracle(p)
            result = solve_qp(p, cfg)
            assert result.outcome.status is oracle.status
            if oracle.status is SolveStatus.OPTIMAL:
                assert np.linalg.norm(result.outcome.y - oracle.y_opt, np.inf) <= 1e-6
