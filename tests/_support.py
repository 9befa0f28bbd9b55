"""Shared constructions for the test suite.

Planted instances are built backwards from a known exact solution or
certificate, and ``active_set_oracle`` decides small problems by brute
force, so tests can assert against ground truth that never touched the
solver.
"""

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.optimize

from hqp import (
    GeneralQp,
    HqpError,
    QpKktPoint,
    QpProblem,
    RankDeficient,
    SolveStatus,
    qp_kkt_residuals,
    to_standard_form,
)
from hqp import iipm, linsys


def full_newton_matrix(Q, A, x, s):
    """The unreduced three-block interior-point matrix, as a dense oracle."""
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


def dense_backward_error(Q, A, x, s, rhs, dx, dlam, ds, data_norm):
    """Normwise backward error of (dx, dlam, ds) as a solve of the
    three-block system with the dense Q: the residual of each block row
    over ||M|| ||solution|| + ||rhs||, with ||M|| = max(data_norm,
    max(s + x)) and data_norm from linsys.newton_data_norm."""
    N, m = x.size, A.shape[0]
    residual = np.concatenate(
        [
            rhs[:N] - (Q @ dx + A.T @ dlam - ds),
            rhs[N:N + m] - A @ dx,
            rhs[N + m:] - (s * dx + x * ds),
        ]
    )
    mat_norm = max(data_norm, float(np.max(s + x)))
    sol_norm = np.linalg.norm(np.concatenate([dx, dlam, ds]))
    return float(np.linalg.norm(residual) / (mat_norm * sol_norm + np.linalg.norm(rhs)))


def dense_newton(Q, A):
    """(apply, data_norm, split) of a dense Hessian Q for
    linsys.solve_newton_system; the split divides out the rows of Q that
    are diagonal with Q_ii >= 0."""
    Q = np.asarray(Q, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    divide = linsys.diagonal_rows(Q) & (np.diagonal(Q) >= 0.0)
    return (
        lambda v: Q @ v,
        linsys.newton_data_norm(np.linalg.norm(Q, np.inf), A),
        linsys.split_diagonal(Q, A, divide),
    )


def null_space_and_min_norm(E, f):
    """Orthonormal null-space basis Z of E and the minimum-norm solution d
    of E d = f, both from one full SVD E = U Sigma V'.

    Z is the trailing n - m columns of V (Z'Z = I, E Z = 0; empty when E
    is square) and d = V_1 Sigma^{-1} U'f, which lies in range(E') and is
    therefore orthogonal to range(Z).  With zero rows Z is the identity
    and d is zero.  Raises RankDeficient when fewer than m singular values
    exceed the threshold max(m, n) * sigma_1 * 1e-12 that validation uses.
    """
    E = np.atleast_2d(np.asarray(E, dtype=float))
    f = np.asarray(f, dtype=float)
    m, n = E.shape
    if m == 0:
        return np.eye(n), np.zeros(n)
    U, svals, Vt = scipy.linalg.svd(E)
    rank_tol = max(m, n) * svals[0] * 1e-12
    rank = int(np.count_nonzero(svals > rank_tol))
    if rank < m:
        raise RankDeficient(f"E has numerical rank {rank} < {m} (tolerance {rank_tol:.3e})")
    d = Vt[:m].T @ ((U.T @ f) / svals)
    return Vt[m:].T, d


def reduced_min_eig(problem):
    """Smallest eigenvalue of the reduced Hessian Z'CZ, or None when the
    null space of E is empty."""
    Z = null_space_and_min_norm(problem.E, problem.f)[0]
    if not Z.shape[1]:
        return None
    M = Z.T @ problem.C @ Z
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])


def lifted_matrices(problem, theta):
    """The dense lifted data Q = [[C, c], [c', theta]], q = (0, -theta) and
    A = [E, -f] that the solver applies without forming Q."""
    n = problem.n
    Q = np.zeros((n + 1, n + 1))
    Q[:n, :n] = problem.C
    Q[:n, n] = problem.c
    Q[n, :n] = problem.c
    Q[n, n] = theta
    q = np.zeros(n + 1)
    q[n] = -theta
    A = np.zeros((problem.m, n + 1))
    A[:, :n] = problem.E
    A[:, n] = -problem.f
    return Q, q, A


def lifted_hessian(hqp):
    """The dense lifted Hessian Q of an embedded problem."""
    return lifted_matrices(hqp.parent.problem, hqp.theta)[0]


def lifted_nullspace_basis(validated):
    """Basis [[Z, d], [0, 1]] of the null space of [E, -f].

    Z is an orthonormal basis of null(E) and d the minimum-norm particular
    solution of Ed = f; the block column (d, 1) accounts for the scaling
    variable.  Full column rank because d is orthogonal to range(Z).
    """
    Z, d = null_space_and_min_norm(validated.problem.E, validated.problem.f)
    n, k = Z.shape
    Zhat = np.zeros((n + 1, k + 1))
    Zhat[:n, :k] = Z
    Zhat[:n, k] = d
    Zhat[n, k] = 1.0
    return Zhat


def check_reduced_hessian_pd(validated, theta):
    """Smallest eigenvalue of the lifted Hessian reduced onto null([E, -f]).

    A nonpositive value is the witness that theta is too small: an
    independent check of the solver's scalar test theta > -2 theta_star.
    """
    Zhat = lifted_nullspace_basis(validated)
    Q = lifted_matrices(validated.problem, theta)[0]
    M = Zhat.T @ Q @ Zhat
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])


@dataclass(frozen=True)
class HqpKktPoint:
    """Primal-dual point for the lifted program: primal (y_hat, tau_hat),
    equality multiplier nu_hat, bound multipliers (xi_hat, omega_hat)."""

    y_hat: np.ndarray
    tau_hat: float
    nu_hat: np.ndarray
    xi_hat: np.ndarray
    omega_hat: float


@dataclass(frozen=True)
class HqpKktResiduals:
    """Residuals of the lifted program's first-order optimality system."""

    stat_y: np.ndarray
    stat_tau: float
    eq: np.ndarray
    comp_max: float
    nonneg: float

    def max_violation(self) -> float:
        """Largest residual; NaN when any residual is NaN."""
        parts = [abs(self.stat_tau), self.comp_max, self.nonneg]
        if self.stat_y.size:
            parts.append(np.linalg.norm(self.stat_y, np.inf))
        if self.eq.size:
            parts.append(np.linalg.norm(self.eq, np.inf))
        return float(np.max(parts))


def hqp_data_scale(hqp):
    """max(||Q||, ||q||, ||A||) in the infinity norm of an embedded
    problem."""
    scale = max(hqp.hessian_norm, np.linalg.norm(hqp.q, np.inf))
    if hqp.A.shape[0]:
        scale = max(scale, np.linalg.norm(hqp.A, np.inf))
    return float(scale)


def hqp_kkt_residuals(hqp, point):
    """Evaluate the lifted optimality system at a primal-dual point."""
    problem = hqp.parent.problem
    theta = hqp.theta
    y, tau = point.y_hat, point.tau_hat
    nu, xi, omega = point.nu_hat, point.xi_hat, point.omega_hat
    stat_y = problem.C @ y + tau * problem.c + problem.E.T @ nu - xi
    stat_tau = theta * tau - theta + problem.c @ y - problem.f @ nu - omega
    eq = problem.E @ y - problem.f * tau
    comp_max = float(max(np.abs(y * xi).max(initial=0.0), abs(tau * omega)))
    nonneg = float(max(0.0, -y.min(initial=0.0), -xi.min(initial=0.0), -tau, -omega))
    return HqpKktResiduals(
        stat_y=stat_y, stat_tau=float(stat_tau), eq=eq, comp_max=comp_max, nonneg=nonneg
    )


def separable_reference(C):
    """Indices of the rows of C with no off-diagonal nonzero and C_ii >= 0,
    by a plain loop."""
    n = C.shape[0]
    return [
        i for i in range(n)
        if C[i, i] >= 0.0 and all(C[i, j] == 0.0 for j in range(n) if j != i)
    ]


def structured_problem(rng, kind):
    """A valid QP whose Hessian has diagonal-only rows.

    all_diagonal       C = Diag(> 0), three Gaussian rows;
    interleaved        a dense SPD block on variables 1, 4, 5 and 9, the
                       other rows diagonal;
    negative_diagonal  C indefinite: C_22 = -1 in a diagonal-only row, with
                       row e_2 + 0.3 e_0 of E keeping C positive definite
                       on null(E);
    slack_rows         to_standard_form of a box- and inequality-constrained
                       QP, whose slack variables have zero rows in C.
    """
    if kind == "slack_rows":
        general = GeneralQp(
            H=random_spd_matrix(rng, 4),
            g=rng.standard_normal(4),
            lower=np.array([0.0, -1.0, -np.inf, 0.0]),
            upper=np.array([np.inf, 1.0, 2.0, 1.5]),
            G=rng.standard_normal((2, 4)),
            h=rng.random(2) + 0.5,
        )
        return to_standard_form(general)[0]
    n = 10
    C = np.diag(rng.random(n) + 0.5)
    E = rng.standard_normal((3, n))
    if kind == "interleaved":
        block = [1, 4, 5, 9]
        C[np.ix_(block, block)] = random_spd_matrix(rng, len(block))
    elif kind == "negative_diagonal":
        C[2, 2] = -1.0
        E[0] = 0.0
        E[0, 2], E[0, 0] = 1.0, 0.3
    else:
        assert kind == "all_diagonal"
    return QpProblem(C, rng.standard_normal(n), E, rng.standard_normal(3))


STRUCTURED_KINDS = ("all_diagonal", "interleaved", "negative_diagonal", "slack_rows")


def random_spd_matrix(rng, n, shift=0.5):
    G = rng.standard_normal((n, n))
    return G.T @ G + shift * np.eye(n)


def random_full_rank(rng, m, n):
    while True:
        E = rng.standard_normal((m, n))
        if m == 0 or np.linalg.matrix_rank(E) == m:
            return E


def planted_kkt_instance(rng, n, m):
    """Problem with a known exact optimal primal-dual point.

    Pick the point first (strictly complementary: positive primal on a
    random support, positive bound multiplier off it), then back out the
    linear cost and right-hand side that make it stationary and feasible.
    """
    C = random_spd_matrix(rng, n)
    E = random_full_rank(rng, m, n)
    support = rng.random(n) < 0.6
    if not support.any():
        support[int(rng.integers(n))] = True
    y = np.where(support, rng.random(n) + 0.5, 0.0)
    xi = np.where(support, 0.0, rng.random(n) + 0.5)
    nu = rng.standard_normal(m)
    c = -(C @ y) - E.T @ nu + xi
    f = E @ y
    problem = QpProblem(C, c, E if m else None, f if m else None)
    return problem, QpKktPoint(y=y, nu=nu, xi=xi)


def planted_certificate_instance(rng, n, m):
    """Infeasible problem with a known exact certificate.

    Nonnegative constraint rows and a positive multiplier give a
    nonnegative E'nu; scaling f = -nu / ||nu||^2 normalizes f'nu to -1.
    The certificate's existence itself proves infeasibility.
    """
    assert m >= 1
    C = random_spd_matrix(rng, n)
    E = 1.0 - rng.random((m, n))  # entries in (0, 1]; full row rank a.s.
    nu = rng.random(m) + 0.5
    xi = E.T @ nu
    f = -nu / float(nu @ nu)
    c = rng.standard_normal(n)
    problem = QpProblem(C, c, E, f)
    return problem, nu, xi


def reference_theta_star(problem):
    """Equality-relaxed optimal value from a dense solve of the KKT system."""
    n, m = problem.n, problem.m
    K = np.block([[problem.C, problem.E.T], [problem.E, np.zeros((m, m))]])
    y = np.linalg.solve(K, np.concatenate([-problem.c, problem.f]))[:n]
    return float(0.5 * y @ problem.C @ y + problem.c @ y)


def paper_pd_bounds(problem, alpha=None):
    """The paper's positive-definiteness bounds on theta, computed with
    scipy's null space and a least-squares minimum-norm d:

        exact_Z       ||Z'g||^2 / lambda_min(Z'CZ) - d'Cd - 2c'd
        norm_relaxed  ||g||^2 / lambda_min(Z'CZ)   - d'Cd - 2c'd
        alpha         ||g||^2 / alpha              - d'Cd - 2c'd

    with g = Cd + c and alpha a positive lower bound on lambda_min (the
    last is None without one).  With m = n all three are -d'Cd - 2c'd.
    """
    C, c = problem.C, problem.c
    if problem.m:
        d = np.linalg.lstsq(problem.E, problem.f, rcond=None)[0]
        Z = scipy.linalg.null_space(problem.E)
    else:
        d, Z = np.zeros(problem.n), np.eye(problem.n)
    base = -float(d @ C @ d) - 2.0 * float(c @ d)
    if Z.shape[1] == 0:
        return {"exact_Z": base, "norm_relaxed": base, "alpha": base}
    g = C @ d + c
    lam = float(np.linalg.eigvalsh(Z.T @ C @ Z)[0])
    return {
        "exact_Z": float(np.sum((Z.T @ g) ** 2)) / lam + base,
        "norm_relaxed": float(g @ g) / lam + base,
        "alpha": None if alpha is None else float(g @ g) / alpha + base,
    }


def standard_variables(mapping, y, general):
    """The standard-form point of ``to_standard_form``'s ``mapping`` that
    corresponds to a bound- and inequality-feasible original point y of
    ``general``."""
    y = np.asarray(y, dtype=float)
    z = mapping.scale * (y - mapping.offset)
    w = mapping.span - z[mapping.two_sided]
    s = (general.h - general.G @ y) if mapping.n_ineq else np.zeros(0)
    return np.concatenate([z, w, s])


def record_steps(monkeypatch):
    """Record the steps of the next solves through ``iipm.step_length``.

    Returns a list that gains (iterate, direction, accepted iterate) per
    step.  A step searched twice, a corrected direction and then its
    fallback, keeps its last search.  The iterates of the log rows of one
    solve are ``[step[0] for step in steps] + [steps[-1][2]]``.
    """
    steps = []
    raw = iipm.step_length

    def recording(hqp, iterate, direction, *args):
        alpha, accepted, nbhd = raw(hqp, iterate, direction, *args)
        if steps and steps[-1][0] is iterate:
            steps.pop()
        steps.append((iterate, direction, accepted))
        return alpha, accepted, nbhd

    monkeypatch.setattr(iipm, "step_length", recording)
    return steps


def check_iterate_norm_bound(log, iterates, zeta, beta, dim, x_final, s_final):
    """Post-hoc diagnostic: zeta * upsilon_k * ||(x_k, s_k)||_1 <= 4 beta dim mu_k,
    with ``iterates`` the iterate of each row of ``log``.

    Only meaningful when the start radius dominated some optimal pair,
    zeta >= ||(x*, s*)||; the converged point stands in for that pair.
    Returns the per-iteration slack and any violations instead of
    asserting.
    """
    star_norm = float(np.sqrt(np.sum(x_final**2) + np.sum(s_final**2)))
    applicable = zeta >= star_norm
    violations = []
    slack = []
    for r, it in zip(log.rows, iterates, strict=True):
        lhs = zeta * r.upsilon * float(np.sum(np.abs(it.x)) + np.sum(np.abs(it.s)))
        rhs = 4.0 * beta * dim * r.mu
        slack.append(rhs - lhs)
        if applicable and lhs > rhs * (1.0 + 1e-12):
            violations.append(r.k)
    return {
        "applicable": applicable,
        "zeta": zeta,
        "final_pair_norm": star_norm,
        "slack": slack,
        "violations": violations,
    }


ORACLE_MAX_N = 20


class TooLarge(HqpError):
    """Problem exceeds the size limit of the brute-force oracle."""


@dataclass(frozen=True)
class OracleResult:
    status: SolveStatus
    y_opt: Optional[np.ndarray] = None
    active_set: Optional[tuple] = None
    nu_opt: Optional[np.ndarray] = None
    xi_opt: Optional[np.ndarray] = None


def _single_row_feasible(E_row: np.ndarray, f_val: float, tol: float) -> bool:
    """Feasibility of {y >= 0 : E_row y = f} for one row, decided from the
    reachable cone of the row entries."""
    has_pos = bool(np.any(E_row > tol))
    has_neg = bool(np.any(E_row < -tol))
    if has_pos and has_neg:
        return True
    if has_pos:
        return f_val >= -tol
    if has_neg:
        return f_val <= tol
    return abs(f_val) <= tol


def _basis_feasible(E: np.ndarray, f: np.ndarray, tol: float) -> bool:
    """Feasibility via enumeration of basic solutions.

    A nonempty polyhedron {y >= 0 : Ey = f} contained in the nonnegative
    orthant has a vertex supported on at most m coordinates with a
    nonsingular basis matrix, so checking every m-column basis is exact.
    """
    m, n = E.shape
    for cols in itertools.combinations(range(n), m):
        B = E[:, cols]
        try:
            y_b = np.linalg.solve(B, f)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(y_b)):
            continue
        if np.linalg.norm(B @ y_b - f, np.inf) > tol * max(1.0, np.linalg.norm(f, np.inf)):
            continue
        if np.all(y_b >= -tol):
            return True
    return False


def _zero_point_multipliers(problem: QpProblem, tol: float):
    """Multipliers certifying optimality of y = 0, when they exist.

    Needs nu with c + E'nu >= 0; a tiny linear feasibility problem."""
    if problem.m == 0:
        return np.zeros(0) if np.all(problem.c >= -tol) else None
    res = scipy.optimize.linprog(
        c=np.zeros(problem.m),
        A_ub=-problem.E.T,
        b_ub=problem.c,
        bounds=[(None, None)] * problem.m,
        method="highs",
    )
    return res.x if res.status == 0 else None


def active_set_oracle(problem: QpProblem, tol: float = 1e-9) -> OracleResult:
    """Brute-force reference: enumerate active bound sets.

    Feasibility is decided first (analytically for a single row, by basic
    solutions otherwise).  For a feasible problem every subset F of
    inactive bounds is tried: fix the complement at zero, solve the
    equality-constrained stationarity system on F, and accept the first
    subset whose point is feasible with sign-correct multipliers.  Exact at
    small sizes and independent of the interior-point solve path.
    """
    n, m = problem.n, problem.m
    if n > ORACLE_MAX_N:
        raise TooLarge(f"oracle limited to n <= {ORACLE_MAX_N}, got {n}")

    if m == 0:
        feasible = True
    elif m == 1:
        feasible = _single_row_feasible(problem.E[0], float(problem.f[0]), tol)
    else:
        feasible = _basis_feasible(problem.E, problem.f, tol)
    if not feasible:
        return OracleResult(status=SolveStatus.INFEASIBLE)

    scale = 1.0 + problem.data_scale()
    f_ok = np.linalg.norm(problem.f, np.inf) <= tol * scale if m else True
    for mask in range(2**n):
        free = [i for i in range(n) if mask >> i & 1]
        if not free:
            if not f_ok:
                continue
            nu = _zero_point_multipliers(problem, tol)
            if nu is None:
                continue
            y = np.zeros(n)
            xi = problem.c + problem.E.T @ nu
            point = QpKktPoint(y=y, nu=nu, xi=np.maximum(xi, 0.0))
        else:
            y, nu = _free_subset_solve(problem, free, tol)
            if y is None:
                continue
            if np.any(y[free] < -tol * scale):
                continue
            xi = problem.C @ y + problem.c + problem.E.T @ nu
            if np.any(xi < -tol * scale):
                continue
            xi = xi.copy()
            xi[free] = 0.0  # stationarity held on the free set by construction
            point = QpKktPoint(y=np.maximum(y, 0.0), nu=nu, xi=np.maximum(xi, 0.0))
        res = qp_kkt_residuals(problem, point)
        if res.max_violation() <= 10.0 * tol * scale:
            active = tuple(i for i in range(n) if i not in free)
            return OracleResult(
                status=SolveStatus.OPTIMAL,
                y_opt=point.y,
                active_set=active,
                nu_opt=point.nu,
                xi_opt=point.xi,
            )
    raise HqpError("oracle found the problem feasible but no optimal active set")


def _free_subset_solve(problem: QpProblem, free: list, tol: float):
    """Stationarity-plus-feasibility solve with the complement fixed at zero."""
    m = problem.m
    C_ff = problem.C[np.ix_(free, free)]
    E_f = problem.E[:, free]
    k = len(free)
    M = np.zeros((k + m, k + m))
    M[:k, :k] = C_ff
    M[:k, k:] = E_f.T
    M[k:, :k] = E_f
    rhs = np.concatenate([-problem.c[free], problem.f])
    try:
        sol = np.linalg.solve(M, rhs)
        sol = sol + np.linalg.solve(M, rhs - M @ sol)
        residual = np.linalg.norm(M @ sol - rhs, np.inf)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        residual = np.linalg.norm(M @ sol - rhs, np.inf)
    if not np.all(np.isfinite(sol)):
        return None, None
    if residual > tol * (1.0 + np.linalg.norm(rhs, np.inf)):
        return None, None
    y = np.zeros(problem.n)
    y[free] = sol[:k]
    return y, sol[k:]
