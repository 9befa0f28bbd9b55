"""Random instance families and a brute-force optimality oracle.

Instance generation is deterministic for a fixed (kind, n, m, seed): draws
come from numpy's PCG64 generator seeded with the instance seed, and the
draw order is fixed (single-row families draw E only; the dense family
draws G, then E, then f, then c).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.optimize

from .embedding import SolveStatus
from .errors import HqpError, TooLarge
from .qp import QpKktPoint, QpProblem, qp_kkt_residuals

ORACLE_MAX_N = 20


class InstanceKind(str, enum.Enum):
    INFEASIBLE_SV = "infeasible_sv"  # identity Hessian, one nonnegative row, f = -1
    FEASIBLE_SV = "feasible_sv"      # same construction with f = +1
    RANDOM_SPD = "random_spd"        # dense SPD Hessian, Gaussian E and f


@dataclass(frozen=True)
class InstanceSpec:
    kind: InstanceKind
    n: int
    m: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        kind = InstanceKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind in (InstanceKind.INFEASIBLE_SV, InstanceKind.FEASIBLE_SV):
            if self.m != 1:
                raise ValueError(f"{kind.value} instances have exactly one equality row")
        elif not 0 <= self.m <= self.n:
            raise ValueError(f"need 0 <= m <= n, got m={self.m}, n={self.n}")


def generate(spec: InstanceSpec) -> QpProblem:
    """Build a problem instance deterministically from its spec.

    Single-row kinds use the identity Hessian, an all-ones linear cost, and
    one equality row with entries uniform on (0, 1]; with right-hand side
    -1 the instance is infeasible by construction (a nonnegative row cannot
    produce a negative value on the nonnegative orthant), with +1 it is
    feasible.  The dense kind builds C = G'G + 0.1 I from standard normal G
    plus Gaussian E, f, and c.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    if spec.kind in (InstanceKind.INFEASIBLE_SV, InstanceKind.FEASIBLE_SV):
        E = 1.0 - rng.random((1, n))  # uniform on (0, 1]: never a zero row
        f = np.array([-1.0 if spec.kind is InstanceKind.INFEASIBLE_SV else 1.0])
        return QpProblem(np.eye(n), np.ones(n), E, f)
    G = rng.standard_normal((n, n))
    C = G.T @ G + 0.1 * np.eye(n)
    E = rng.standard_normal((spec.m, n)) if spec.m else None
    f = rng.standard_normal(spec.m) if spec.m else None
    c = rng.standard_normal(n)
    return QpProblem(C, c, E, f)


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
