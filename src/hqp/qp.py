"""Standard-form QP data, validation, and optimality/infeasibility residuals.

Standard form:

    minimize    0.5 y'Cy + c'y
    subject to  E y = f,  y >= 0

with C symmetric n x n, E an m x n full-row-rank matrix, and the Hessian
positive definite on null(E).  A problem failing those two requirements is
rejected by :func:`validate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from . import linsys
from .errors import (
    DimensionMismatch,
    FreeVariable,
    NotReducedPd,
    ProblemFormatError,
    RankDeficient,
)


def inf_norm(v: np.ndarray) -> float:
    """max |v_i|, 0.0 for an empty vector; NaN when any entry is NaN."""
    return float(np.abs(v).max(initial=0.0))


def _vector(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1)
    if a.ndim != 1:
        raise DimensionMismatch(f"{name} must be a vector, got shape {a.shape}")
    return a


class QpProblem:
    """Convex QP in standard form (equalities plus nonnegativity bounds).

    The Hessian is symmetrized on construction, since the quadratic form only
    sees the symmetric part.  Non-finite entries are refused.  The mask of
    the rows of C with no off-diagonal nonzero and C's absolute row sums
    are kept, so that no later product or norm needs an n x n temporary.
    """

    def __init__(self, C, c, E=None, f=None):
        c = _vector(c, "c")
        n = c.size
        C = np.atleast_2d(np.asarray(C, dtype=float))
        if C.shape != (n, n):
            raise DimensionMismatch(f"C must be {n}x{n}, got {C.shape}")
        if E is None:
            E = np.zeros((0, n))
        E = np.atleast_2d(np.asarray(E, dtype=float))
        m = E.shape[0]
        if E.shape != (m, n):
            raise DimensionMismatch(f"E must be {m}x{n}, got {E.shape}")
        if m > n:
            raise DimensionMismatch(f"more equality rows ({m}) than variables ({n})")
        f = np.zeros(0) if f is None else _vector(f, "f")
        if f.size != m:
            raise DimensionMismatch(f"f must have length {m}, got {f.size}")
        for name, a in (("C", C), ("c", c), ("E", E), ("f", f)):
            if not np.isfinite(a).all():
                raise ProblemFormatError(f"{name} has non-finite entries")

        self.n = n
        self.m = m
        self.C = 0.5 * (C + C.T)
        self.c = c.copy()
        self.E = E.copy()
        self.f = f.copy()
        self.diagonal_rows = linsys.diagonal_rows(self.C)
        self.row_abs_sums = np.abs(self.C).sum(axis=1)
        for a in (self.C, self.c, self.E, self.f, self.diagonal_rows, self.row_abs_sums):
            a.setflags(write=False)
        self._diagonal = np.diagonal(self.C) if self.diagonal_rows.all() else None

    def apply_C(self, y: np.ndarray) -> np.ndarray:
        """C y; a product with the diagonal when every row of C is diagonal."""
        if self._diagonal is not None:
            return self._diagonal * y
        return self.C @ y

    def objective(self, y: np.ndarray) -> float:
        y = np.asarray(y, dtype=float)
        return float(0.5 * y @ self.apply_C(y) + self.c @ y)

    def data_scale(self) -> float:
        """Infinity-norm scale of the problem data, used to relativize tolerances."""
        scale = max(self.row_abs_sums.max(initial=0.0), inf_norm(self.c), inf_norm(self.f))
        if self.m:
            scale = max(scale, np.linalg.norm(self.E, np.inf))
        return float(scale)

    def __repr__(self):
        return f"QpProblem(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class QpKktPoint:
    """Primal-dual point for the standard-form QP: primal y, equality
    multiplier nu, bound multiplier xi."""

    y: np.ndarray
    nu: np.ndarray
    xi: np.ndarray

    def check_dims(self, problem: QpProblem) -> None:
        if self.y.shape != (problem.n,):
            raise DimensionMismatch(f"y must have length {problem.n}")
        if self.nu.shape != (problem.m,):
            raise DimensionMismatch(f"nu must have length {problem.m}")
        if self.xi.shape != (problem.n,):
            raise DimensionMismatch(f"xi must have length {problem.n}")


@dataclass(frozen=True)
class InfeasCertificate:
    """Farkas-type certificate (nu, xi): E'nu = xi >= 0 and f'nu = -1
    together prove that no feasible point exists."""

    nu: np.ndarray
    xi: np.ndarray

    def check_dims(self, problem: QpProblem) -> None:
        if self.nu.shape != (problem.m,):
            raise DimensionMismatch(f"cert_nu must have length {problem.m}")
        if self.xi.shape != (problem.n,):
            raise DimensionMismatch(f"cert_xi must have length {problem.n}")


@dataclass(frozen=True)
class ValidatedProblem:
    """QpProblem that passed :func:`validate`, with theta_star, the optimal
    value of the QP with the nonnegativity bounds dropped."""

    problem: QpProblem
    theta_star: float

    @property
    def n(self) -> int:
        return self.problem.n

    @property
    def m(self) -> int:
        return self.problem.m


def validate(problem: QpProblem) -> ValidatedProblem:
    """Check full row rank of E and positive definiteness of C on null(E),
    and compute theta_star.

    The singular values of E decide the rank, against the backward-stable
    threshold max(m, n) * sigma_1 * 1e-12.  Then K = [[C, E'], [E, 0]] is
    factored once (:class:`linsys.EqualityKkt`): with E of full row rank,
    C is positive definite on null(E) exactly when the inertia of K is
    (n, m, 0), which holds vacuously when m = n.  The same factors solve
    K (y; nu) = (-c; f), and theta_star = 0.5 y'Cy + c'y.
    """
    n, m = problem.n, problem.m
    if m:
        svals = scipy.linalg.svdvals(problem.E)
        rank_tol = max(m, n) * svals[0] * 1e-12
        rank = int(np.count_nonzero(svals > rank_tol))
        if rank < m:
            raise RankDeficient(
                f"E has numerical rank {rank} < {m} (tolerance {rank_tol:.3e})"
            )
    divide = problem.diagonal_rows & (np.diagonal(problem.C) > 0.0)
    kkt = linsys.EqualityKkt(problem.C, problem.E, divide, problem.apply_C)
    inertia = kkt.inertia()
    if inertia != (n, m, 0):
        raise NotReducedPd(
            f"KKT matrix inertia {inertia} is not ({n}, {m}, 0): "
            f"C is not positive definite on null(E)"
        )
    y, _ = kkt.solve(-problem.c, problem.f)
    return ValidatedProblem(problem=problem, theta_star=problem.objective(y))


@dataclass(frozen=True)
class KktResiduals:
    """Residuals of the first-order optimality system.

    r_stat = Cy + c + E'nu - xi, r_eq = Ey - f, r_comp = |y'xi|,
    comp_min = componentwise min(y, xi), r_nonneg = max(0, -min y, -min xi).
    """

    r_stat: np.ndarray
    r_eq: np.ndarray
    r_comp: float
    comp_min: np.ndarray
    r_nonneg: float

    def norms(self) -> dict:
        """The reported sizes of the residuals; NaN propagates."""
        return {
            "stat_inf": inf_norm(self.r_stat),
            "eq_inf": inf_norm(self.r_eq),
            "comp": self.r_comp,
            "comp_min_inf": inf_norm(self.comp_min),
            "nonneg": self.r_nonneg,
        }

    def max_violation(self) -> float:
        """Largest residual other than r_comp; NaN when any residual is NaN."""
        norms = self.norms()
        del norms["comp"]
        return float(np.max(list(norms.values())))


def qp_kkt_residuals(problem: QpProblem, point: QpKktPoint) -> KktResiduals:
    """Evaluate the optimality residuals at a primal-dual point (pure)."""
    point.check_dims(problem)
    y, nu, xi = point.y, point.nu, point.xi
    r_stat = problem.apply_C(y) + problem.c + problem.E.T @ nu - xi
    r_eq = problem.E @ y - problem.f
    comp_min = np.minimum(y, xi)
    r_comp = float(abs(y @ xi))
    r_nonneg = float(max(0.0, -y.min(initial=0.0), -xi.min(initial=0.0)))
    return KktResiduals(
        r_stat=r_stat,
        r_eq=r_eq,
        r_comp=r_comp,
        comp_min=comp_min,
        r_nonneg=r_nonneg,
    )


@dataclass(frozen=True)
class CertificateResiduals:
    """Residuals of the infeasibility certificate conditions.

    r1 = E'nu - xi, r2 = f'nu + 1, r3 = max(0, -min xi).  A certificate is
    accepted when all three vanish within tolerance.
    """

    r1: np.ndarray
    r2: float
    r3: float

    def norms(self) -> dict:
        """The reported sizes of the residuals; NaN propagates."""
        return {"r1_inf": inf_norm(self.r1), "r2": self.r2, "r3": self.r3}

    def max_violation(self) -> float:
        """Largest residual; NaN when any residual is NaN."""
        norms = self.norms()
        return float(np.max([norms["r1_inf"], abs(norms["r2"]), norms["r3"]]))


def check_certificate(
    problem: QpProblem, cert: InfeasCertificate
) -> CertificateResiduals:
    """Evaluate the certificate residuals (pure)."""
    cert.check_dims(problem)
    r1 = problem.E.T @ cert.nu - cert.xi
    r2 = float(problem.f @ cert.nu + 1.0)
    r3 = float(max(0.0, -cert.xi.min(initial=0.0)))
    return CertificateResiduals(r1=r1, r2=r2, r3=r3)


@dataclass(frozen=True)
class GeneralQp:
    """QP with box bounds and optional linear equality/inequality rows:

        minimize    0.5 y'Hy + g'y
        subject to  A_eq y = b_eq,  G y <= h,  lower <= y <= upper.

    Every variable needs at least one finite bound.
    """

    H: np.ndarray
    g: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    A_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    G: Optional[np.ndarray] = None
    h: Optional[np.ndarray] = None


@dataclass(frozen=True)
class StandardFormMap:
    """Affine recovery map produced by :func:`to_standard_form`.

    Original variables are y = scale * x[:n_original] + offset, and the
    original objective equals the standard-form objective plus
    ``objective_offset``.
    """

    scale: np.ndarray
    offset: np.ndarray
    n_original: int
    objective_offset: float
    two_sided: np.ndarray
    span: np.ndarray
    n_ineq: int

    def original_variables(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.scale * x[: self.n_original] + self.offset

    def original_objective(self, standard_value: float) -> float:
        return float(standard_value + self.objective_offset)


def to_standard_form(general: GeneralQp) -> tuple[QpProblem, StandardFormMap]:
    """Rewrite a box-and-inequality QP in standard form.

    Each variable is shifted by its finite lower bound (or reflected
    through its upper bound when only that is finite); two-sided variables
    get a slack row z_i + w_i = upper_i - lower_i, and every inequality row
    gets a nonnegative slack.  Objective values of corresponding points
    agree up to the constant returned in the map.
    """
    H = np.atleast_2d(np.asarray(general.H, dtype=float))
    g = _vector(general.g, "g")
    lower = _vector(general.lower, "lower")
    upper = _vector(general.upper, "upper")
    n0 = g.size
    if H.shape != (n0, n0) or lower.size != n0 or upper.size != n0:
        raise DimensionMismatch("H, g, lower, upper shapes are inconsistent")
    if np.any(lower > upper):
        raise ValueError("lower bound exceeds upper bound")

    has_lower = np.isfinite(lower)
    has_upper = np.isfinite(upper)
    free = ~has_lower & ~has_upper
    if np.any(free):
        raise FreeVariable(f"variables {np.flatnonzero(free).tolist()} have no finite bound")

    # Shift from the lower bound when it is finite, otherwise reflect from
    # the upper bound so the transformed variable is nonnegative either way.
    scale = np.where(has_lower, 1.0, -1.0)
    offset = np.where(has_lower, lower, upper)
    two_sided = np.flatnonzero(has_lower & has_upper)
    span = (upper - lower)[two_sided]

    A_eq = general.A_eq
    b_eq = general.b_eq
    if (A_eq is None) != (b_eq is None):
        raise DimensionMismatch("A_eq and b_eq must be supplied together")
    G = general.G
    h = general.h
    if (G is None) != (h is None):
        raise DimensionMismatch("G and h must be supplied together")
    m_eq = 0 if A_eq is None else np.atleast_2d(A_eq).shape[0]
    p = 0 if G is None else np.atleast_2d(G).shape[0]
    n_two = two_sided.size
    n_std = n0 + n_two + p
    m_std = m_eq + n_two + p

    D = scale  # diagonal of the +/-1 change of variables
    C = np.zeros((n_std, n_std))
    C[:n0, :n0] = H * np.outer(D, D)
    c = np.zeros(n_std)
    c[:n0] = D * (g + H @ offset)

    E = np.zeros((m_std, n_std))
    f = np.zeros(m_std)
    row = 0
    if m_eq:
        A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
        b_eq = _vector(b_eq, "b_eq")
        if A_eq.shape != (m_eq, n0) or b_eq.size != m_eq:
            raise DimensionMismatch("A_eq / b_eq shapes are inconsistent")
        E[:m_eq, :n0] = A_eq * D
        f[:m_eq] = b_eq - A_eq @ offset
        row = m_eq
    for j, i in enumerate(two_sided):
        E[row + j, i] = 1.0
        E[row + j, n0 + j] = 1.0
        f[row + j] = span[j]
    row += n_two
    if p:
        G = np.atleast_2d(np.asarray(G, dtype=float))
        h = _vector(h, "h")
        if G.shape != (p, n0) or h.size != p:
            raise DimensionMismatch("G / h shapes are inconsistent")
        E[row:, :n0] = G * D
        E[row:, n0 + n_two:] = np.eye(p)
        f[row:] = h - G @ offset

    objective_offset = float(g @ offset + 0.5 * offset @ H @ offset)
    problem = QpProblem(C, c, E if m_std else None, f if m_std else None)
    mapping = StandardFormMap(
        scale=scale,
        offset=offset,
        n_original=n0,
        objective_offset=objective_offset,
        two_sided=two_sided,
        span=span,
        n_ineq=p,
    )
    return problem, mapping
