"""Homogeneous embedding of the standard-form QP and solution recovery.

The embedding lifts the QP into one extra nonnegative variable tau that
multiplies the affine data:

    minimize    0.5 y'Cy + tau c'y + (theta/2)(tau^2 - 2 tau)
    subject to  E y = f tau,  y >= 0,  tau >= 0.

Written over x = (y, tau) this is a standard-form program with

    Q = [[C, c], [c', theta]],   q = (0, -theta),   A = [E, -f],

whose constraint Ax = 0 admits x = 0, so the lifted program is always
feasible and its optimal value is at most zero.  For theta large enough the
lifted program is convex, and exactly one of two things happens at an
optimum: tau > 0, from which the QP optimum is recovered by rescaling, or
tau = 0, from which an infeasibility certificate is recovered from the
multipliers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import linsys
from .errors import AmbiguousStatus, NonPositiveAlpha, NotReducedPd
from .qp import (
    CertificateResiduals,
    InfeasCertificate,
    KktResiduals,
    QpKktPoint,
    ValidatedProblem,
    check_certificate,
    qp_kkt_residuals,
)

# Largest dimension at which the exact reduced-Hessian eigenvalue bound is
# the default; beyond it the norm-relaxed bound avoids the eigen-solve.
EXACT_Z_MAX_N = 2000


class ThetaMode(str, enum.Enum):
    """Which lower bound is used to make the lifted Hessian positive
    definite on the constraint null space."""

    EXACT_Z = "exact_Z"          # ||Z'(Cd+c)||^2 / lambda_min(Z'CZ) - d'Cd - 2c'd
    NORM_RELAXED = "norm_relaxed"  # ||Cd+c||^2 / lambda_min(Z'CZ) - d'Cd - 2c'd
    USER_ALPHA = "user_alpha"    # ||Cd+c||^2 / alpha - d'Cd - 2c'd


@dataclass(frozen=True)
class ThetaReport:
    """How the embedding parameter was chosen.

    theta must exceed both twice the magnitude of the equality-relaxed
    optimal value (condition1_rhs) and the positive-definiteness bound
    (pd_bound_rhs); the final value carries a multiplicative safety margin.
    """

    theta_star: float
    bound_used: Optional[ThetaMode]
    pd_bound_rhs: float
    condition1_rhs: float
    theta: float
    margin: float
    override: bool = False

    def as_dict(self) -> dict:
        clean = lambda v: v if np.isfinite(v) else None
        return {
            "theta_star": self.theta_star,
            "bound_used": self.bound_used.value if self.bound_used else None,
            "pd_bound_rhs": clean(self.pd_bound_rhs),
            "condition1_rhs": clean(self.condition1_rhs),
            "theta": self.theta,
            "margin": self.margin,
            "override": self.override,
        }


@dataclass(frozen=True)
class HqpProblem:
    """The embedded program in standard form over x = (y, tau)."""

    Q: np.ndarray
    q: np.ndarray
    A: np.ndarray
    theta_report: ThetaReport
    parent: ValidatedProblem

    def __post_init__(self):
        for a in (self.Q, self.q, self.A):
            a.setflags(write=False)

    @property
    def n(self) -> int:
        """Variable count of the source QP (the lifted program has n + 1)."""
        return self.parent.n

    @property
    def m(self) -> int:
        return self.parent.m

    @property
    def dim(self) -> int:
        return self.Q.shape[0]

    @property
    def theta(self) -> float:
        return self.theta_report.theta

    @cached_property
    def newton_data_norm(self) -> float:
        """:func:`linsys.newton_data_norm` of (Q, A), shared by every Newton step."""
        return linsys.newton_data_norm(self.Q, self.A)

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.Q @ x + self.q @ x)

    def data_scale(self) -> float:
        scale = max(
            np.linalg.norm(self.Q, np.inf),
            np.linalg.norm(self.q, np.inf),
        )
        if self.A.shape[0]:
            scale = max(scale, np.linalg.norm(self.A, np.inf))
        return float(scale)


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
        parts = [abs(self.stat_tau), self.comp_max, self.nonneg]
        if self.stat_y.size:
            parts.append(np.linalg.norm(self.stat_y, np.inf))
        if self.eq.size:
            parts.append(np.linalg.norm(self.eq, np.inf))
        return float(max(parts))


def hqp_kkt_residuals(hqp: HqpProblem, point: HqpKktPoint) -> HqpKktResiduals:
    """Evaluate the lifted optimality system at a primal-dual point."""
    problem = hqp.parent.problem
    theta = hqp.theta
    y, tau = point.y_hat, point.tau_hat
    nu, xi, omega = point.nu_hat, point.xi_hat, point.omega_hat
    stat_y = problem.C @ y + tau * problem.c + problem.E.T @ nu - xi
    stat_tau = theta * tau - theta + problem.c @ y - problem.f @ nu - omega
    eq = problem.E @ y - problem.f * tau
    comp_terms = np.abs(y * xi)
    comp_max = float(max(comp_terms.max(initial=0.0), abs(tau * omega)))
    nonneg = float(
        max(
            0.0,
            -y.min(initial=0.0),
            -xi.min(initial=0.0),
            -tau,
            -omega,
        )
    )
    return HqpKktResiduals(
        stat_y=stat_y, stat_tau=float(stat_tau), eq=eq, comp_max=comp_max, nonneg=nonneg
    )


def compute_theta_star(validated: ValidatedProblem) -> float:
    """Optimal value of the QP with the nonnegativity bounds dropped.

    Well defined under the validated assumptions; obtained from a single
    saddle-point solve [[C, E'], [E, 0]] (y; nu) = (-c; f) followed by an
    objective evaluation.
    """
    problem = validated.problem
    y_tilde, _ = linsys.solve_equality_kkt(
        problem.C, problem.E, -problem.c, problem.f
    )
    return float(0.5 * y_tilde @ problem.C @ y_tilde + problem.c @ y_tilde)


def default_theta_mode(validated: ValidatedProblem) -> ThetaMode:
    if validated.problem.min_eig_lower_bound is not None:
        return ThetaMode.USER_ALPHA
    if validated.nullspace.dim >= 1 and validated.n <= EXACT_Z_MAX_N:
        return ThetaMode.EXACT_Z
    return ThetaMode.NORM_RELAXED


def compute_theta(
    validated: ValidatedProblem,
    margin: float = 0.1,
    mode: Optional[ThetaMode] = None,
    theta_floor: float = 1.0,
) -> ThetaReport:
    """Choose the embedding parameter.

    theta = (1 + margin) * max(2|theta_star|, pd_bound_rhs, theta_floor),
    where pd_bound_rhs is the selected positive-definiteness bound evaluated
    with the minimum-norm particular solution d of Ed = f.  With an empty
    null space (m = n) the reduced Hessian is the single entry
    theta + d'Cd + 2c'd, so the bound degenerates to -d'Cd - 2c'd.
    The floor keeps theta strictly positive.
    """
    if margin <= 0.0:
        raise ValueError(f"margin must be positive, got {margin}")
    if theta_floor <= 0.0:
        raise ValueError(f"theta_floor must be positive, got {theta_floor}")
    problem = validated.problem
    if mode is None:
        mode = default_theta_mode(validated)
    mode = ThetaMode(mode)

    theta_star = compute_theta_star(validated)
    d = linsys.min_norm_particular(problem.E, problem.f)
    dCd = float(d @ problem.C @ d)
    cd = float(problem.c @ d)
    if validated.nullspace.dim == 0:
        pd_bound_rhs = -dCd - 2.0 * cd
    else:
        grad = problem.C @ d + problem.c
        if mode is ThetaMode.EXACT_Z:
            numerator = float(np.sum((validated.Z.T @ grad) ** 2))
            denominator = validated.lambda_min
        elif mode is ThetaMode.NORM_RELAXED:
            numerator = float(grad @ grad)
            denominator = validated.lambda_min
        else:
            alpha = problem.min_eig_lower_bound
            if alpha is None or alpha <= 0.0:
                raise NonPositiveAlpha(
                    "user_alpha mode needs a positive eigenvalue lower bound"
                )
            numerator = float(grad @ grad)
            denominator = alpha
        pd_bound_rhs = numerator / denominator - dCd - 2.0 * cd

    condition1_rhs = 2.0 * abs(theta_star)
    theta = (1.0 + margin) * max(condition1_rhs, pd_bound_rhs, theta_floor)
    return ThetaReport(
        theta_star=theta_star,
        bound_used=mode,
        pd_bound_rhs=float(pd_bound_rhs),
        condition1_rhs=condition1_rhs,
        theta=float(theta),
        margin=margin,
    )


def lifted_nullspace_basis(validated: ValidatedProblem) -> np.ndarray:
    """Basis [[Z, d], [0, 1]] of the null space of [E, -f].

    Z is the cached orthonormal basis of null(E) and d the minimum-norm
    particular solution of Ed = f; the block column (d, 1) accounts for the
    scaling variable.  Full column rank because d is orthogonal to range(Z).
    """
    problem = validated.problem
    d = linsys.min_norm_particular(problem.E, problem.f)
    k = validated.nullspace.dim
    Zhat = np.zeros((validated.n + 1, k + 1))
    Zhat[: validated.n, :k] = validated.Z
    Zhat[: validated.n, k] = d
    Zhat[validated.n, k] = 1.0
    return Zhat


def check_reduced_hessian_pd(validated: ValidatedProblem, theta: float) -> float:
    """Smallest eigenvalue of the lifted Hessian reduced onto null([E, -f]).

    Positive for any theta produced by :func:`compute_theta`; a
    nonpositive value is the witness that theta is too small.
    """
    problem = validated.problem
    Zhat = lifted_nullspace_basis(validated)
    Q = _lifted_matrices(problem, theta)[0]
    M = Zhat.T @ Q @ Zhat
    M = 0.5 * (M + M.T)
    return float(np.linalg.eigvalsh(M)[0])


def _lifted_matrices(problem, theta: float):
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


def embed(validated: ValidatedProblem, theta_report: ThetaReport) -> HqpProblem:
    """Build the lifted standard-form program for a chosen theta."""
    Q, q, A = _lifted_matrices(validated.problem, theta_report.theta)
    return HqpProblem(Q=Q, q=q, A=A, theta_report=theta_report, parent=validated)


def manual_theta_report(validated: ValidatedProblem, theta: float) -> ThetaReport:
    """Wrap a user-supplied theta, refusing values that break convexity.

    The reduced positive-definiteness check is always run; the magnitude
    condition against theta_star is reported but not enforced, since a
    nonconvex lift is the only hard failure mode.
    """
    if theta <= 0.0:
        raise NotReducedPd(f"theta must be positive, got {theta}")
    lam = check_reduced_hessian_pd(validated, theta)
    if lam <= 0.0:
        raise NotReducedPd(
            f"supplied theta {theta} leaves the reduced Hessian indefinite "
            f"(smallest eigenvalue {lam:.3e})"
        )
    return ThetaReport(
        theta_star=compute_theta_star(validated),
        bound_used=None,
        pd_bound_rhs=float("nan"),
        condition1_rhs=float("nan"),
        theta=float(theta),
        margin=0.0,
        override=True,
    )


class SolveStatus(str, enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration_limit"


@dataclass
class RecoveryReport:
    """Residual evidence for both recovery routes.

    Both the rescaled optimal point and the certificate are always
    evaluated; classification picks whichever meets tolerance, preferring
    the smaller scaled violation when both do.
    """

    tau_hat: float
    omega_hat: float
    kkt: Optional[KktResiduals]
    kkt_scaled: float
    certificate: CertificateResiduals
    certificate_scaled: float
    tol: float

    def as_dict(self) -> dict:
        out = {
            "tau_hat": self.tau_hat,
            "omega_hat": self.omega_hat,
            "kkt_scaled": self.kkt_scaled if np.isfinite(self.kkt_scaled) else None,
            "certificate_scaled": self.certificate_scaled,
            "tol": self.tol,
            "certificate": {
                "r1_inf": float(np.linalg.norm(self.certificate.r1, np.inf))
                if self.certificate.r1.size
                else 0.0,
                "r2": self.certificate.r2,
                "r3": self.certificate.r3,
            },
        }
        if self.kkt is not None:
            out["kkt"] = {
                "stat_inf": float(np.linalg.norm(self.kkt.r_stat, np.inf)),
                "eq_inf": float(np.linalg.norm(self.kkt.r_eq, np.inf))
                if self.kkt.r_eq.size
                else 0.0,
                "comp": self.kkt.r_comp,
                "comp_min_inf": float(np.max(np.abs(self.kkt.comp_min)))
                if self.kkt.comp_min.size
                else 0.0,
                "nonneg": self.kkt.r_nonneg,
            }
        return out


@dataclass
class SolveOutcome:
    """Tagged solve result.

    Exactly one payload is populated: (y, nu, xi) for an optimum,
    (cert_nu, cert_xi) for an infeasibility certificate, neither when the
    iteration limit was hit.  ``diagnostics`` carries run statistics.
    """

    status: SolveStatus
    y: Optional[np.ndarray] = None
    nu: Optional[np.ndarray] = None
    xi: Optional[np.ndarray] = None
    cert_nu: Optional[np.ndarray] = None
    cert_xi: Optional[np.ndarray] = None
    recovery: Optional[RecoveryReport] = None
    diagnostics: dict = field(default_factory=dict)


def recover(
    hqp: HqpProblem,
    x_hat: np.ndarray,
    lam_hat: np.ndarray,
    s_hat: np.ndarray,
    tol_recover: float = 1e-6,
    tau_hint: float = 1e-4,
) -> SolveOutcome:
    """Classify a converged lifted iterate as a QP optimum or a certificate.

    Splits x into (y_hat, tau_hat) and s into (xi_hat, omega_hat).  The
    optimal-point route rescales by tau_hat, the certificate route by
    theta + omega_hat; both are scored by their worst residual relative to
    1 + data and point magnitudes, and whichever meets ``tol_recover``
    wins (the smaller score on a tie, with ``tau_hint`` as the tie-break
    between numerically identical scores).  Raises AmbiguousStatus when
    neither route meets tolerance.
    """
    problem = hqp.parent.problem
    n = problem.n
    x_hat = np.asarray(x_hat, dtype=float)
    lam_hat = np.asarray(lam_hat, dtype=float)
    s_hat = np.asarray(s_hat, dtype=float)
    y_hat, tau_hat = x_hat[:n], float(x_hat[n])
    xi_hat, omega_hat = s_hat[:n], float(s_hat[n])
    nu_hat = lam_hat

    data_scale = 1.0 + max(problem.data_scale(), hqp.theta)

    kkt = None
    kkt_scaled = np.inf
    point = None
    if tau_hat > 0.0:
        point = QpKktPoint(y=y_hat / tau_hat, nu=nu_hat / tau_hat, xi=xi_hat / tau_hat)
        kkt = qp_kkt_residuals(problem, point)
        kkt_scaled = kkt.max_violation() / data_scale

    denom = hqp.theta + omega_hat
    cert = InfeasCertificate(nu=nu_hat / denom, xi=xi_hat / denom)
    cert_res = check_certificate(problem, cert)
    cert_scaled = cert_res.max_violation() / data_scale

    report = RecoveryReport(
        tau_hat=tau_hat,
        omega_hat=omega_hat,
        kkt=kkt,
        kkt_scaled=float(kkt_scaled),
        certificate=cert_res,
        certificate_scaled=float(cert_scaled),
        tol=tol_recover,
    )

    kkt_ok = kkt_scaled <= tol_recover
    cert_ok = cert_scaled <= tol_recover
    if kkt_ok and cert_ok:
        if kkt_scaled == cert_scaled:
            choose_optimal = tau_hat > tau_hint
        else:
            choose_optimal = kkt_scaled < cert_scaled
    elif kkt_ok:
        choose_optimal = True
    elif cert_ok:
        choose_optimal = False
    else:
        raise AmbiguousStatus(
            f"neither recovery met tolerance {tol_recover:.1e} "
            f"(optimal route {kkt_scaled:.3e}, certificate route {cert_scaled:.3e}); "
            f"a smaller tol_mu sharpens recovery",
            report=report,
        )

    if choose_optimal:
        return SolveOutcome(
            status=SolveStatus.OPTIMAL,
            y=point.y,
            nu=point.nu,
            xi=point.xi,
            recovery=report,
        )
    return SolveOutcome(
        status=SolveStatus.INFEASIBLE,
        cert_nu=cert.nu,
        cert_xi=cert.xi,
        recovery=report,
    )
