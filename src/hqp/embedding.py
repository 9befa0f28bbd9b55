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
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Optional

import numpy as np

from . import linsys
from .errors import AmbiguousStatus, NotReducedPd
from .qp import (
    CertificateResiduals,
    InfeasCertificate,
    KktResiduals,
    QpKktPoint,
    ValidatedProblem,
    check_certificate,
    qp_kkt_residuals,
)

# Multiplicative safety margin on theta, and the floor that keeps it
# positive.
THETA_MARGIN = 0.1
THETA_FLOOR = 1.0
# The worst residual, relative to 1 + max(data scale, theta), at which a
# recovery route is certified.
RECOVER_TOL = 1e-6
# Relative duality gap |y'xi| / (1 + |objective|) the optimal route must
# meet on top of its scaled residuals: a tenth of RECOVER_TOL.  At the
# optimum tau = theta / (2 p* + theta), so a theta near 2|theta_star|
# makes tau small, and rescaling by tau multiplies the lifted gap by
# 1/tau^2.
GAP_RTOL = 1e-7


def record_dict(record) -> dict:
    """The fields of a dataclass record in declaration order, with a
    non-finite float as None so the JSON document stays strict.  Unlike
    dataclasses.asdict, nothing is copied."""
    out = {}
    for f in fields(record):
        v = getattr(record, f.name)
        out[f.name] = None if isinstance(v, float) and not np.isfinite(v) else v
    return out


@dataclass(frozen=True)
class ThetaReport:
    """How the embedding parameter was chosen.

    theta must exceed twice the magnitude of the equality-relaxed optimal
    value theta_star (condition1_rhs); the final value carries a
    multiplicative safety margin.
    """

    theta_star: float
    condition1_rhs: float
    theta: float
    margin: float
    override: bool = False

    def as_dict(self) -> dict:
        return record_dict(self)


@dataclass(frozen=True)
class HqpProblem:
    """The embedded program in standard form over x = (y, tau).

    The lifted Hessian Q = [[C, c], [c', theta]] is never formed: it is
    applied (:meth:`apply_hessian`), normed and split from C, c and theta.
    """

    q: np.ndarray
    A: np.ndarray
    theta_report: ThetaReport
    parent: ValidatedProblem

    def __post_init__(self):
        for a in (self.q, self.A):
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
        return self.n + 1

    @property
    def theta(self) -> float:
        return self.theta_report.theta

    def apply_hessian(self, x: np.ndarray) -> np.ndarray:
        """Q x = (C y + tau c, c'y + theta tau) for x = (y, tau)."""
        problem = self.parent.problem
        y, tau = x[:-1], x[-1]
        out = np.empty_like(x)
        out[:-1] = problem.apply_C(y) + tau * problem.c
        out[-1] = problem.c @ y + self.theta * tau
        return out

    @cached_property
    def hessian_norm(self) -> float:
        """||Q||_inf, from C's absolute row sums, c and theta."""
        problem = self.parent.problem
        c_abs = np.abs(problem.c)
        top = (problem.row_abs_sums + c_abs).max(initial=0.0)
        return float(max(top, c_abs.sum() + abs(self.theta)))

    @cached_property
    def newton_data_norm(self) -> float:
        """:func:`linsys.newton_data_norm` of (Q, A), shared by every Newton step."""
        return linsys.newton_data_norm(self.hessian_norm, self.A)

    @cached_property
    def newton_split(self) -> linsys.DiagonalSplit:
        """The Newton matrix split for :func:`linsys.solve_newton_system`.

        Variable y_i is divided out when row i of C has no off-diagonal
        nonzero and C_ii >= 0, so its pivot C_ii + s_i/x_i is positive;
        tau, the border (c, theta) of C, and the equality rows always stay
        in the factored block.
        """
        problem = self.parent.problem
        divide = problem.diagonal_rows & (np.diagonal(problem.C) >= 0.0)
        return linsys.split_diagonal(
            problem.C, self.A, divide, border=(problem.c, self.theta)
        )

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.apply_hessian(x) + self.q @ x)


def compute_theta(validated: ValidatedProblem, theta: Optional[float] = None) -> ThetaReport:
    """Choose the embedding parameter, or check a user-supplied one.

    Without ``theta``: theta = (1 + THETA_MARGIN) * max(2|theta_star|,
    THETA_FLOOR).  On null([E, -f]) at tau = 1 the lifted quadratic form is
    y'Cy + 2c'y + theta with Ey = f, whose minimum over y is theta + 2
    theta_star, and C is positive definite on null(E) after validation; so
    the lifted Hessian is positive definite there exactly when theta > -2
    theta_star, which 2|theta_star| already bounds.  The floor keeps theta
    strictly positive.

    A supplied ``theta`` must be positive and finite and pass that exact
    convexity test, or NotReducedPd is raised; the magnitude condition
    theta > 2|theta_star| is not enforced, since a nonconvex lift is the
    only hard failure mode.
    """
    theta_star = validated.theta_star
    if theta is None:
        condition1_rhs = 2.0 * abs(theta_star)
        theta = (1.0 + THETA_MARGIN) * max(condition1_rhs, THETA_FLOOR)
        return ThetaReport(
            theta_star=theta_star,
            condition1_rhs=condition1_rhs,
            theta=float(theta),
            margin=THETA_MARGIN,
        )
    if not 0.0 < theta < math.inf:
        raise NotReducedPd(f"theta must be positive and finite, got {theta}")
    if theta <= -2.0 * theta_star:
        raise NotReducedPd(
            f"supplied theta {theta} leaves the reduced Hessian indefinite "
            f"(needs theta > -2 theta_star = {-2.0 * theta_star:.6e})"
        )
    return ThetaReport(
        theta_star=theta_star,
        condition1_rhs=float("nan"),
        theta=float(theta),
        margin=0.0,
        override=True,
    )


def embed(validated: ValidatedProblem, theta_report: ThetaReport) -> HqpProblem:
    """Build the lifted standard-form program for a chosen theta:
    q = (0, -theta) and A = [E, -f]."""
    problem = validated.problem
    q = np.zeros(problem.n + 1)
    q[-1] = -theta_report.theta
    A = np.hstack([problem.E, -problem.f[:, None]])
    return HqpProblem(q=q, A=A, theta_report=theta_report, parent=validated)


class SolveStatus(str, enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration_limit"


@dataclass
class RecoveryReport:
    """Residual evidence for both recovery routes.

    Both the rescaled optimal point and the certificate are always
    evaluated; classification picks whichever meets tolerance, preferring
    the smaller scaled violation when both do.  ``gap`` is the optimal
    route's relative duality gap (inf without a point).
    """

    tau_hat: float
    omega_hat: float
    kkt: Optional[KktResiduals]
    kkt_scaled: float
    gap: float
    certificate: CertificateResiduals
    certificate_scaled: float
    tol: float

    def as_dict(self) -> dict:
        out = {
            "tau_hat": self.tau_hat,
            "omega_hat": self.omega_hat,
            "kkt_scaled": self.kkt_scaled if np.isfinite(self.kkt_scaled) else None,
            "gap": self.gap if np.isfinite(self.gap) else None,
            "certificate_scaled": self.certificate_scaled,
            "tol": self.tol,
            "certificate": self.certificate.norms(),
        }
        if self.kkt is not None:
            out["kkt"] = self.kkt.norms()
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
    hqp: HqpProblem, x_hat: np.ndarray, lam_hat: np.ndarray, s_hat: np.ndarray
) -> SolveOutcome:
    """Classify a converged lifted iterate as a QP optimum or a certificate.

    Splits x into (y_hat, tau_hat) and s into (xi_hat, omega_hat).  The
    optimal-point route rescales by tau_hat, the certificate route by
    theta + omega_hat; both are scored by their worst residual relative to
    1 + max(data scale, theta), and whichever meets RECOVER_TOL wins.
    When both do, the smaller score wins, and an exact tie goes to the
    optimal route.  The optimal route must also bring its
    relative duality gap |y'xi| / (1 + |0.5 y'Cy + c'y|) to GAP_RTOL.
    Raises AmbiguousStatus when neither route meets tolerance.
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
    gap = np.inf
    point = None
    if tau_hat > 0.0:
        point = QpKktPoint(y=y_hat / tau_hat, nu=nu_hat / tau_hat, xi=xi_hat / tau_hat)
        kkt = qp_kkt_residuals(problem, point)
        kkt_scaled = kkt.max_violation() / data_scale
        gap = kkt.r_comp / (1.0 + abs(problem.objective(point.y)))

    denom = hqp.theta + omega_hat
    cert = InfeasCertificate(nu=nu_hat / denom, xi=xi_hat / denom)
    cert_res = check_certificate(problem, cert)
    cert_scaled = cert_res.max_violation() / data_scale

    report = RecoveryReport(
        tau_hat=tau_hat,
        omega_hat=omega_hat,
        kkt=kkt,
        kkt_scaled=float(kkt_scaled),
        gap=float(gap),
        certificate=cert_res,
        certificate_scaled=float(cert_scaled),
        tol=RECOVER_TOL,
    )

    kkt_ok = kkt_scaled <= RECOVER_TOL and gap <= GAP_RTOL
    cert_ok = cert_scaled <= RECOVER_TOL
    if not (kkt_ok or cert_ok):
        raise AmbiguousStatus(
            f"neither recovery met tolerance {RECOVER_TOL:.1e} "
            f"(optimal route {kkt_scaled:.3e} with gap {gap:.3e}, "
            f"certificate route {cert_scaled:.3e})",
            report=report,
        )

    if kkt_ok and (not cert_ok or kkt_scaled <= cert_scaled):
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
