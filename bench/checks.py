"""Correctness checks made from the problem data alone.

Nothing here calls into ``hqp``: every verdict comes from numpy, a closed
form, or ``scipy.optimize.linprog``, so a solver fault cannot also hide in
the check that is meant to catch it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.optimize

# Relative tolerance on KKT and certificate residuals, scaled by
# 1 + data scale, as `hqp check` does.
RESIDUAL_TOL = 1e-6
# Largest distance between a feasible_sv solution and the closed-form
# optimum, relative to the optimum's largest entry.  At the default tol_mu
# the distance is up to 1e-3 of it (n = 10 to 1000): it is the size of the
# complementarity residual, which the KKT check bounds tightly.  This check
# catches an answer that satisfies the residuals yet is the wrong point.
CLOSED_FORM_RTOL = 1e-2
# Relative agreement required between the optimal values of an instance
# and its column-scaled twin.
TWIN_VALUE_TOL = 1e-6


class CheckFailed(Exception):
    """A solver output contradicts the problem data."""


def data_scale(C, c, E, f) -> float:
    """Infinity-norm scale of the data, used to relativize tolerances."""
    parts = [np.abs(C).sum(axis=1).max(), np.abs(c).max()]
    if E.shape[0]:
        parts += [np.abs(E).sum(axis=1).max(), np.abs(f).max()]
    return float(max(parts))


def kkt_violation(C, c, E, f, y, nu, xi) -> float:
    """Worst residual of stationarity Cy + c + E'nu - xi = 0, Ey = f,
    complementarity min(y, xi) = 0 and the sign conditions y, xi >= 0."""
    parts = [
        np.abs(C @ y + c + E.T @ nu - xi).max(),
        np.abs(np.minimum(y, xi)).max(),
        max(0.0, -y.min(), -xi.min()),
    ]
    if E.shape[0]:
        parts.append(np.abs(E @ y - f).max())
    return float(max(parts))


def certificate_violation(E, f, nu, xi) -> float:
    """Worst residual of the Farkas certificate E'nu = xi >= 0, f'nu = -1."""
    return float(
        max(np.abs(E.T @ nu - xi).max(), abs(f @ nu + 1.0), max(0.0, -xi.min()))
    )


def feasible_sv_optimum(e: np.ndarray) -> tuple[np.ndarray, float]:
    """Optimum of min 0.5|y|^2 + 1'y s.t. e'y = 1, y >= 0, for e > 0.

    Stationarity gives y_i = max(0, -(1 + nu e_i)) with nu < 0 the root of
    the decreasing piecewise-linear sum e'y(nu) = 1.  The support is the k
    largest entries of e, so nu = -(1 + S1_k) / S2_k with S1_k and S2_k the
    sums of those entries and of their squares; the right k is the one
    whose breakpoint -1/nu lies between the k-th and (k+1)-th largest.
    """
    e = np.asarray(e, dtype=float)
    if np.any(e <= 0.0):
        raise ValueError("closed form needs a strictly positive row")
    desc = np.sort(e)[::-1]
    s1 = np.cumsum(desc)
    s2 = np.cumsum(desc**2)
    cut = s2 / (1.0 + s1)  # -1/nu for each support size k = 1..n
    below = np.append(desc[1:], 0.0)
    k = int(np.flatnonzero((cut < desc) & (cut >= below))[0])
    nu = -(1.0 + s1[k]) / s2[k]
    return np.maximum(0.0, -(1.0 + nu * e)), float(nu)


def lp_feasible(E: np.ndarray, f: np.ndarray) -> bool:
    """Whether {y >= 0 : Ey = f} is nonempty, decided by HiGHS."""
    n = E.shape[1]
    res = scipy.optimize.linprog(
        np.zeros(n), A_eq=E, b_eq=f, bounds=[(0.0, None)] * n, method="highs"
    )
    if res.status not in (0, 2):
        raise CheckFailed(f"linprog could not decide feasibility: {res.message}")
    return res.status == 0


@dataclass(frozen=True)
class Reference:
    """What a correct answer to one instance must satisfy.

    ``feasible`` is known before any solve: by construction for the sv
    families, from linprog for random_spd.  ``y_star`` is the closed-form
    optimum where one exists.
    """

    C: np.ndarray
    c: np.ndarray
    E: np.ndarray
    f: np.ndarray
    feasible: bool
    y_star: Optional[np.ndarray] = None

    @property
    def tol(self) -> float:
        return RESIDUAL_TOL * (1.0 + data_scale(self.C, self.c, self.E, self.f))

    def verify(self, answer: dict) -> Optional[float]:
        """Check one solver answer; return the objective value when optimal.

        ``answer`` holds the status and, as arrays, y, nu, xi for an
        optimum or cert_nu, cert_xi for a certificate.  Raises CheckFailed
        on any mismatch.
        """
        status = answer["status"]
        expected = "optimal" if self.feasible else "infeasible"
        if status != expected:
            raise CheckFailed(f"status {status!r}, expected {expected!r}")
        if status == "infeasible":
            worst = certificate_violation(self.E, self.f, answer["cert_nu"], answer["cert_xi"])
            if worst > self.tol:
                raise CheckFailed(f"certificate residual {worst:.3e} > {self.tol:.3e}")
            return None
        y = answer["y"]
        worst = kkt_violation(self.C, self.c, self.E, self.f, y, answer["nu"], answer["xi"])
        if worst > self.tol:
            raise CheckFailed(f"KKT residual {worst:.3e} > {self.tol:.3e}")
        if self.y_star is not None:
            gap = float(np.abs(y - self.y_star).max())
            if gap > CLOSED_FORM_RTOL * np.abs(self.y_star).max():
                raise CheckFailed(f"y differs from the closed form by {gap:.3e}")
        return float(0.5 * y @ self.C @ y + self.c @ y)


def sv_reference(C, c, E, f) -> Reference:
    """Reference for the sv families: identity Hessian, all-ones cost and
    one positive row.  f = -1 is infeasible (a positive row cannot reach a
    negative value on y >= 0); f = +1 has the closed-form optimum."""
    n = c.size
    if not (np.array_equal(C, np.eye(n)) and np.array_equal(c, np.ones(n))
            and E.shape == (1, n) and np.all(E > 0.0) and abs(f[0]) == 1.0):
        raise ValueError("not an sv-family instance")
    if f[0] < 0.0:
        return Reference(C, c, E, f, feasible=False)
    return Reference(C, c, E, f, feasible=True, y_star=feasible_sv_optimum(E[0])[0])


def spd_reference(C, c, E, f) -> Reference:
    return Reference(C, c, E, f, feasible=lp_feasible(E, f))


def check_twin_values(value: float, twin_value: float) -> None:
    """Column scaling y = D y' leaves the optimal value unchanged."""
    gap = abs(value - twin_value)
    if gap > TWIN_VALUE_TOL * (1.0 + abs(value)):
        raise CheckFailed(
            f"optimal value {twin_value:.12g} of the column-scaled twin differs "
            f"from {value:.12g} by {gap:.3e}"
        )
