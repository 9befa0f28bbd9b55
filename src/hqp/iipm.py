"""Long-step infeasible interior-point method for the lifted program.

Iterates (x, lambda, s) keep x and s strictly positive but are allowed to
violate the linear equations; the violation shrinks by the factor
(1 - alpha) at every step, by linearity of the residuals and the choice of
right-hand side.  Steps are confined to the wide neighborhood that bounds
the residual-to-mu ratio by its initial value (times beta) and keeps every
complementarity product above gamma times the average.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import linsys
from .embedding import HqpProblem, SolveOutcome, SolveStatus, recover
from .errors import AmbiguousStatus, SingularNewton, StepSearchFailed

# CSV columns of the per-iteration log (the record carries extra fields,
# serialized only in JSON output).
LOG_CSV_COLUMNS = ("k", "mu", "rd_norm", "rp_norm", "alpha", "sigma", "nbhd_ratio", "upsilon")


@dataclass
class IipmConfig:
    """Algorithm parameters.

    gamma in (0,1) and beta >= 1 shape the neighborhood; the centering
    weight sigma is constant per run and clamped to [sigma_min, sigma_max]
    with sigma_max <= 1/2.  zeta scales the all-ones initial iterate; None
    selects max(10, ||c||_inf, ||f||_inf, theta).  Termination needs
    mu <= tol_mu and the residual norm below tol_res relative to its
    initial size.  Step search backtracks geometrically from the damped
    positivity boundary.
    """

    gamma: float = 1e-3
    beta: float = 2.0
    sigma: float = 0.3
    sigma_min: float = 0.05
    sigma_max: float = 0.5
    zeta: Optional[float] = None
    tol_mu: float = 1e-8
    tol_res: float = 1e-8
    max_iter: int = 200
    step_backtrack: float = 0.8
    step_trials: int = 60
    direction_diagnostics: bool = False

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.beta < 1.0:
            raise ValueError(f"beta must be at least 1, got {self.beta}")
        if not 0.0 < self.sigma_min < self.sigma_max <= 0.5:
            raise ValueError(
                f"need 0 < sigma_min < sigma_max <= 1/2, got "
                f"[{self.sigma_min}, {self.sigma_max}]"
            )
        if self.zeta is not None and self.zeta <= 0.0:
            raise ValueError(f"zeta must be positive, got {self.zeta}")
        if self.tol_mu <= 0.0 or self.tol_res <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not 0.0 < self.step_backtrack < 1.0:
            raise ValueError(
                f"step_backtrack must lie in (0, 1), got {self.step_backtrack}"
            )
        if self.step_trials < 1:
            raise ValueError(f"step_trials must be at least 1, got {self.step_trials}")

    def clamped_sigma(self) -> float:
        return float(min(max(self.sigma, self.sigma_min), self.sigma_max))

    def as_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "beta": self.beta,
            "sigma": self.sigma,
            "sigma_min": self.sigma_min,
            "sigma_max": self.sigma_max,
            "zeta": self.zeta,
            "tol_mu": self.tol_mu,
            "tol_res": self.tol_res,
            "max_iter": self.max_iter,
            "step_backtrack": self.step_backtrack,
            "step_trials": self.step_trials,
        }


def residuals(hqp: HqpProblem, x, lam, s):
    """Dual and primal residuals plus the centrality parameter.

    r_d = Qx + q + A'lam - s (the constant term belongs in the dual
    residual; dropping it would steer the method to the wrong point),
    r_p = Ax, mu = x's / dim.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    s = np.asarray(s, dtype=float)
    r_d = hqp.Q @ x + hqp.q + hqp.A.T @ lam - s
    r_p = hqp.A @ x
    mu = float(x @ s / x.size)
    return r_d, r_p, mu


@dataclass(frozen=True)
class IipmIterate:
    """Strictly positive primal-dual point with cached residuals."""

    x: np.ndarray
    lam: np.ndarray
    s: np.ndarray
    r_d: np.ndarray
    r_p: np.ndarray
    mu: float

    @classmethod
    def compute(cls, hqp: HqpProblem, x, lam, s) -> "IipmIterate":
        x = np.asarray(x, dtype=float)
        lam = np.asarray(lam, dtype=float)
        s = np.asarray(s, dtype=float)
        if np.any(x <= 0.0) or np.any(s <= 0.0):
            raise ValueError("iterate must keep x and s strictly positive")
        r_d, r_p, mu = residuals(hqp, x, lam, s)
        return cls(x=x, lam=lam, s=s, r_d=r_d, r_p=r_p, mu=mu)

    def residual_norm(self) -> float:
        """Euclidean norm of the stacked (r_d, r_p)."""
        return float(np.sqrt(self.r_d @ self.r_d + self.r_p @ self.r_p))

    def residual_norm_inf(self) -> float:
        rd = np.linalg.norm(self.r_d, np.inf) if self.r_d.size else 0.0
        rp = np.linalg.norm(self.r_p, np.inf) if self.r_p.size else 0.0
        return float(max(rd, rp))


class NeighborhoodCheck(NamedTuple):
    ok: bool
    residual_ratio: float   # (||r|| / mu) / (||r0|| / mu0); must stay <= beta
    centrality: float       # min_i x_i s_i / mu; must stay >= gamma


def in_neighborhood(
    iterate: IipmIterate, config: IipmConfig, r0_norm: float, mu0: float
) -> NeighborhoodCheck:
    """Wide-neighborhood membership test with the two slack quantities."""
    xs = iterate.x * iterate.s
    centrality = float(xs.min() / iterate.mu)
    norm_r = iterate.residual_norm()
    if r0_norm > 0.0:
        ratio = (norm_r / iterate.mu) / (r0_norm / mu0)
    else:
        ratio = np.inf if norm_r > 0.0 else 0.0
    # Roundoff floor so an exactly-feasible start is not rejected for
    # residuals at machine-noise level.
    ok_res = norm_r <= config.beta * (r0_norm / mu0) * iterate.mu + 1e-14 * (1.0 + r0_norm)
    positive = bool(np.all(iterate.x > 0.0) and np.all(iterate.s > 0.0))
    ok = positive and ok_res and centrality >= config.gamma
    return NeighborhoodCheck(ok=ok, residual_ratio=float(ratio), centrality=centrality)


@dataclass(frozen=True)
class NewtonDirection:
    dx: np.ndarray
    dlam: np.ndarray
    ds: np.ndarray
    rel_residual: float


def newton_direction(
    hqp: HqpProblem, iterate: IipmIterate, sigma: float
) -> NewtonDirection:
    """Centering-corrected Newton direction at the current iterate.

    Right-hand side (-r_d, -r_p, -Xs + sigma mu e); the solve guarantees a
    backward error of at most linsys.SOLVE_RTOL, recorded for the
    iteration log.
    """
    x, s = iterate.x, iterate.s
    rhs = np.concatenate(
        [-iterate.r_d, -iterate.r_p, -x * s + sigma * iterate.mu * np.ones_like(x)]
    )
    dx, dlam, ds, rel = linsys.solve_newton_system(
        hqp.Q, hqp.A, x, s, rhs, hqp.newton_data_norm
    )
    return NewtonDirection(dx=dx, dlam=dlam, ds=ds, rel_residual=rel)


def positivity_boundary(x, s, dx, ds) -> float:
    """Exact ratio test: sup { alpha : (x, s) + alpha (dx, ds) > 0 }."""
    bound = np.inf
    for v, dv in ((x, dx), (s, ds)):
        neg = dv < 0.0
        if np.any(neg):
            bound = min(bound, float(np.min(v[neg] / -dv[neg])))
    return bound


def step_length(
    hqp: HqpProblem,
    iterate: IipmIterate,
    direction: NewtonDirection,
    config: IipmConfig,
    r0_norm: float,
    mu0: float,
) -> float:
    """Backtracking step search.

    Trials start at min(1, 0.995 * positivity boundary) and shrink
    geometrically; a trial is accepted when the trial point stays in the
    neighborhood and mu decreases by at least the 1% of alpha fraction.
    """
    bound = positivity_boundary(iterate.x, iterate.s, direction.dx, direction.ds)
    trial0 = min(1.0, 0.995 * bound)
    if trial0 <= 0.0:
        raise StepSearchFailed("positivity boundary collapsed to zero")
    for j in range(config.step_trials):
        alpha = trial0 * config.step_backtrack**j
        x_new = iterate.x + alpha * direction.dx
        s_new = iterate.s + alpha * direction.ds
        if np.any(x_new <= 0.0) or np.any(s_new <= 0.0):
            continue
        candidate = IipmIterate.compute(
            hqp, x_new, iterate.lam + alpha * direction.dlam, s_new
        )
        nbhd = in_neighborhood(candidate, config, r0_norm, mu0)
        if nbhd.ok and candidate.mu <= (1.0 - 0.01 * alpha) * iterate.mu:
            return alpha
    raise StepSearchFailed(
        f"no acceptable step among {config.step_trials} trials "
        f"(boundary {bound:.3e}, mu {iterate.mu:.3e})"
    )


@dataclass
class IterationRecord:
    """One row of the run log.

    alpha and sigma describe the step chosen *at* this iterate (NaN on the
    terminal row); upsilon is the accumulated product of (1 - alpha) up to
    this iterate, which must track the residual contraction exactly.
    """

    k: int
    mu: float
    rd_norm: float
    rp_norm: float
    alpha: float
    sigma: float
    nbhd_ratio: float
    upsilon: float
    centrality: float
    decay_rel_err: float
    decay_abs_err: float
    newton_rel_resid: float
    xs_norm1: float
    iterate_scale: float
    scaled_dx_norm: Optional[float] = None
    scaled_ds_norm: Optional[float] = None

    def as_dict(self) -> dict:
        out = {
            "k": self.k,
            "mu": self.mu,
            "rd_norm": self.rd_norm,
            "rp_norm": self.rp_norm,
            "alpha": self.alpha,
            "sigma": self.sigma,
            "nbhd_ratio": self.nbhd_ratio,
            "upsilon": self.upsilon,
            "centrality": self.centrality,
            "decay_rel_err": self.decay_rel_err,
            "decay_abs_err": self.decay_abs_err,
            "newton_rel_resid": self.newton_rel_resid,
            "xs_norm1": self.xs_norm1,
            "iterate_scale": self.iterate_scale,
        }
        if self.scaled_dx_norm is not None:
            out["scaled_dx_norm"] = self.scaled_dx_norm
            out["scaled_ds_norm"] = self.scaled_ds_norm
        # None for non-finite entries keeps the JSON document strict.
        return {
            k: (None if isinstance(v, float) and not np.isfinite(v) else v)
            for k, v in out.items()
        }


@dataclass
class IterationLog:
    """Append-only per-iteration records for reproduction and diagnostics."""

    rows: list = field(default_factory=list)

    def append(self, record: IterationRecord) -> None:
        self.rows.append(record)

    def __len__(self) -> int:
        return len(self.rows)

    def as_dicts(self) -> list:
        return [r.as_dict() for r in self.rows]

    def to_csv(self, target) -> None:
        """Write the documented CSV columns to a path or file object."""
        if hasattr(target, "write"):
            self._write_csv(target)
        else:
            with open(target, "w", newline="") as fh:
                self._write_csv(fh)

    def _write_csv(self, fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(LOG_CSV_COLUMNS)
        for r in self.rows:
            writer.writerow([getattr(r, col) for col in LOG_CSV_COLUMNS])

    def csv_text(self) -> str:
        buf = io.StringIO()
        self._write_csv(buf)
        return buf.getvalue()


def automatic_zeta(hqp: HqpProblem) -> float:
    """Data-scaled radius for the all-ones start: max(10, ||c||, ||f||, theta)."""
    problem = hqp.parent.problem
    parts = [10.0, hqp.theta]
    if problem.n:
        parts.append(np.linalg.norm(problem.c, np.inf))
    if problem.m:
        parts.append(np.linalg.norm(problem.f, np.inf))
    return float(max(parts))


def solve(
    hqp: HqpProblem, config: Optional[IipmConfig] = None
) -> tuple[SolveOutcome, IterationLog]:
    """Run the interior-point iteration from the all-ones start.

    Terminates successfully when mu <= tol_mu and the residual norm has
    dropped below tol_res relative to its initial size, then classifies the
    final iterate through :func:`embedding.recover`.  Returns an
    iteration-limit outcome after max_iter steps.  Numerical failures
    (singular Newton systems, failed step searches) are raised with the
    partial log attached.
    """
    config = config or IipmConfig()
    zeta = config.zeta if config.zeta is not None else automatic_zeta(hqp)
    N = hqp.dim
    ones = np.ones(N)
    iterate = IipmIterate.compute(hqp, zeta * ones, np.zeros(hqp.A.shape[0]), zeta * ones)
    r0_norm = iterate.residual_norm()
    mu0 = iterate.mu
    sigma = config.clamped_sigma()
    log = IterationLog()

    nbhd = in_neighborhood(iterate, config, r0_norm, mu0)
    upsilon = 1.0
    decay_err = float("nan")
    decay_abs = float("nan")

    def terminal(it: IipmIterate) -> bool:
        return it.mu <= config.tol_mu and it.residual_norm_inf() <= config.tol_res * max(
            1.0, r0_norm
        )

    for k in range(config.max_iter + 1):
        record = IterationRecord(
            k=k,
            mu=iterate.mu,
            rd_norm=float(np.linalg.norm(iterate.r_d)),
            rp_norm=float(np.linalg.norm(iterate.r_p)),
            alpha=float("nan"),
            sigma=float("nan"),
            nbhd_ratio=nbhd.residual_ratio,
            upsilon=upsilon,
            centrality=nbhd.centrality,
            decay_rel_err=decay_err,
            decay_abs_err=decay_abs,
            newton_rel_resid=float("nan"),
            xs_norm1=float(np.sum(np.abs(iterate.x)) + np.sum(np.abs(iterate.s))),
            iterate_scale=float(
                1.0
                + max(
                    np.linalg.norm(iterate.x, np.inf),
                    np.linalg.norm(iterate.s, np.inf),
                    np.linalg.norm(iterate.lam, np.inf) if iterate.lam.size else 0.0,
                )
            ),
        )
        log.append(record)

        if terminal(iterate):
            try:
                outcome = recover(hqp, iterate.x, iterate.lam, iterate.s)
            except AmbiguousStatus as exc:
                exc.log = log
                raise
            _final_diagnostics(outcome, hqp, iterate, k, zeta, True)
            return outcome, log
        if k == config.max_iter:
            break

        try:
            direction = newton_direction(hqp, iterate, sigma)
            record.newton_rel_resid = direction.rel_residual
            record.sigma = sigma
            if config.direction_diagnostics:
                d_scale = np.sqrt(iterate.x / iterate.s)
                denom = N * iterate.mu
                record.scaled_dx_norm = float(
                    np.linalg.norm(direction.dx / d_scale) / denom
                )
                record.scaled_ds_norm = float(
                    np.linalg.norm(direction.ds * d_scale) / denom
                )
            alpha = step_length(hqp, iterate, direction, config, r0_norm, mu0)
        except (SingularNewton, StepSearchFailed) as exc:
            exc.log = log
            raise
        record.alpha = alpha

        new_iterate = IipmIterate.compute(
            hqp,
            iterate.x + alpha * direction.dx,
            iterate.lam + alpha * direction.dlam,
            iterate.s + alpha * direction.ds,
        )
        # Residuals contract by exactly (1 - alpha); track the departure
        # from that identity as a health check.  The absolute error is also
        # logged because the relative one degrades to evaluation noise once
        # iterate magnitudes dwarf the (shrinking) residuals.
        prev = np.concatenate([iterate.r_d, iterate.r_p])
        new = np.concatenate([new_iterate.r_d, new_iterate.r_p])
        prev_norm = np.linalg.norm(prev)
        decay_abs = float(np.linalg.norm(new - (1.0 - alpha) * prev))
        decay_err = float(decay_abs / max(prev_norm, 1e-300))
        upsilon *= 1.0 - alpha
        iterate = new_iterate
        nbhd = in_neighborhood(iterate, config, r0_norm, mu0)

    outcome = SolveOutcome(status=SolveStatus.ITERATION_LIMIT)
    _final_diagnostics(outcome, hqp, iterate, config.max_iter, zeta, False)
    return outcome, log


def _final_diagnostics(outcome, hqp, iterate, iterations, zeta, converged):
    outcome.diagnostics.update(
        {
            "iterations": iterations,
            "mu": iterate.mu,
            "rd_norm": float(np.linalg.norm(iterate.r_d)),
            "rp_norm": float(np.linalg.norm(iterate.r_p)),
            "residual_inf": iterate.residual_norm_inf(),
            "hqp_objective": hqp.objective(iterate.x),
            "zeta": zeta,
            "converged": converged,
        }
    )


def check_iterate_norm_bound(
    log: IterationLog,
    zeta: float,
    beta: float,
    dim: int,
    x_final: np.ndarray,
    s_final: np.ndarray,
) -> dict:
    """Post-hoc diagnostic: zeta * upsilon_k * ||(x_k, s_k)||_1 <= 4 beta dim mu_k.

    Only meaningful when the start radius dominated some optimal pair,
    zeta >= ||(x*, s*)||; the converged point stands in for that pair.
    Returns the per-iteration slack and any violations instead of
    asserting.
    """
    star_norm = float(np.sqrt(np.sum(x_final**2) + np.sum(s_final**2)))
    applicable = zeta >= star_norm
    violations = []
    slack = []
    for r in log.rows:
        lhs = zeta * r.upsilon * r.xs_norm1
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
