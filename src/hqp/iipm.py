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
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import linsys
from .embedding import HqpProblem, SolveOutcome, SolveStatus, record_dict, recover
from .errors import AmbiguousStatus, SingularNewton, StepSearchFailed

# CSV columns of the per-iteration log (the record carries extra fields,
# serialized only in JSON output).
LOG_CSV_COLUMNS = ("k", "mu", "rd_norm", "rp_norm", "alpha", "sigma", "nbhd_ratio", "upsilon")

# The safeguard of Salahi, Peng and Terlaky (SIAM J. Optim., 2007): a
# second-order corrected direction whose positivity boundary or accepted
# step falls below this fraction is replaced by the pure centered direction
# on the same factors, which keeps the long-step analysis.
SAFEGUARD_STEP = 0.1
# Mehrotra's (SIAM J. Optim., 1992) clamp on the centering weight; the
# upper end of 1/2 keeps the long-step analysis for the centered direction.
SIGMA_MIN = 0.05
SIGMA_MAX = 0.5
# Step search: trials shrink geometrically by STEP_BACKTRACK from the
# damped positivity boundary, at most STEP_TRIALS of them.
STEP_BACKTRACK = 0.8
STEP_TRIALS = 60


@dataclass
class IipmConfig:
    """Algorithm parameters.

    gamma in (0,1) and beta >= 1 shape the neighborhood.  zeta scales the
    all-ones initial iterate; None selects max(10, ||c||_inf, ||f||_inf,
    theta).  Recovery is attempted once mu <= tol_mu and the residual norm
    is below tol_res relative to its initial size.  Every setting must be
    finite.
    """

    gamma: float = 1e-3
    beta: float = 2.0
    zeta: Optional[float] = None
    tol_mu: float = 1e-8
    tol_res: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        # Every condition is written so that NaN fails it.
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not 1.0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and at least 1, got {self.beta}")
        if self.zeta is not None and not 0.0 < self.zeta < math.inf:
            raise ValueError(f"zeta must be positive and finite, got {self.zeta}")
        if not (0.0 < self.tol_mu < math.inf and 0.0 < self.tol_res < math.inf):
            raise ValueError(
                f"tolerances must be positive and finite, got tol_mu={self.tol_mu}, "
                f"tol_res={self.tol_res}"
            )
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")

    def as_dict(self) -> dict:
        return record_dict(self)


def centering_weight(mu_aff: float, mu: float) -> float:
    """Mehrotra's (1992) rule: clamp((mu_aff/mu)^3, SIGMA_MIN, SIGMA_MAX)."""
    return float(min(max((mu_aff / mu) ** 3, SIGMA_MIN), SIGMA_MAX))


def residuals(hqp: HqpProblem, x, lam, s):
    """Dual and primal residuals plus the centrality parameter.

    r_d = Qx + q + A'lam - s (the constant term belongs in the dual
    residual; dropping it would steer the method to the wrong point),
    r_p = Ax, mu = x's / dim.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    s = np.asarray(s, dtype=float)
    r_d = hqp.apply_hessian(x) + hqp.q + hqp.A.T @ lam - s
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
        if (x <= 0.0).any() or (s <= 0.0).any():
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
    ok = ok_res and centrality >= config.gamma
    return NeighborhoodCheck(ok=ok, residual_ratio=float(ratio), centrality=centrality)


@dataclass(frozen=True)
class NewtonDirection:
    """A Newton direction; ``fallback``, set on a second-order corrected
    direction, returns the pure centered direction solved on the same
    factors."""

    dx: np.ndarray
    dlam: np.ndarray
    ds: np.ndarray
    rel_residual: float
    sigma: float
    mu_aff: float
    fallback: Optional[Callable[[], "NewtonDirection"]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def corrected(self) -> bool:
        return self.fallback is not None


def newton_direction(hqp: HqpProblem, iterate: IipmIterate) -> NewtonDirection:
    """Mehrotra's predictor-corrector direction at the current iterate.

    One factorization serves every right-hand side.  The affine-scaling
    one, (-r_d, -r_p, -Xs), gets a plain backsolve (dx_a, ds_a); mu_aff is
    the duality measure at min(1, positivity boundary) along it, and
    sigma = centering_weight(mu_aff, mu).  The corrected one,
    (-r_d, -r_p, -Xs + sigma mu e - dx_a ds_a), adds the second-order term
    of Mehrotra (1992) and is solved to a backward error of at most
    linsys.SOLVE_RTOL, recorded for the iteration log.  The direction's
    ``fallback`` solves the pure centered right-hand side
    (-r_d, -r_p, -Xs + sigma mu e) on the same factors, with the same
    guarantee.
    """
    x, s, mu = iterate.x, iterate.s, iterate.mu
    rhs = np.concatenate([-iterate.r_d, -iterate.r_p, -x * s])
    chosen = {}

    def center(dx, dlam, ds):
        alpha = min(1.0, positivity_boundary(x, s, dx, ds))
        mu_aff = float((x + alpha * dx) @ (s + alpha * ds) / x.size)
        chosen.update(sigma=centering_weight(mu_aff, mu), mu_aff=mu_aff)
        corrected = rhs.copy()
        corrected[-x.size:] += chosen["sigma"] * mu - dx * ds
        return corrected

    dx, dlam, ds, rel, solve_same = linsys.solve_newton_system(
        hqp.apply_hessian, hqp.A, x, s, rhs, hqp.newton_data_norm, hqp.newton_split, center
    )

    def fallback():
        centered = rhs.copy()
        centered[-x.size:] += chosen["sigma"] * mu
        return NewtonDirection(*solve_same(centered), **chosen)

    return NewtonDirection(dx, dlam, ds, rel, **chosen, fallback=fallback)


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
) -> tuple[float, IipmIterate, NeighborhoodCheck]:
    """Backtracking step search.

    Trials start at min(1, 0.995 * positivity boundary) and shrink
    geometrically; a trial is accepted when the trial point stays in the
    neighborhood and mu decreases by at least the 1% of alpha fraction.
    Returns the accepted alpha, the new iterate and its neighborhood check.
    """
    bound = positivity_boundary(iterate.x, iterate.s, direction.dx, direction.ds)
    trial0 = min(1.0, 0.995 * bound)
    if trial0 <= 0.0:
        raise StepSearchFailed("positivity boundary collapsed to zero")
    for j in range(STEP_TRIALS):
        alpha = trial0 * STEP_BACKTRACK**j
        x_new = iterate.x + alpha * direction.dx
        s_new = iterate.s + alpha * direction.ds
        if (x_new <= 0.0).any() or (s_new <= 0.0).any():
            continue
        candidate = IipmIterate.compute(
            hqp, x_new, iterate.lam + alpha * direction.dlam, s_new
        )
        nbhd = in_neighborhood(candidate, config, r0_norm, mu0)
        if nbhd.ok and candidate.mu <= (1.0 - 0.01 * alpha) * iterate.mu:
            return alpha, candidate, nbhd
    raise StepSearchFailed(
        f"no acceptable step among {STEP_TRIALS} trials "
        f"(boundary {bound:.3e}, mu {iterate.mu:.3e})"
    )


@dataclass
class IterationRecord:
    """One row of the run log.

    alpha, sigma, mu_aff (the duality measure the affine-scaling
    direction reaches, which sets sigma) and corrected (whether the step
    took the second-order corrected direction or fell back to the pure
    centered one) describe the step chosen *at* this iterate (NaN, or None,
    on the terminal row); upsilon is the accumulated product of
    (1 - alpha) up to this iterate, which must track the residual
    contraction exactly.
    """

    k: int
    mu: float
    rd_norm: float
    rp_norm: float
    alpha: float
    sigma: float
    mu_aff: float
    nbhd_ratio: float
    upsilon: float
    centrality: float
    decay_rel_err: float
    decay_abs_err: float
    newton_rel_resid: float
    iterate_scale: float
    corrected: Optional[bool] = None

    def as_dict(self) -> dict:
        return record_dict(self)


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

    Once mu <= tol_mu and the residual norm has dropped below tol_res
    relative to its initial size, every iterate is classified through
    :func:`embedding.recover`, and the first one that certifies a route
    ends the run.  Returns an iteration-limit outcome after max_iter steps
    when recovery was never attempted.  Numerical failures (singular
    Newton systems, failed step searches) are raised with the partial log
    attached; once recovery has been attempted, they and the iteration
    limit raise AmbiguousStatus with the last recovery report instead.
    """
    config = config or IipmConfig()
    zeta = config.zeta if config.zeta is not None else automatic_zeta(hqp)
    N = hqp.dim
    ones = np.ones(N)
    iterate = IipmIterate.compute(hqp, zeta * ones, np.zeros(hqp.A.shape[0]), zeta * ones)
    r0_norm = iterate.residual_norm()
    mu0 = iterate.mu
    log = IterationLog()

    nbhd = in_neighborhood(iterate, config, r0_norm, mu0)
    upsilon = 1.0
    decay_err = float("nan")
    decay_abs = float("nan")
    # Message and report of the last recovery that certified neither route.
    # The exception itself is not kept: its traceback holds this frame, and
    # the cycle would keep every array of the solve alive until the cyclic
    # garbage collector runs.
    ambiguous = None

    def terminal(it: IipmIterate) -> bool:
        return it.mu <= config.tol_mu and it.residual_norm_inf() <= config.tol_res * max(
            1.0, r0_norm
        )

    def unresolved(reason: str) -> AmbiguousStatus:
        message, report = ambiguous
        return AmbiguousStatus(f"{message}; {reason}", report=report, log=log)

    for k in range(config.max_iter + 1):
        record = IterationRecord(
            k=k,
            mu=iterate.mu,
            rd_norm=float(np.linalg.norm(iterate.r_d)),
            rp_norm=float(np.linalg.norm(iterate.r_p)),
            alpha=float("nan"),
            sigma=float("nan"),
            mu_aff=float("nan"),
            nbhd_ratio=nbhd.residual_ratio,
            upsilon=upsilon,
            centrality=nbhd.centrality,
            decay_rel_err=decay_err,
            decay_abs_err=decay_abs,
            newton_rel_resid=float("nan"),
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
                ambiguous = (str(exc), exc.report)
            else:
                _final_diagnostics(outcome, hqp, iterate, k, zeta, True)
                return outcome, log
        if k == config.max_iter:
            break

        try:
            direction = newton_direction(hqp, iterate)
            # The safeguard: a corrected step that is short, or that the
            # step search refuses, is replaced by the fallback's step.  The
            # accepted step never exceeds the positivity boundary, so a
            # short boundary falls back too.
            try:
                step = step_length(hqp, iterate, direction, config, r0_norm, mu0)
            except StepSearchFailed:
                step = None
            if step is None or step[0] < SAFEGUARD_STEP:
                direction = direction.fallback()
                step = None
            record.newton_rel_resid = direction.rel_residual
            record.sigma = direction.sigma
            record.mu_aff = direction.mu_aff
            record.corrected = direction.corrected
            if step is None:
                step = step_length(hqp, iterate, direction, config, r0_norm, mu0)
            alpha, new_iterate, nbhd = step
            # A corrected direction's fallback holds this step's factors;
            # release them before the next step builds its own.
            del direction
        except (SingularNewton, StepSearchFailed) as exc:
            if ambiguous is not None:
                raise unresolved(f"iteration stopped at k={k}: {exc}") from exc
            exc.log = log
            raise
        record.alpha = alpha

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

    if ambiguous is not None:
        raise unresolved(f"iteration limit {config.max_iter} reached")
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

