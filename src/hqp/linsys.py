"""Dense linear-algebra kernel.

The null space and minimum-norm solution of the equality rows,
equality-constrained KKT solves, and the interior-point Newton solve.
Matrices are stored dense; target problems are small to medium.  Both
solves are saddle-point systems [[H, B'], [B, 0]], and both first divide
out the variables whose row of H has no off-diagonal nonzero and a
positive pivot: such a row couples only to the rest, so its variable is
eliminated by a division.  The Schur complement of the rest is symmetric
and is factored once with the Bunch-Kaufman LDL'; on the diagonal-Hessian
families the kept block is only the border (tau and the equality rows).
Every solve is residual checked, with iterative refinement on the same
factors against the whole system.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .errors import RankDeficient, SingularKkt, SingularNewton

# Relative backsolve residual every factorized solve must meet.
SOLVE_RTOL = 1e-10
# Iterative-refinement budget per solve.  Late interior-point systems are
# ill-conditioned enough that a single step is not always sufficient; the
# loop stops as soon as the tolerance is met.
MAX_REFINE_STEPS = 8


def null_space_and_min_norm(E: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal null-space basis Z of E and the minimum-norm solution d
    of E d = f, both from one full SVD E = U Sigma V'.

    Z is the trailing n - m columns of V (Z'Z = I, E Z = 0; empty when E
    is square) and d = V_1 Sigma^{-1} U'f, which lies in range(E') and is
    therefore orthogonal to range(Z).  With zero rows Z is the identity
    and d is zero.  Raises RankDeficient when fewer than m singular values
    exceed the backward-stable threshold max(m, n) * sigma_1 * 1e-12.
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
        raise RankDeficient(
            f"E has numerical rank {rank} < {m} (tolerance {rank_tol:.3e})"
        )
    d = Vt[:m].T @ ((U.T @ f) / svals)
    return Vt[m:].T, d


class AugmentedFactorization:
    """Bunch-Kaufman LDL' factorization of a dense symmetric KKT-type matrix.

    Only the upper triangle is read (LAPACK ``dsytrf``), so the matrix must
    be symmetric; 1x1 and 2x2 pivots handle the indefinite saddle-point
    structure.  Solves are residual checked against SOLVE_RTOL relative to
    the right-hand-side norm, with up to MAX_REFINE_STEPS iterative-
    refinement steps against the stored matrix.  A solve that still misses
    fails loudly with the error class the caller supplied.  With
    ``overwrite`` a Fortran-ordered matrix is factored in its own storage,
    so no copy is made; only the raw :meth:`backsolve` is then available,
    and the caller refines against its own data.
    """

    def __init__(self, matrix: np.ndarray, error_cls=SingularKkt, overwrite=False):
        self.error_cls = error_cls
        if not np.isfinite(matrix).all():
            raise error_cls("matrix contains non-finite entries")
        try:
            lwork, _ = scipy.linalg.lapack.dsytrf_lwork(matrix.shape[0])
            self._ldu, self._piv, info = scipy.linalg.lapack.dsytrf(
                matrix, lwork=int(lwork), overwrite_a=int(overwrite)
            )
        except ValueError as exc:
            raise error_cls(f"factorization failed: {exc}") from exc
        self.matrix = None if overwrite else matrix
        if info != 0:
            raise error_cls(f"factorization failed: dsytrf info {info} (> 0: singular)")
        if not np.isfinite(self._ldu).all():
            raise error_cls("factorization produced non-finite factors")

    def backsolve(self, rhs: np.ndarray) -> np.ndarray:
        """Raw backsolve without the residual guarantee."""
        if not rhs.size:
            return np.zeros(0)  # dsytrs refuses an empty system
        x, info = scipy.linalg.lapack.dsytrs(self._ldu, self._piv, rhs)
        if info != 0:
            raise self.error_cls(f"backsolve failed (dsytrs info {info})")
        return x

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return _refined_solve(rhs, self.backsolve, lambda v: self.matrix @ v, self.error_cls)


def _refined_solve(rhs, backsolve, apply, error_cls) -> np.ndarray:
    """Solve to a residual of at most SOLVE_RTOL relative to ||rhs||.

    ``backsolve`` is a raw solve and ``apply`` multiplies by the matrix the
    residual is taken against; up to MAX_REFINE_STEPS refinement steps run
    through ``backsolve``.  Raises ``error_cls`` when the best solution
    still misses.
    """
    rhs = np.asarray(rhs, dtype=float)
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)
    x = backsolve(rhs)
    best_x, best_rel = x, np.inf
    for _ in range(MAX_REFINE_STEPS + 1):
        if not np.all(np.isfinite(x)):
            break
        residual = rhs - apply(x)
        rel = np.linalg.norm(residual) / rhs_norm
        if np.isfinite(rel) and rel < best_rel:
            best_x, best_rel = x, rel
        if best_rel <= SOLVE_RTOL:
            return best_x
        x = x + backsolve(residual)
    raise error_cls(
        f"backsolve residual {best_rel:.3e} exceeds {SOLVE_RTOL:.1e} "
        f"after {MAX_REFINE_STEPS} refinement steps"
    )


def diagonal_rows(H: np.ndarray) -> np.ndarray:
    """Mask of the rows of H with no off-diagonal nonzero."""
    return np.count_nonzero(H, axis=1) == (np.diagonal(H) != 0.0)


class DiagonalSplit(NamedTuple):
    """The saddle-point matrix K = [[H, B'], [B, 0]] split for dividing out
    a set of variables whose block of H is diagonal.

    ``sep`` are the divided-out variables, with pivots ``pivot`` = H_ii;
    ``keep`` are the other variables followed by the rows of B, and the
    first ``kept_vars.size`` of them are variables.  ``W`` = K[sep, keep]
    couples the two, and ``K`` = K[keep, keep] is the kept block.
    """

    sep: np.ndarray
    keep: np.ndarray
    kept_vars: np.ndarray
    pivot: np.ndarray
    W: np.ndarray
    K: np.ndarray


def split_diagonal(H: np.ndarray, B: np.ndarray, divide: np.ndarray) -> DiagonalSplit:
    """Split [[H, B'], [B, 0]] for dividing out the variables in the mask
    ``divide``; H restricted to them must be diagonal."""
    n = H.shape[0]
    m = B.shape[0]
    sep = np.flatnonzero(divide)
    kept = np.flatnonzero(~np.asarray(divide))
    k = kept.size
    K = np.zeros((k + m, k + m), order="F")
    K[:k, :k] = H[kept[:, None], kept]
    K[k:, :k] = B[:, kept]
    K[:k, k:] = K[k:, :k].T
    W = np.empty((sep.size, k + m))
    W[:, :k] = H[sep[:, None], kept]
    W[:, k:] = B[:, sep].T
    return DiagonalSplit(
        sep=sep,
        keep=np.concatenate([kept, n + np.arange(m)]),
        kept_vars=kept,
        pivot=H[sep, sep],
        W=W,
        K=K,
    )


def factor_split(split: DiagonalSplit, shift: np.ndarray, error_cls) -> Callable:
    """Factor [[H + Diag(shift), B'], [B, 0]] by division and return its raw
    solve.

    With h = pivot + shift on the divided-out variables, which must be
    positive, the Schur complement S = K - W' Diag(h)^-1 W is factored
    once, in place.  A solve of r = (r_sep, r_keep) is
    z = S^-1 (r_keep - W'(r_sep/h)) followed by u = (r_sep - W z)/h: one
    backsolve.
    """
    sep, keep, W = split.sep, split.keep, split.W
    h = split.pivot + shift[sep]
    S = np.array(split.K, order="F")
    # The first k diagonal entries, through a flat view of S.
    k, step = split.kept_vars.size, S.shape[0] + 1
    S.ravel(order="K")[: k * step : step] += shift[split.kept_vars]
    if sep.size:
        S -= (W.T / h) @ W
    fact = AugmentedFactorization(S, error_cls, overwrite=True)

    def solve(r):
        g = r[sep] / h
        z = fact.backsolve(r[keep] - W.T @ g)
        out = np.empty_like(r)
        out[keep] = z
        out[sep] = g - (W @ z) / h
        return out

    return solve


def solve_equality_kkt(
    C: np.ndarray,
    E: np.ndarray,
    rhs_top: np.ndarray,
    rhs_bot: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the saddle-point system [[C, E'], [E, 0]] (y; nu) = rhs.

    Nonsingular when E has full row rank and C is positive definite on
    null(E).  The variables whose row of C is diagonal with C_ii > 0 are
    divided out (:func:`factor_split`); rows with C_ii <= 0 stay in the
    factored block.  The residual is guaranteed to be at most SOLVE_RTOL
    relative to the right-hand-side norm.
    """
    C = np.asarray(C, dtype=float)
    E = np.atleast_2d(np.asarray(E, dtype=float))
    n = C.shape[0]
    rhs = np.concatenate([np.asarray(rhs_top, dtype=float), np.asarray(rhs_bot, dtype=float)])
    split = split_diagonal(C, E, diagonal_rows(C) & (np.diagonal(C) > 0.0))
    solve = factor_split(split, np.zeros(n), SingularKkt)

    def apply(v):
        return np.concatenate([C @ v[:n] + E.T @ v[n:], E @ v[:n]])

    sol = _refined_solve(rhs, solve, apply, SingularKkt)
    return sol[:n], sol[n:]


def newton_data_norm(Q: np.ndarray, A: np.ndarray) -> float:
    """The data part, max(||Q|| + ||A'|| + 1, ||A||), of the infinity norm
    of the three-block Newton matrix; the iterate adds max(s + x)."""
    a_inf = np.linalg.norm(A, np.inf) if A.shape[0] else 0.0
    a_t_inf = np.linalg.norm(A.T, np.inf) if A.shape[0] else 0.0
    return float(max(np.linalg.norm(Q, np.inf) + a_t_inf + 1.0, a_inf))


def newton_backward_error(Q, A, x, s, rhs, dx, dlam, ds, data_norm=None) -> float:
    """Normwise backward error of a three-block solve.

    eta = ||residual|| / (||M|| ||delta|| + ||rhs||), the standard accuracy
    measure for a linear solve.  A plain rhs-relative residual is not
    attainable in double precision when the solution dwarfs the right-hand
    side, which happens at late iterates on infeasible problems whose dual
    multipliers grow along the certificate ray.  ``data_norm`` defaults to
    :func:`newton_data_norm` of (Q, A).
    """
    e1 = rhs[: dx.size] - (Q @ dx + A.T @ dlam - ds)
    e2 = rhs[dx.size : dx.size + dlam.size] - A @ dx
    e3 = rhs[dx.size + dlam.size :] - (s * dx + x * ds)
    residual = np.linalg.norm(np.concatenate([e1, e2, e3]))
    if data_norm is None:
        data_norm = newton_data_norm(Q, A)
    mat_norm = max(data_norm, float(np.max(s + x)))
    sol_norm = np.linalg.norm(np.concatenate([dx, dlam, ds]))
    return float(residual / (mat_norm * sol_norm + np.linalg.norm(rhs)))


def solve_newton_system(
    Q: np.ndarray,
    A: np.ndarray,
    x: np.ndarray,
    s: np.ndarray,
    rhs: np.ndarray,
    data_norm: Optional[float] = None,
    center: Optional[Callable] = None,
    split: Optional[DiagonalSplit] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Solve the three-block interior-point step system.

    Block form, with X = Diag(x) and S = Diag(s):

        [ Q   A'  -I ] [dx  ]   [ rhs_1 ]
        [ A   0    0 ] [dlam] = [ rhs_2 ]
        [ S   0    X ] [ds  ]   [ rhs_3 ]

    ds is eliminated through the last block row, leaving the symmetric
    augmented system [[Q + X^{-1}S, A'], [A, 0]] for (dx, dlam), and is
    recovered as ds = X^{-1}(rhs_3 - S dx).  ``split`` names the
    variables divided out of the augmented system, with pivots
    Q_ii + s_i/x_i > 0 (:func:`factor_split`); by default those whose row
    of Q is diagonal.  The rest is factored once, in place.  With
    ``center``, ``rhs`` is a predictor right-hand side: its plain solve
    (dx, dlam, ds), unrefined and unchecked, goes to ``center``, which
    returns the right-hand side to solve next on the same factors.  The
    accuracy guarantee, enforced on the full three-block system for the
    last right-hand side, is a normwise backward error of at most
    SOLVE_RTOL; refinement runs through the one factorization, and
    SingularNewton is raised when it stalls above the tolerance.  Returns
    (dx, dlam, ds, backward error).  ``data_norm`` is passed on to
    :func:`newton_backward_error`.
    """
    Q = np.asarray(Q, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    N = Q.shape[0]
    m = A.shape[0]
    if rhs.shape != (2 * N + m,):
        raise ValueError(f"rhs must have length {2 * N + m}, got {rhs.shape}")
    if (x <= 0.0).any() or (s <= 0.0).any():
        raise SingularNewton("iterate left the positive orthant")
    if split is None:
        split = split_diagonal(Q, A, diagonal_rows(Q) & (np.diagonal(Q) >= 0.0))
    solve_aug = factor_split(split, s / x, SingularNewton)

    def eliminate(t1, t2, t3):
        aug = solve_aug(np.concatenate([t1 + t3 / x, t2]))
        dx = aug[:N]
        dlam = aug[N:]
        ds = (t3 - s * dx) / x
        return dx, dlam, ds

    if center is not None:
        rhs = np.asarray(center(*eliminate(rhs[:N], rhs[N:N + m], rhs[N + m:])), dtype=float)
    if not rhs.any():
        return np.zeros(N), np.zeros(m), np.zeros(N), 0.0
    r1, r2, r3 = rhs[:N], rhs[N:N + m], rhs[N + m:]

    def block_residual(dx, dlam, ds):
        e1 = r1 - (Q @ dx + A.T @ dlam - ds)
        e2 = r2 - A @ dx
        e3 = r3 - (s * dx + x * ds)
        return e1, e2, e3

    dx, dlam, ds = eliminate(r1, r2, r3)
    best = None
    best_eta = np.inf
    # Refinement progress is non-monotone near the boundary, so keep the
    # best solution seen.
    for _ in range(MAX_REFINE_STEPS + 1):
        eta = newton_backward_error(Q, A, x, s, rhs, dx, dlam, ds, data_norm)
        if np.isfinite(eta) and eta < best_eta:
            best, best_eta = (dx, dlam, ds), eta
        if best_eta <= SOLVE_RTOL:
            return (*best, best_eta)
        e1, e2, e3 = block_residual(dx, dlam, ds)
        cx, clam, cs = eliminate(e1, e2, e3)
        dx, dlam, ds = dx + cx, dlam + clam, ds + cs
    raise SingularNewton(
        f"Newton backsolve stalled at backward error {best_eta:.3e} above "
        f"{SOLVE_RTOL:.1e} after {MAX_REFINE_STEPS} refinement steps"
    )
