"""Dense linear-algebra kernel.

The null space and minimum-norm solution of the equality rows,
equality-constrained KKT solves, and the interior-point Newton solve.
Everything is dense; target problems are small to medium.  The
saddle-point and Newton systems are symmetric, so each is factored once
with the Bunch-Kaufman LDL' and every solve from it is residual checked,
with iterative refinement on the same factors.
"""

from __future__ import annotations

from typing import Callable, Optional

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
        if not np.all(np.isfinite(matrix)):
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
        if not np.all(np.isfinite(self._ldu)):
            raise error_cls("factorization produced non-finite factors")

    def backsolve(self, rhs: np.ndarray) -> np.ndarray:
        """Raw backsolve without the residual guarantee."""
        x, info = scipy.linalg.lapack.dsytrs(self._ldu, self._piv, rhs)
        if info != 0:
            raise self.error_cls(f"backsolve failed (dsytrs info {info})")
        return x

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        rhs_norm = np.linalg.norm(rhs)
        if rhs_norm == 0.0:
            return np.zeros_like(rhs)
        x = self.backsolve(rhs)
        best_x, best_rel = x, np.inf
        for _ in range(MAX_REFINE_STEPS + 1):
            if not np.all(np.isfinite(x)):
                break
            residual = rhs - self.matrix @ x
            rel = np.linalg.norm(residual) / rhs_norm
            if np.isfinite(rel) and rel < best_rel:
                best_x, best_rel = x, rel
            if best_rel <= SOLVE_RTOL:
                return best_x
            x = x + self.backsolve(residual)
        raise self.error_cls(
            f"backsolve residual {best_rel:.3e} exceeds {SOLVE_RTOL:.1e} "
            f"after {MAX_REFINE_STEPS} refinement steps"
        )


def _augmented_matrix(C: np.ndarray, E: np.ndarray) -> np.ndarray:
    n = C.shape[0]
    m = E.shape[0]
    M = np.zeros((n + m, n + m))
    M[:n, :n] = C
    M[:n, n:] = E.T
    M[n:, :n] = E
    return M


def solve_equality_kkt(
    C: np.ndarray,
    E: np.ndarray,
    rhs_top: np.ndarray,
    rhs_bot: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the saddle-point system [[C, E'], [E, 0]] (y; nu) = rhs.

    Nonsingular when E has full row rank and C is positive definite on
    null(E).  The backsolve residual is guaranteed to be at most
    SOLVE_RTOL relative to the right-hand-side norm.
    """
    C = np.asarray(C, dtype=float)
    E = np.atleast_2d(np.asarray(E, dtype=float))
    rhs_top = np.asarray(rhs_top, dtype=float)
    rhs_bot = np.asarray(rhs_bot, dtype=float)
    n = C.shape[0]
    fact = AugmentedFactorization(_augmented_matrix(C, E), SingularKkt)
    sol = fact.solve(np.concatenate([rhs_top, rhs_bot]))
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Solve the three-block interior-point step system.

    Block form, with X = Diag(x) and S = Diag(s):

        [ Q   A'  -I ] [dx  ]   [ rhs_1 ]
        [ A   0    0 ] [dlam] = [ rhs_2 ]
        [ S   0    X ] [ds  ]   [ rhs_3 ]

    ds is eliminated through the last block row, leaving the symmetric
    augmented system [[Q + X^{-1}S, A'], [A, 0]] for (dx, dlam), and is
    recovered as ds = X^{-1}(rhs_3 - S dx).  The matrix is factored once,
    in place.  With ``center``, ``rhs`` is a predictor right-hand side:
    its plain backsolve (dx, dlam, ds), unrefined and unchecked, goes to
    ``center``, which returns the right-hand side to solve next on the same
    factors.  The accuracy guarantee, enforced on the full three-block
    system for the last right-hand side, is a normwise backward error of
    at most SOLVE_RTOL; refinement runs through the one factorization, and
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
    if np.any(x <= 0.0) or np.any(s <= 0.0):
        raise SingularNewton("iterate left the positive orthant")

    M = np.zeros((N + m, N + m), order="F")
    M[:N, :N] = Q
    M[np.diag_indices(N)] += s / x
    M[:N, N:] = A.T
    M[N:, :N] = A
    fact = AugmentedFactorization(M, SingularNewton, overwrite=True)

    def eliminate(t1, t2, t3):
        aug = fact.backsolve(np.concatenate([t1 + t3 / x, t2]))
        dx = aug[:N]
        dlam = aug[N:]
        ds = (t3 - s * dx) / x
        return dx, dlam, ds

    if center is not None:
        rhs = np.asarray(center(*eliminate(rhs[:N], rhs[N:N + m], rhs[N + m:])), dtype=float)
    if np.linalg.norm(rhs) == 0.0:
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
