"""Dense linear-algebra kernel.

Orthonormal null-space bases, equality-constrained KKT solves, minimum-norm
particular solutions, reduced-Hessian eigenvalues, and the interior-point
Newton solve.  Everything is dense; target problems are small to medium.
The saddle-point and Newton systems are symmetric, so each is factored
once with the Bunch-Kaufman LDL' and every solve from it is residual
checked, with iterative refinement on the same factors.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .errors import (
    EmptyNullspace,
    RankDeficient,
    SingularGram,
    SingularKkt,
    SingularNewton,
)

# Relative backsolve residual every factorized solve must meet.
SOLVE_RTOL = 1e-10
# Iterative-refinement budget per solve.  Late interior-point systems are
# ill-conditioned enough that a single step is not always sufficient; the
# loop stops as soon as the tolerance is met.
MAX_REFINE_STEPS = 8


def _fingerprint(a: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(repr(a.shape).encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class NullspaceBasis:
    """Orthonormal basis of the null space of an equality matrix.

    ``Z`` has shape (n, n - m) and satisfies Z'Z = I and E Z = 0 to
    roundoff; it is empty when the matrix is square and nonsingular.
    ``source_E`` fingerprints the matrix the basis was computed from.
    """

    Z: np.ndarray
    source_E: str

    @property
    def dim(self) -> int:
        return self.Z.shape[1]


def nullspace_basis(E: np.ndarray) -> NullspaceBasis:
    """Orthonormal null-space basis via Householder QR of E'.

    The trailing n - m columns of the orthogonal factor of E' span
    null(E).  Deterministic for fixed input (no pivoting).  With zero
    rows the basis is the identity.

    Raises RankDeficient when a diagonal entry of the triangular factor
    falls below the scaled rank tolerance.
    """
    E = np.atleast_2d(np.asarray(E, dtype=float))
    m, n = E.shape
    if m == 0:
        return NullspaceBasis(Z=np.eye(n), source_E=_fingerprint(E))
    if m > n:
        raise RankDeficient(f"{m} rows cannot be independent in dimension {n}")
    q, r = scipy.linalg.qr(E.T)
    diag = np.abs(np.diag(r)[:m])
    spectral = scipy.linalg.norm(E, 2) if E.size else 0.0
    rank_tol = max(m, n) * spectral * 1e-12
    if np.any(diag <= rank_tol):
        raise RankDeficient(
            f"triangular factor diagonal {diag.min():.3e} below tolerance {rank_tol:.3e}"
        )
    return NullspaceBasis(Z=q[:, m:], source_E=_fingerprint(E))


class AugmentedFactorization:
    """Bunch-Kaufman LDL' factorization of a dense symmetric KKT-type matrix.

    Only the upper triangle is read (LAPACK ``dsytrf``), so the matrix must
    be symmetric; 1x1 and 2x2 pivots handle the indefinite saddle-point
    structure.  Solves are residual checked against SOLVE_RTOL relative to
    the right-hand-side norm, with up to MAX_REFINE_STEPS iterative-
    refinement steps against the stored matrix.  A solve that still misses
    fails loudly with the error class the caller supplied.
    """

    def __init__(self, matrix: np.ndarray, error_cls=SingularKkt):
        self.matrix = matrix
        self.error_cls = error_cls
        if not np.all(np.isfinite(matrix)):
            raise error_cls("matrix contains non-finite entries")
        try:
            lwork, _ = scipy.linalg.lapack.dsytrf_lwork(matrix.shape[0])
            self._ldu, self._piv, info = scipy.linalg.lapack.dsytrf(
                matrix, lwork=int(lwork)
            )
        except ValueError as exc:
            raise error_cls(f"factorization failed: {exc}") from exc
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


def min_norm_particular(E: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Minimum-Euclidean-norm solution of E d = f, i.e. d = E'(EE')^{-1} f.

    Lies in range(E') and is therefore orthogonal to null(E).  Returns the
    zero vector when there are no equality rows.
    """
    E = np.atleast_2d(np.asarray(E, dtype=float))
    f = np.asarray(f, dtype=float)
    m, n = E.shape
    if m == 0:
        return np.zeros(n)
    gram = E @ E.T
    try:
        cf = scipy.linalg.cho_factor(gram)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise SingularGram(f"E E^T factorization failed: {exc}") from exc
    d = E.T @ scipy.linalg.cho_solve(cf, f)
    f_norm = np.linalg.norm(f)
    residual = f - E @ d
    if np.linalg.norm(residual) > SOLVE_RTOL * max(1.0, f_norm):
        d = d + E.T @ scipy.linalg.cho_solve(cf, residual)
        residual = f - E @ d
        if np.linalg.norm(residual) > SOLVE_RTOL * max(1.0, f_norm):
            raise SingularGram("minimum-norm solve did not meet residual tolerance")
    return d


def reduced_min_eig(C: np.ndarray, Z: np.ndarray) -> float:
    """Smallest eigenvalue of the reduced Hessian Z'CZ."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] == 0:
        raise EmptyNullspace("null space is trivial; no reduced Hessian exists")
    M = Z.T @ np.asarray(C, dtype=float) @ Z
    M = 0.5 * (M + M.T)
    return float(scipy.linalg.eigh(M, eigvals_only=True)[0])


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Solve the three-block interior-point step system.

    Block form, with X = Diag(x) and S = Diag(s):

        [ Q   A'  -I ] [dx  ]   [ rhs_1 ]
        [ A   0    0 ] [dlam] = [ rhs_2 ]
        [ S   0    X ] [ds  ]   [ rhs_3 ]

    ds is eliminated through the last block row, leaving the symmetric
    augmented system [[Q + X^{-1}S, A'], [A, 0]] for (dx, dlam), and is
    recovered as ds = X^{-1}(rhs_3 - S dx).  The accuracy guarantee,
    enforced on the full three-block system, is a normwise backward error
    of at most SOLVE_RTOL; refinement runs through the one factorization,
    and SingularNewton is raised when it stalls above the tolerance.
    Returns (dx, dlam, ds, backward error).  ``data_norm`` is passed on to
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
    if np.linalg.norm(rhs) == 0.0:
        return np.zeros(N), np.zeros(m), np.zeros(N), 0.0

    r1, r2, r3 = rhs[:N], rhs[N:N + m], rhs[N + m:]
    M = np.zeros((N + m, N + m))
    M[:N, :N] = Q
    M[np.diag_indices(N)] += s / x
    M[:N, N:] = A.T
    M[N:, :N] = A
    fact = AugmentedFactorization(M, SingularNewton)

    def eliminate(t1, t2, t3):
        aug = fact.backsolve(np.concatenate([t1 + t3 / x, t2]))
        dx = aug[:N]
        dlam = aug[N:]
        ds = (t3 - s * dx) / x
        return dx, dlam, ds

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
