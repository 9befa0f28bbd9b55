"""Dense linear-algebra kernel.

Equality-constrained KKT solves with their inertia, and the interior-point
Newton solve.  Matrices are stored dense; target problems are small to
medium.  Both solves are saddle-point systems [[H, B'], [B, 0]], and both
first divide out the variables whose row of H has no off-diagonal nonzero
and a positive pivot: such a row couples only to the rest, so its
variable is eliminated by a division.  The Schur complement of the rest is symmetric
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

from .errors import SingularKkt, SingularNewton

# Accuracy every factorized solve must meet: the residual relative to the
# right-hand side for a KKT solve, the normwise backward error for a
# Newton solve.
SOLVE_RTOL = 1e-10
# Iterative-refinement budget per solve.  Late interior-point systems are
# ill-conditioned enough that a single step is not always sufficient; the
# loop stops as soon as the tolerance is met.
MAX_REFINE_STEPS = 8


class AugmentedFactorization:
    """Bunch-Kaufman LDL' factorization of a dense symmetric KKT-type matrix.

    Only the upper triangle is read (LAPACK ``dsytrf``), so the matrix must
    be symmetric; 1x1 and 2x2 pivots handle the indefinite saddle-point
    structure.  A Fortran-ordered matrix is factored in its own storage, so
    no copy is made and the matrix is overwritten.  :meth:`backsolve` is a
    raw solve; callers refine against their own data (:func:`_refined_solve`).
    An exactly singular D is kept for :meth:`inertia` and refused by
    :meth:`backsolve`.
    """

    def __init__(self, matrix: np.ndarray, error_cls=SingularKkt):
        self.error_cls = error_cls
        if not np.isfinite(matrix).all():
            raise error_cls("matrix contains non-finite entries")
        try:
            lwork, _ = scipy.linalg.lapack.dsytrf_lwork(matrix.shape[0])
            self._ldu, self._piv, self._info = scipy.linalg.lapack.dsytrf(
                matrix, lwork=int(lwork), overwrite_a=1
            )
        except ValueError as exc:
            raise error_cls(f"factorization failed: {exc}") from exc
        if self._info < 0 or not np.isfinite(self._ldu).all():
            raise error_cls(f"factorization failed (dsytrf info {self._info})")

    def inertia(self) -> tuple[int, int, int]:
        """(positive, negative, zero) eigenvalue counts of the matrix.

        By Sylvester's law they are those of the block-diagonal D.  A 1x1
        block is a diagonal entry with ``piv[i] > 0``; a 2x2 block occupies
        rows i, i+1 with ``piv[i] = piv[i+1] < 0``.  Bunch and Kaufman
        choose a 2x2 pivot [[a, b], [b, c]] only when |a c| < alpha^2 b^2,
        alpha = (1 + sqrt(17)) / 8 < 1, so its determinant is negative: one
        eigenvalue of each sign.
        """
        d = np.diagonal(self._ldu)[self._piv > 0]
        pairs = int(np.count_nonzero(self._piv < 0)) // 2
        return (
            int(np.count_nonzero(d > 0.0)) + pairs,
            int(np.count_nonzero(d < 0.0)) + pairs,
            int(np.count_nonzero(d == 0.0)),
        )

    def backsolve(self, rhs: np.ndarray) -> np.ndarray:
        """Raw backsolve without the residual guarantee."""
        if self._info > 0:
            raise self.error_cls(
                f"factorization failed: dsytrf info {self._info} (> 0: singular)"
            )
        if not rhs.size:
            return np.zeros(0)  # dsytrs refuses an empty system
        x, info = scipy.linalg.lapack.dsytrs(self._ldu, self._piv, rhs)
        if info != 0:
            raise self.error_cls(f"backsolve failed (dsytrs info {info})")
        return x


def _refined_solve(rhs, backsolve, residual, measure, error_cls) -> tuple[np.ndarray, float]:
    """Solve to an accuracy measure of at most SOLVE_RTOL.

    ``backsolve`` is a raw solve, ``residual(x)`` is rhs - M x for the
    matrix M the solve is checked against, and ``measure(r, x)`` is the
    accuracy of x with residual r.  Up to MAX_REFINE_STEPS refinement
    steps run through ``backsolve``, and the first solution that meets the
    tolerance is returned with its measure.  Progress is non-monotone near
    the boundary, so ``error_cls``, raised when none meets it, reports the
    best measure seen.
    """
    if not rhs.any():
        return np.zeros_like(rhs), 0.0
    x = backsolve(rhs)
    best = np.inf
    for _ in range(MAX_REFINE_STEPS + 1):
        r = residual(x)
        err = measure(r, x)
        if err <= SOLVE_RTOL:
            return x, err
        # A non-finite solution measures NaN or inf and never counts.
        if err < best:
            best = err
        x = x + backsolve(r)
    raise error_cls(
        f"solve stalled at {best:.3e} above {SOLVE_RTOL:.1e} "
        f"after {MAX_REFINE_STEPS} refinement steps"
    )


def diagonal_rows(H: np.ndarray) -> np.ndarray:
    """Mask of the rows of H with no off-diagonal nonzero."""
    return np.count_nonzero(H, axis=1) == (np.diagonal(H) != 0.0)


class DiagonalSplit(NamedTuple):
    """The saddle-point matrix K = [[H, B'], [B, 0]] split for dividing out
    a set of variables whose rows of H have no off-diagonal nonzero.

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


def split_diagonal(H: np.ndarray, B: np.ndarray, divide: np.ndarray, border=None) -> DiagonalSplit:
    """Split [[H, B'], [B, 0]] for dividing out the variables in the mask
    ``divide``; their rows of H must have no off-diagonal nonzero.

    ``border`` = (b, beta) splits the bordered Hessian [[H, b], [b', beta]]
    without forming it: its extra variable comes last, B has a column for
    it, and it always stays in the kept block.
    """
    n = H.shape[0]
    m = B.shape[0]
    sep = np.flatnonzero(divide)
    kept = np.flatnonzero(~np.asarray(divide))
    kept_vars = kept if border is None else np.append(kept, n)
    k = kept_vars.size
    K = np.zeros((k + m, k + m), order="F")
    K[: kept.size, : kept.size] = H[kept[:, None], kept]
    W = np.zeros((sep.size, k + m))
    if border is not None:
        b, beta = border
        K[: k - 1, k - 1] = K[k - 1, : k - 1] = b[kept]
        K[k - 1, k - 1] = beta
        W[:, k - 1] = b[sep]
    K[k:, :k] = B[:, kept_vars]
    K[:k, k:] = K[k:, :k].T
    W[:, k:] = B[:, sep].T
    return DiagonalSplit(
        sep=sep,
        keep=np.concatenate([kept_vars, n + (border is not None) + np.arange(m)]),
        kept_vars=kept_vars,
        pivot=np.diagonal(H)[sep],
        W=W,
        K=K,
    )


def factor_split(
    split: DiagonalSplit, shift: np.ndarray, error_cls
) -> tuple[Callable, AugmentedFactorization]:
    """Factor [[H + Diag(shift), B'], [B, 0]] by division and return its raw
    solve and the factorization of the Schur complement.

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
    fact = AugmentedFactorization(S, error_cls)

    def solve(r):
        g = r[sep] / h
        z = fact.backsolve(r[keep] - W.T @ g)
        out = np.empty_like(r)
        out[keep] = z
        out[sep] = g - (W @ z) / h
        return out

    return solve, fact


class EqualityKkt:
    """The saddle-point matrix [[C, E'], [E, 0]], factored once.

    The variables in ``divide``, whose rows of C must be diagonal with
    C_ii > 0, are divided out (:func:`factor_split`); the rest, with the
    rows of E, form the factored Schur complement.  It is nonsingular when
    E has full row rank and C is positive definite on null(E), which holds
    exactly when :meth:`inertia` is (n, m, 0).  ``apply_C`` multiplies by
    C in the refinement of :meth:`solve`.
    """

    def __init__(self, C: np.ndarray, E: np.ndarray, divide: np.ndarray, apply_C: Callable):
        self.C = np.asarray(C, dtype=float)
        self.E = np.atleast_2d(np.asarray(E, dtype=float))
        self.apply_C = apply_C
        split = split_diagonal(self.C, self.E, divide)
        self.n_divided = split.sep.size
        self._solve, self._fact = factor_split(split, np.zeros(self.C.shape[0]), SingularKkt)

    def inertia(self) -> tuple[int, int, int]:
        """(positive, negative, zero) eigenvalue counts of the whole matrix:
        each divided-out variable adds a positive pivot to those of the
        Schur complement (Haynsworth)."""
        pos, neg, zero = self._fact.inertia()
        return pos + self.n_divided, neg, zero

    def solve(self, rhs_top, rhs_bot) -> tuple[np.ndarray, np.ndarray]:
        """(y; nu) with a residual of at most SOLVE_RTOL relative to the
        right-hand-side norm."""
        apply_C, E = self.apply_C, self.E
        n = self.C.shape[0]
        rhs = np.concatenate([np.asarray(rhs_top, dtype=float), np.asarray(rhs_bot, dtype=float)])
        rhs_norm = np.linalg.norm(rhs)

        def residual(v):
            return rhs - np.concatenate([apply_C(v[:n]) + E.T @ v[n:], E @ v[:n]])

        sol, _ = _refined_solve(
            rhs, self._solve, residual, lambda r, _: np.linalg.norm(r) / rhs_norm, SingularKkt
        )
        return sol[:n], sol[n:]


def newton_data_norm(q_norm: float, A: np.ndarray) -> float:
    """The data part, max(||Q|| + ||A'|| + 1, ||A||), of the infinity norm
    of the three-block Newton matrix, given q_norm = ||Q||_inf; the
    iterate adds max(s + x)."""
    a_inf = np.linalg.norm(A, np.inf) if A.shape[0] else 0.0
    a_t_inf = np.linalg.norm(A.T, np.inf) if A.shape[0] else 0.0
    return float(max(q_norm + a_t_inf + 1.0, a_inf))


def newton_backward_error(residual, sol, rhs, mat_norm) -> float:
    """Normwise backward error of a three-block solve.

    eta = ||residual|| / (||M|| ||sol|| + ||rhs||), the standard accuracy
    measure for a linear solve, with ``mat_norm`` = ||M||.  A plain
    rhs-relative residual is not attainable in double precision when the
    solution dwarfs the right-hand side, which happens at late iterates on
    infeasible problems whose dual multipliers grow along the certificate
    ray.
    """
    return float(np.linalg.norm(residual) / (mat_norm * np.linalg.norm(sol) + np.linalg.norm(rhs)))


def solve_newton_system(
    apply_q: Callable,
    A: np.ndarray,
    x: np.ndarray,
    s: np.ndarray,
    rhs: np.ndarray,
    data_norm: float,
    split: DiagonalSplit,
    center: Optional[Callable] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, Callable]:
    """Solve the three-block interior-point step system.

    Block form, with X = Diag(x) and S = Diag(s):

        [ Q   A'  -I ] [dx  ]   [ rhs_1 ]
        [ A   0    0 ] [dlam] = [ rhs_2 ]
        [ S   0    X ] [ds  ]   [ rhs_3 ]

    ds is eliminated through the last block row, leaving the symmetric
    augmented system [[Q + X^{-1}S, A'], [A, 0]] for (dx, dlam), and is
    recovered as ds = X^{-1}(rhs_3 - S dx).  Q enters only through
    ``apply_q``, which multiplies by it, and ``split``, its split for
    dividing out variables with pivots Q_ii + s_i/x_i > 0
    (:func:`factor_split`).  The rest is factored once, in place.  With
    ``center``, ``rhs`` is a predictor right-hand side: its plain solve
    (dx, dlam, ds), unrefined and unchecked, goes to ``center``, which
    returns the right-hand side to solve next on the same factors.  The
    accuracy guarantee, enforced on the full three-block system for that
    right-hand side, is a normwise backward error of at most SOLVE_RTOL;
    refinement runs through the one factorization, and SingularNewton is
    raised when it stalls above the tolerance.  Returns (dx, dlam, ds,
    backward error, solve); ``solve(rhs)`` returns the first four for
    another right-hand side, on the same factors and with the same
    guarantee.  ``data_norm`` is :func:`newton_data_norm`.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    N = x.size
    m = A.shape[0]
    if rhs.shape != (2 * N + m,):
        raise ValueError(f"rhs must have length {2 * N + m}, got {rhs.shape}")
    if (x <= 0.0).any() or (s <= 0.0).any():
        raise SingularNewton("iterate left the positive orthant")
    solve_aug, _ = factor_split(split, s / x, SingularNewton)
    # The infinity norm of the three-block matrix.
    mat_norm = max(data_norm, float(np.max(s + x)))

    def backsolve(r):
        # ds is eliminated through the last block row.
        t3 = r[N + m:]
        aug = solve_aug(np.concatenate([r[:N] + t3 / x, r[N:N + m]]))
        return np.concatenate([aug, (t3 - s * aug[:N]) / x])

    def parts(sol):
        return sol[:N], sol[N:N + m], sol[N + m:]

    def apply(sol):
        dx, dlam, ds = parts(sol)
        return np.concatenate([apply_q(dx) + A.T @ dlam - ds, A @ dx, s * dx + x * ds])

    def refined(rhs):
        rhs = np.asarray(rhs, dtype=float)
        sol, eta = _refined_solve(
            rhs,
            backsolve,
            lambda v: rhs - apply(v),
            lambda r, v: newton_backward_error(r, v, rhs, mat_norm),
            SingularNewton,
        )
        return (*parts(sol), eta)

    if center is not None:
        rhs = center(*parts(backsolve(rhs)))
    return (*refined(rhs), refined)
