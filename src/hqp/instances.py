"""Random instance families.

Instance generation is deterministic for a fixed (kind, n, m, seed): draws
come from numpy's PCG64 generator seeded with the instance seed, and the
draw order is fixed (single-row families draw E only; the dense family
draws G, then E, then f, then c).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .qp import QpProblem


class InstanceKind(str, enum.Enum):
    INFEASIBLE_SV = "infeasible_sv"  # identity Hessian, one nonnegative row, f = -1
    FEASIBLE_SV = "feasible_sv"      # same construction with f = +1
    RANDOM_SPD = "random_spd"        # dense SPD Hessian, Gaussian E and f


@dataclass(frozen=True)
class InstanceSpec:
    kind: InstanceKind
    n: int
    m: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        kind = InstanceKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind in (InstanceKind.INFEASIBLE_SV, InstanceKind.FEASIBLE_SV):
            if self.m != 1:
                raise ValueError(f"{kind.value} instances have exactly one equality row")
        elif not 0 <= self.m <= self.n:
            raise ValueError(f"need 0 <= m <= n, got m={self.m}, n={self.n}")


def generate(spec: InstanceSpec) -> QpProblem:
    """Build a problem instance deterministically from its spec.

    Single-row kinds use the identity Hessian, an all-ones linear cost, and
    one equality row with entries uniform on (0, 1]; with right-hand side
    -1 the instance is infeasible by construction (a nonnegative row cannot
    produce a negative value on the nonnegative orthant), with +1 it is
    feasible.  The dense kind builds C = G'G + 0.1 I from standard normal G
    plus Gaussian E, f, and c.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    if spec.kind in (InstanceKind.INFEASIBLE_SV, InstanceKind.FEASIBLE_SV):
        E = 1.0 - rng.random((1, n))  # uniform on (0, 1]: never a zero row
        f = np.array([-1.0 if spec.kind is InstanceKind.INFEASIBLE_SV else 1.0])
        return QpProblem(np.eye(n), np.ones(n), E, f)
    G = rng.standard_normal((n, n))
    C = G.T @ G + 0.1 * np.eye(n)
    E = rng.standard_normal((spec.m, n)) if spec.m else None
    f = rng.standard_normal(spec.m) if spec.m else None
    c = rng.standard_normal(n)
    return QpProblem(C, c, E, f)
