"""Convex QP solver with built-in infeasibility certificates.

Embeds a standard-form QP into a one-dimension-higher homogeneous program
that is always feasible, solves it with a long-step infeasible
interior-point method, and maps the result back to either an optimal
primal-dual point or a verifiable certificate that no feasible point
exists.
"""

from .embedding import (
    HqpProblem,
    SolveOutcome,
    SolveStatus,
    ThetaReport,
    compute_theta,
    embed,
    recover,
)
from .errors import (
    AmbiguousStatus,
    DimensionMismatch,
    FreeVariable,
    HqpError,
    NotReducedPd,
    NumericalFailure,
    ProblemFormatError,
    RankDeficient,
    SingularKkt,
    SingularNewton,
    StepSearchFailed,
)
from .iipm import IipmConfig, IipmIterate
from .instances import InstanceKind, InstanceSpec, generate
from .pipeline import SolveResult, solve_qp
from .qp import (
    GeneralQp,
    InfeasCertificate,
    QpKktPoint,
    QpProblem,
    ValidatedProblem,
    check_certificate,
    qp_kkt_residuals,
    to_standard_form,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousStatus",
    "DimensionMismatch",
    "FreeVariable",
    "GeneralQp",
    "HqpError",
    "HqpProblem",
    "IipmConfig",
    "IipmIterate",
    "InfeasCertificate",
    "InstanceKind",
    "InstanceSpec",
    "NotReducedPd",
    "NumericalFailure",
    "ProblemFormatError",
    "QpKktPoint",
    "QpProblem",
    "RankDeficient",
    "SingularKkt",
    "SingularNewton",
    "SolveOutcome",
    "SolveResult",
    "SolveStatus",
    "StepSearchFailed",
    "ThetaReport",
    "ValidatedProblem",
    "check_certificate",
    "compute_theta",
    "embed",
    "generate",
    "qp_kkt_residuals",
    "recover",
    "solve_qp",
    "to_standard_form",
    "validate",
]
