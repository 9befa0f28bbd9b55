"""Exception types shared across the solver."""


class HqpError(Exception):
    """Base class for all solver errors."""


class DimensionMismatch(HqpError):
    """Problem data arrays have inconsistent shapes."""


class ProblemFormatError(HqpError):
    """Problem data has non-finite entries, or a problem or solution file
    does not conform to the documented schema."""


class RankDeficient(HqpError):
    """Equality constraint matrix has numerically dependent rows."""


class NotReducedPd(HqpError):
    """Hessian is not positive definite on the constraint null space."""


class FreeVariable(HqpError):
    """A variable without any finite bound cannot be put in standard form."""


class NumericalFailure(HqpError):
    """A solve broke down numerically (``hqp solve`` exit 5).

    ``report`` is the last recovery report and ``log`` the iteration rows
    up to the failure, when the solve got that far.
    """

    def __init__(self, message, report=None, log=None):
        super().__init__(message)
        self.report = report
        self.log = log


class SingularKkt(NumericalFailure):
    """Equality-constrained KKT system could not be solved accurately."""


class SingularNewton(NumericalFailure):
    """Interior-point Newton system could not be solved accurately."""


class StepSearchFailed(NumericalFailure):
    """No acceptable step length was found; signals numerical breakdown."""


class AmbiguousStatus(NumericalFailure):
    """Neither optimal-point nor certificate recovery met tolerance."""
