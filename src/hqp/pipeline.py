"""End-to-end solve: validate, choose theta, embed, iterate, recover."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import iipm
from .embedding import (
    HqpProblem,
    SolveOutcome,
    ThetaReport,
    compute_theta,
    embed,
    manual_theta_report,
)
from .iipm import IipmConfig, IterationLog
from .qp import QpProblem, ValidatedProblem, validate


@dataclass
class SolveResult:
    """Everything a caller needs to report or reproduce a solve."""

    outcome: SolveOutcome
    log: IterationLog
    theta_report: ThetaReport
    validated: ValidatedProblem
    hqp: HqpProblem


def solve_qp(
    problem: QpProblem,
    config: Optional[IipmConfig] = None,
    *,
    theta_override: Optional[float] = None,
) -> SolveResult:
    """Solve a standard-form QP through the homogeneous embedding.

    ``theta_override`` bypasses the automatic parameter choice but is still
    refused if it leaves the lifted Hessian indefinite on the constraint
    null space.
    """
    validated = validate(problem)
    if theta_override is not None:
        report = manual_theta_report(validated, theta_override)
    else:
        report = compute_theta(validated)
    hqp = embed(validated, report)
    outcome, log = iipm.solve(hqp, config)
    return SolveResult(
        outcome=outcome,
        log=log,
        theta_report=report,
        validated=validated,
        hqp=hqp,
    )
