"""End-to-end solve: validate, choose theta, embed, iterate, recover."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import iipm
from .embedding import HqpProblem, SolveOutcome, ThetaReport, compute_theta, embed
from .iipm import IipmConfig, IterationRecord
from .qp import QpProblem, validate


@dataclass
class SolveResult:
    """Everything a caller needs to report or reproduce a solve."""

    outcome: SolveOutcome
    log: list[IterationRecord]
    theta_report: ThetaReport
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
    report = compute_theta(validated, theta_override)
    hqp = embed(validated, report)
    outcome, log = iipm.solve(hqp, config)
    return SolveResult(outcome=outcome, log=log, theta_report=report, hqp=hqp)
