"""Command line front end.

Subcommands: ``solve`` a problem file, ``gen`` a random instance, and
``check`` a solution document against its problem.

Solve exit codes: 0 optimal, 2 infeasible, 3 iteration limit, 4 bad input
or failed validation, 5 numerical failure (``errors.NumericalFailure``).
Check: 0 pass, 1 fail, 4 file or shape errors, including a vector entry
that is not a finite number (``fileio.number_vector`` reads both files'
number lists), or a ``--tol`` that is not positive and finite.  ``solve`` and ``gen`` exit 4, with an
``error:`` line on stderr, when they cannot write their output file.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

from . import fileio
from .embedding import SolveStatus
from .errors import HqpError, NumericalFailure, ProblemFormatError
from .iipm import IipmConfig
from .instances import InstanceKind, InstanceSpec, generate
from .pipeline import solve_qp
from .qp import (
    InfeasCertificate,
    QpKktPoint,
    check_certificate,
    qp_kkt_residuals,
)

EXIT_OPTIMAL = 0
EXIT_CHECK_FAIL = 1
EXIT_INFEASIBLE = 2
EXIT_ITERATION_LIMIT = 3
EXIT_INPUT = 4
EXIT_NUMERICAL = 5
_STATUS_EXIT = {
    SolveStatus.OPTIMAL: EXIT_OPTIMAL,
    SolveStatus.INFEASIBLE: EXIT_INFEASIBLE,
    SolveStatus.ITERATION_LIMIT: EXIT_ITERATION_LIMIT,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by every
    ``main`` call: ``parse_args`` keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="hqp",
        description="Convex QP solver with built-in infeasibility certificates "
        "via a homogeneous embedding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("problem", help="path to a problem JSON file")
    for f in dataclasses.fields(IipmConfig):
        kind = float if f.default is None else type(f.default)
        p_solve.add_argument("--" + f.name.replace("_", "-"), type=kind, default=f.default)
    p_solve.add_argument(
        "--theta", type=float, default=None,
        help="override the automatic embedding parameter (still convexity checked)",
    )
    p_solve.add_argument("--format", choices=("json", "text"), default="json")
    p_solve.add_argument("--output", default=None, help="write the solution document here")

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("kind", choices=[k.value for k in InstanceKind])
    p_gen.add_argument("n", type=int)
    p_gen.add_argument("--m", type=int, default=1, help="equality rows (dense kind only)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None, help="output path (default stdout)")

    p_check = sub.add_parser("check", help="re-check a solution document")
    p_check.add_argument("problem")
    p_check.add_argument("solution")
    p_check.add_argument("--tol", type=float, default=1e-6)
    return parser


def _solution_document(result, config: IipmConfig, status: str) -> dict:
    outcome = result.outcome
    doc = {
        "status": status,
        "theta_report": result.theta_report.as_dict(),
        "residuals": outcome.diagnostics.copy(),
        "iterations": [row.as_dict() for row in result.log],
        "config_echo": config.as_dict(),
    }
    if outcome.recovery is not None:
        doc["residuals"]["recovery"] = outcome.recovery.as_dict()
    if outcome.status is SolveStatus.OPTIMAL:
        doc["y"] = outcome.y.tolist()
        doc["nu"] = outcome.nu.tolist()
        doc["xi"] = outcome.xi.tolist()
    elif outcome.status is SolveStatus.INFEASIBLE:
        doc["cert_nu"] = outcome.cert_nu.tolist()
        doc["cert_xi"] = outcome.cert_xi.tolist()
    return doc


def _write(text: str, path, code: int) -> int:
    """Write ``text`` and a newline to ``path``, or to stdout without a
    path, and return ``code``; EXIT_INPUT, after an ``error:`` line on
    stderr, when ``path`` cannot be written."""
    if not path:
        print(text)
        return code
    try:
        with open(path, "w") as fh:
            fh.write(text)
            fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


def _emit(doc: dict, args, code: int) -> int:
    """``doc`` in ``args.format`` through :func:`_write` to ``args.output``."""
    text = json.dumps(doc, allow_nan=False) if args.format == "json" else _render_text(doc)
    return _write(text, args.output, code)


def _render_text(doc: dict) -> str:
    lines = [f"status: {doc['status']}"]
    residuals = doc.get("residuals", {})
    if "iterations" in doc:
        lines.append(f"iterations: {residuals.get('iterations', len(doc['iterations']) - 1)}")
    if "mu" in residuals:
        lines.append(f"mu: {residuals['mu']:.3e}")
    if "hqp_objective" in residuals:
        lines.append(f"embedded objective: {residuals['hqp_objective']:.6e}")
    theta = doc.get("theta_report", {})
    if theta:
        lines.append(f"theta: {theta.get('theta')}")
    if "y" in doc:
        lines.append(f"y: {doc['y']}")
        lines.append(f"nu: {doc['nu']}")
        lines.append(f"xi: {doc['xi']}")
    if "cert_nu" in doc:
        lines.append(f"certificate nu: {doc['cert_nu']}")
        lines.append(f"certificate xi: {doc['cert_xi']}")
    if "message" in doc:
        lines.append(f"message: {doc['message']}")
    return "\n".join(lines)


def _cmd_solve(args) -> int:
    try:
        problem = fileio.load_problem(args.problem)
        config = IipmConfig(
            **{f.name: getattr(args, f.name) for f in dataclasses.fields(IipmConfig)}
        )
    except (ProblemFormatError, ValueError) as exc:
        return _emit({"status": "error", "message": str(exc)}, args, EXIT_INPUT)

    try:
        result = solve_qp(problem, config, theta_override=args.theta)
    except NumericalFailure as exc:
        # Keep the partial log and the recovery scores the solve attached.
        doc = {"status": "error", "message": str(exc)}
        if exc.log is not None:
            doc["iterations"] = [row.as_dict() for row in exc.log]
        if exc.report is not None:
            doc["residuals"] = {"recovery": exc.report.as_dict()}
        return _emit(doc, args, EXIT_NUMERICAL)
    except HqpError as exc:
        # Validation rejections: rank deficiency, indefiniteness, bad shapes.
        return _emit({"status": "error", "message": str(exc)}, args, EXIT_INPUT)

    status = result.outcome.status
    return _emit(_solution_document(result, config, status.value), args, _STATUS_EXIT[status])


def _cmd_gen(args) -> int:
    try:
        spec = InstanceSpec(kind=InstanceKind(args.kind), n=args.n, m=args.m, seed=args.seed)
        problem = generate(spec)
    except (ValueError, HqpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return _write(fileio.dumps_problem(problem), args.out, 0)


def _load_solution(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ProblemFormatError(f"cannot read solution {path}: {exc}") from exc
    if not isinstance(doc, dict) or "status" not in doc:
        raise ProblemFormatError("solution document must be an object with a status")
    return doc


def _cmd_check(args) -> int:
    try:
        if not 0.0 < args.tol < math.inf:
            raise ValueError(f"--tol must be positive and finite, got {args.tol}")
        problem = fileio.load_problem(args.problem)
        doc = _load_solution(args.solution)
        status = doc["status"]
        if status == "optimal":
            point = QpKktPoint(
                y=fileio.number_vector(doc["y"], "y"),
                nu=fileio.number_vector(doc["nu"], "nu"),
                xi=fileio.number_vector(doc["xi"], "xi"),
            )
            worst = qp_kkt_residuals(problem, point).max_violation()
        elif status == "infeasible":
            cert = InfeasCertificate(
                nu=fileio.number_vector(doc["cert_nu"], "cert_nu"),
                xi=fileio.number_vector(doc["cert_xi"], "cert_xi"),
            )
            worst = check_certificate(problem, cert).max_violation()
        else:
            raise ProblemFormatError(f"nothing to check for status {status!r}")
    except (ProblemFormatError, HqpError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    # Tolerance scales with the problem data only; scaling by the point
    # would let an arbitrarily large bogus point pass on its own size.
    scale = 1.0 + problem.data_scale()
    passed = worst <= args.tol * scale
    print(
        f"{status}: worst residual {worst:.3e} "
        f"({'pass' if passed else 'FAIL'} at tol {args.tol:.1e} x scale {scale:.3e})"
    )
    return 0 if passed else EXIT_CHECK_FAIL


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "gen":
        return _cmd_gen(args)
    return _cmd_check(args)


if __name__ == "__main__":
    sys.exit(main())
