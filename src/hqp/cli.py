"""Command line front end.

Subcommands: ``solve`` a problem file, ``gen`` a random instance, ``check``
a solution document against its problem, ``experiment`` for family sweeps.

Solve exit codes: 0 optimal, 2 infeasible, 3 iteration limit, 4 bad input
or failed validation, 5 numerical failure.  Check: 0 pass, 1 fail, 4 file
or shape errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import fileio
from .embedding import SolveStatus, ThetaMode
from .errors import (
    AmbiguousStatus,
    HqpError,
    ProblemFormatError,
    SingularKkt,
    SingularNewton,
    StepSearchFailed,
)
from .iipm import IipmConfig
from .instances import InstanceKind, InstanceSpec, generate, run_experiment
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

_THETA_MODES = {
    "exact": ThetaMode.EXACT_Z,
    "norm": ThetaMode.NORM_RELAXED,
    "alpha": ThetaMode.USER_ALPHA,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hqp",
        description="Convex QP solver with built-in infeasibility certificates "
        "via a homogeneous embedding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("problem", help="path to a problem JSON file")
    p_solve.add_argument("--tol-mu", type=float, default=1e-8)
    p_solve.add_argument("--tol-res", type=float, default=1e-8)
    p_solve.add_argument("--gamma", type=float, default=1e-3)
    p_solve.add_argument("--beta", type=float, default=2.0)
    p_solve.add_argument("--sigma", type=float, default=0.3)
    p_solve.add_argument("--max-iter", type=int, default=200)
    p_solve.add_argument("--zeta", type=float, default=None)
    p_solve.add_argument(
        "--theta", type=float, default=None,
        help="override the automatic embedding parameter (still convexity checked)",
    )
    p_solve.add_argument(
        "--theta-mode", choices=sorted(_THETA_MODES), default=None,
        help="which positive-definiteness bound to use when choosing theta",
    )
    p_solve.add_argument("--format", choices=("json", "text"), default="json")
    p_solve.add_argument("--log", default=None, help="write the per-iteration CSV here")
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

    p_exp = sub.add_parser("experiment", help="sweep instance families")
    p_exp.add_argument("--kinds", default="infeasible_sv,feasible_sv")
    p_exp.add_argument("--sizes", default="10,25,50")
    p_exp.add_argument("--reps", type=int, default=10)
    p_exp.add_argument("--m", type=int, default=1)
    p_exp.add_argument("--out", default=None, help="write the report CSV here")
    return parser


def _solution_document(result, config: IipmConfig, status: str) -> dict:
    outcome = result.outcome
    doc = {
        "status": status,
        "theta_report": result.theta_report.as_dict(),
        "residuals": outcome.diagnostics.copy(),
        "iterations": result.log.as_dicts(),
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


def _emit(doc: dict, fmt: str, output) -> None:
    if fmt == "json":
        text = json.dumps(doc, indent=2, allow_nan=False)
    else:
        text = _render_text(doc)
    if output:
        with open(output, "w") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)


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
            gamma=args.gamma,
            beta=args.beta,
            sigma=args.sigma,
            zeta=args.zeta,
            tol_mu=args.tol_mu,
            tol_res=args.tol_res,
            max_iter=args.max_iter,
        )
    except (ProblemFormatError, ValueError) as exc:
        _emit({"status": "error", "message": str(exc)}, args.format, args.output)
        return EXIT_INPUT

    mode = _THETA_MODES[args.theta_mode] if args.theta_mode else None
    try:
        result = solve_qp(
            problem, config, theta_mode=mode, theta_override=args.theta
        )
    except (SingularKkt, SingularNewton, StepSearchFailed, AmbiguousStatus) as exc:
        # Keep the partial log and the recovery scores the solve attached.
        doc = {"status": "error", "message": str(exc)}
        if getattr(exc, "log", None) is not None:
            doc["iterations"] = exc.log.as_dicts()
        if getattr(exc, "report", None) is not None:
            doc["residuals"] = {"recovery": exc.report.as_dict()}
        _emit(doc, args.format, args.output)
        return EXIT_NUMERICAL
    except HqpError as exc:
        # Validation rejections: rank deficiency, indefiniteness, bad shapes.
        _emit({"status": "error", "message": str(exc)}, args.format, args.output)
        return EXIT_INPUT

    if args.log:
        result.log.to_csv(args.log)
    status = result.outcome.status
    doc = _solution_document(result, config, status.value)
    _emit(doc, args.format, args.output)
    if status is SolveStatus.OPTIMAL:
        return EXIT_OPTIMAL
    if status is SolveStatus.INFEASIBLE:
        return EXIT_INFEASIBLE
    return EXIT_ITERATION_LIMIT


def _cmd_gen(args) -> int:
    try:
        spec = InstanceSpec(kind=InstanceKind(args.kind), n=args.n, m=args.m, seed=args.seed)
        problem = generate(spec)
    except (ValueError, HqpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    text = fileio.dumps_problem(problem)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)
    return 0


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
        problem = fileio.load_problem(args.problem)
        doc = _load_solution(args.solution)
        status = doc["status"]
        if status == "optimal":
            point = QpKktPoint(
                y=np.asarray(doc["y"], dtype=float),
                nu=np.asarray(doc["nu"], dtype=float),
                xi=np.asarray(doc["xi"], dtype=float),
            )
            worst = qp_kkt_residuals(problem, point).max_violation()
        elif status == "infeasible":
            cert = InfeasCertificate(
                nu=np.asarray(doc["cert_nu"], dtype=float),
                xi=np.asarray(doc["cert_xi"], dtype=float),
            )
            worst = check_certificate(problem, cert).max_violation()
        else:
            raise ProblemFormatError(f"nothing to check for status {status!r}")
    except (ProblemFormatError, HqpError, KeyError, TypeError) as exc:
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


def _cmd_experiment(args) -> int:
    try:
        kinds = [InstanceKind(k.strip()) for k in args.kinds.split(",") if k.strip()]
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = run_experiment(kinds, sizes, args.reps, m=args.m)
    if args.out:
        report.to_csv(args.out)
    print(report.summary())
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "gen":
        return _cmd_gen(args)
    if args.command == "check":
        return _cmd_check(args)
    return _cmd_experiment(args)


if __name__ == "__main__":
    sys.exit(main())
