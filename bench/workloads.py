"""The four workloads: their instances, the operation each one times, and
the reference each answer is checked against.

A workload is one round of operations; a run repeats whole rounds, so the
share of failed operations is the same however long the run.  Instance
seeds come from the run's ``--seed`` (sv_stream takes its fixed instances
and only their order from it); the program receives only the problem data.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

import hqp
import hqp.cli
import hqp.fileio
from checks import CheckFailed, Reference, check_twin_values, spd_reference, sv_reference

NAMES = ("sv_large", "spd_mixed", "sv_stream", "cli_files")

SV_LARGE_N = 1000
SPD_N, SPD_M = 200, 50
SPD_PLAIN, SPD_SCALED = 6, 3
STREAM_SIZES = (10, 25, 50, 100)
STREAM_SEEDS = range(20)
CLI_SV_N = 400


@dataclass
class Op:
    """One operation of a round: a solve_qp call, or `hqp solve` plus
    `hqp check` on files when ``path`` is set."""

    label: str
    family: str
    problem: hqp.QpProblem
    ref: Reference
    path: Optional[str] = None
    twin_of: Optional[int] = None  # round index of the unscaled instance


def _data(problem: hqp.QpProblem) -> tuple:
    return problem.C, problem.c, problem.E, problem.f


def _instance(kind: str, n: int, seed: int, m: int = 1) -> Op:
    problem = hqp.generate(hqp.InstanceSpec(kind=kind, n=n, m=m, seed=int(seed)))
    if kind == "random_spd":
        family, ref = f"{kind}/n={n}/m={m}", spd_reference(*_data(problem))
    else:
        family, ref = f"{kind}/n={n}", sv_reference(*_data(problem))
    return Op(f"{family}/seed={int(seed)}", family, problem, ref)


def _column_scaled(op: Op, exponents: np.ndarray, source: int) -> Op:
    """Twin with y = D y', D = diag(10^exponents): C' = DCD, c' = Dc,
    E' = ED, f' = f.  Feasibility and the optimal value are unchanged."""
    p = op.problem
    d = 10.0**exponents
    problem = hqp.QpProblem(p.C * np.outer(d, d), p.c * d, p.E * d, p.f)
    ref = spd_reference(*_data(problem))
    return Op(op.label + "/scaled", op.family + "/scaled", problem, ref, twin_of=source)


def build(name: str, seed: int, workdir: str) -> list:
    """Instances of one round of ``name``, with references; cli_files also
    writes its problem files into ``workdir``."""
    rng = np.random.default_rng([zlib.crc32(name.encode()), seed])
    draw = lambda k: rng.integers(0, 2**31, size=k)
    if name == "sv_large":
        # Two feasible (29 iterations) to one infeasible (19-21): the median
        # then sits inside the feasible mode instead of between the modes.
        f1, f2, i1 = draw(3)
        return [
            _instance("feasible_sv", SV_LARGE_N, f1),
            _instance("feasible_sv", SV_LARGE_N, f2),
            _instance("infeasible_sv", SV_LARGE_N, i1),
        ]
    if name == "spd_mixed":
        # Scaled twins take about twice the iterations (70 against 33).  Two
        # plain solves to one scaled keep the median inside the plain mode
        # and still give the scaled solves half of the time.
        plain = [_instance("random_spd", SPD_N, s, m=SPD_M) for s in draw(SPD_PLAIN)]
        exponents = rng.uniform(-2.0, 2.0, size=(SPD_SCALED, SPD_N))
        ops = []
        for i, op in enumerate(plain):
            ops.append(op)
            if i < SPD_SCALED:
                ops.append(_column_scaled(op, exponents[i], len(ops) - 1))
        return ops
    if name == "sv_stream":
        ops = [
            _instance(kind, n, s)
            for kind in ("feasible_sv", "infeasible_sv")
            for n in STREAM_SIZES
            for s in STREAM_SEEDS
        ]
        return [ops[i] for i in rng.permutation(len(ops))]
    if name == "cli_files":
        s1, s2, s3 = draw(3)
        ops = [
            _instance("feasible_sv", CLI_SV_N, s1),
            _instance("infeasible_sv", CLI_SV_N, s2),
            _instance("random_spd", SPD_N, s3, m=SPD_M),
        ]
        for i, op in enumerate(ops):
            op.path = os.path.join(workdir, f"problem{i}.json")
            hqp.fileio.save_problem(op.problem, op.path)
        return ops
    raise ValueError(f"unknown workload {name!r}")


class OpFailed(Exception):
    """The program reported an error instead of an answer."""


def run_timed(op: Op):
    """The timed part of an operation.  Raises OpFailed when the program
    gives no answer."""
    if op.path is None:
        try:
            return hqp.solve_qp(op.problem)
        except hqp.HqpError as exc:
            raise OpFailed(f"{type(exc).__name__}: {exc}") from exc
    solution = op.path[: -len(".json")] + ".solution.json"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        solve_code = hqp.cli.main(["solve", op.path, "--output", solution])
        if solve_code not in (hqp.cli.EXIT_OPTIMAL, hqp.cli.EXIT_INFEASIBLE):
            raise OpFailed(f"hqp solve exited with {solve_code}")
        check_code = hqp.cli.main(["check", op.path, solution])
    return solution, solve_code, check_code, out.getvalue()


_FIELDS = ("y", "nu", "xi", "cert_nu", "cert_xi")


def answer(op: Op, raw) -> dict:
    """The status, the answer arrays, and the iteration count and theta of
    an operation's result.  For cli_files they are read back from the
    solution file, after `hqp check` must have passed.  Raises CheckFailed."""
    if op.path is None:
        outcome = raw.outcome
        out = {k: getattr(outcome, k) for k in _FIELDS if getattr(outcome, k) is not None}
        out["status"] = outcome.status.value
        out["iterations"] = outcome.diagnostics["iterations"]
        out["theta"] = raw.theta_report.theta
        return out
    solution, solve_code, check_code, text = raw
    if check_code != 0:
        raise CheckFailed(f"hqp check exited with {check_code}: {text.strip()}")
    with open(solution) as fh:
        doc = json.load(fh)
    expected_code = {"optimal": hqp.cli.EXIT_OPTIMAL, "infeasible": hqp.cli.EXIT_INFEASIBLE}
    if expected_code.get(doc["status"]) != solve_code:
        raise CheckFailed(f"status {doc['status']!r} with hqp solve exit code {solve_code}")
    out = {k: np.asarray(doc[k], dtype=float) for k in _FIELDS if k in doc}
    out["status"] = doc["status"]
    out["iterations"] = doc["residuals"]["iterations"]
    out["theta"] = doc["theta_report"]["theta"]
    return out


class Round:
    """Outcome of one pass over a workload's operations."""

    def __init__(self):
        self.times_s = []
        self.failed_at = []  # round indices of the operations that gave no answer
        self.passed = 0
        self.errors = []
        self.answers = {}  # round index -> answer, for the operations that gave one

    @property
    def failed(self) -> int:
        return len(self.failed_at)

    @property
    def seconds(self) -> float:
        return sum(self.times_s)


def run_round(ops: list, layout_rng, tracer=None) -> Round:
    """Run every operation once, timing only the calls into the program,
    then check each answer and each twin pair."""
    rnd = Round()
    values = {}
    for i, op in enumerate(ops):
        # The solver's temporaries most likely reuse freed heap blocks, so
        # one process would keep one memory layout for all its solves, and
        # layouts alone moved spd_mixed by 30-40% between processes.  Blocks
        # of random sizes held through each operation give every operation
        # its own layout, so a run's medians are taken over layouts instead
        # of resting on one draw (the idea of Curtsinger and Berger's
        # Stabilizer, ASPLOS 2013).
        padding = [np.empty(int(k), np.uint8) for k in layout_rng.integers(1, 2**20, 4)]
        span = tracer.open_op() if tracer else None
        t0 = time.perf_counter()
        try:
            raw = run_timed(op)
        except OpFailed:
            raw = None
        rnd.times_s.append(time.perf_counter() - t0)
        if tracer:
            tracer.close(span)
        del padding
        if raw is None:
            rnd.failed_at.append(i)
            continue
        try:
            rnd.answers[i] = answer(op, raw)
            values[i] = op.ref.verify(rnd.answers[i])
            rnd.passed += 1
        except CheckFailed as exc:
            rnd.errors.append(f"{op.label}: {exc}")
    for i, op in enumerate(ops):
        if op.twin_of is not None and i in values and op.twin_of in values:
            try:
                check_twin_values(values[op.twin_of], values[i])
            except CheckFailed as exc:
                rnd.errors.append(f"{op.label}: {exc}")
    return rnd
