"""The status sweep: 344 solves whose truth never comes from hqp.

feasible_sv and infeasible_sv at n = 10, 25, 50, 100, 200 and 400, seeds
0-19, have their status by construction.  random_spd (30, 5) over seeds
0-19 and (200, 50) over seeds 0-5 each run four ways: plain, with C and c
times 1e-3, column-scaled by d = 10 ** default_rng(seed).uniform(-2, 2, n)
(C -> DCD, c -> Dc, E -> ED, which keeps every objective value), and with f
times 1e3.  Their status is the HiGHS feasibility of {Ey = f, y >= 0},
which no scaling changes.  The iteration total of each group is printed
and not pinned.
"""

import numpy as np
import pytest
import scipy.optimize

from hqp import InstanceKind, InstanceSpec, QpProblem, SolveStatus, generate, solve_qp

SV_SIZES = (10, 25, 50, 100, 200, 400)
SV_SEEDS = range(20)
SPD_GROUPS = (((30, 5), range(20)), ((200, 50), range(6)))
# Relative objective agreement of a column-scaled twin with its plain solve.
TWIN_RTOL = 1e-6


def twins(problem, seed):
    """The four forms of a random_spd instance, by name."""
    d = 10.0 ** np.random.default_rng(seed).uniform(-2, 2, problem.n)
    C, c, E, f = problem.C, problem.c, problem.E, problem.f
    return {
        "plain": problem,
        "C, c x1e-3": QpProblem(C * 1e-3, c * 1e-3, E, f),
        "column-scaled": QpProblem(C * np.outer(d, d), c * d, E * d, f),
        "f x1e3": QpProblem(C, c, E, f * 1e3),
    }


def highs_status(problem):
    """OPTIMAL when {Ey = f, y >= 0} is nonempty, by HiGHS: a convex QP
    that passed validation has an optimum whenever it is feasible."""
    res = scipy.optimize.linprog(
        np.zeros(problem.n), A_eq=problem.E, b_eq=problem.f, bounds=(0, None), method="highs"
    )
    assert res.status in (0, 2), res.message
    return SolveStatus.OPTIMAL if res.status == 0 else SolveStatus.INFEASIBLE


def solve(problem):
    result = solve_qp(problem)
    return result.outcome, len(result.log) - 1


def test_sweep_statuses_and_twins(capsys):
    wrong = []
    totals = {}
    for kind, status in (
        (InstanceKind.FEASIBLE_SV, SolveStatus.OPTIMAL),
        (InstanceKind.INFEASIBLE_SV, SolveStatus.INFEASIBLE),
    ):
        for n in SV_SIZES:
            for seed in SV_SEEDS:
                outcome, iterations = solve(generate(InstanceSpec(kind, n, seed=seed)))
                totals[kind.value] = totals.get(kind.value, 0) + iterations
                if outcome.status is not status:
                    wrong.append(f"{kind.value} n={n} seed={seed}: {outcome.status.value}")

    worst_twin = 0.0
    for (n, m), seeds in SPD_GROUPS:
        for seed in seeds:
            plain = generate(InstanceSpec(InstanceKind.RANDOM_SPD, n, m=m, seed=seed))
            truth = highs_status(plain)
            values = {}
            for name, problem in twins(plain, seed).items():
                outcome, iterations = solve(problem)
                key = f"random_spd ({n}, {m}) {name}"
                totals[key] = totals.get(key, 0) + iterations
                if outcome.status is not truth:
                    wrong.append(f"{key} seed={seed}: {outcome.status.value}, truth {truth.value}")
                elif truth is SolveStatus.OPTIMAL:
                    values[name] = problem.objective(outcome.y)
            if {"plain", "column-scaled"} <= values.keys():
                rel = abs(values["column-scaled"] - values["plain"]) / abs(values["plain"])
                worst_twin = max(worst_twin, rel)
                if rel > TWIN_RTOL:
                    wrong.append(f"random_spd ({n}, {m}) seed={seed}: column-scaled twin off by {rel:.2e}")

    with capsys.disabled():
        print("\nsweep iteration totals: " + "; ".join(f"{k} {v}" for k, v in totals.items()))
        print(f"sweep worst column-scaled twin gap {worst_twin:.2e} (tolerance {TWIN_RTOL:.0e})")
    assert not wrong, "\n".join(wrong)


@pytest.mark.parametrize("seed", [0, 1])
def test_column_scaling_keeps_objective_values(seed):
    # The twin construction itself: y and D^-1 y give equal objectives and
    # equal equality residuals.
    plain = generate(InstanceSpec(InstanceKind.RANDOM_SPD, 30, m=5, seed=seed))
    scaled = twins(plain, seed)["column-scaled"]
    d = 10.0 ** np.random.default_rng(seed).uniform(-2, 2, plain.n)
    y = np.random.default_rng(seed + 100).random(plain.n)
    assert scaled.objective(y / d) == pytest.approx(plain.objective(y), rel=1e-12)
    assert np.allclose(scaled.E @ (y / d), plain.E @ y, rtol=1e-12, atol=1e-12)
