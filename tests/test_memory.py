"""What a solve keeps and allocates."""

import gc
import tracemalloc
import weakref

import hqp.iipm
from hqp import AmbiguousStatus, InstanceKind, InstanceSpec, generate, solve_qp


def test_ambiguous_recovery_keeps_nothing_alive(monkeypatch):
    # feasible_sv n=10 seed 12 reaches mu <= tol_mu with neither route
    # certified.  The solve must not keep that exception: its traceback
    # holds the solve's frame, and the cycle would keep every array of the
    # solve alive until the cyclic collector runs.
    attempts = []
    raw = hqp.iipm.recover

    def counting(*args, **kwargs):
        try:
            return raw(*args, **kwargs)
        except AmbiguousStatus:
            attempts.append(1)
            raise

    monkeypatch.setattr(hqp.iipm, "recover", counting)
    problem = generate(InstanceSpec(InstanceKind.FEASIBLE_SV, 10, seed=12))
    gc.collect()
    gc.disable()
    try:
        result = solve_qp(problem)
        assert attempts
        lifted = weakref.ref(result.hqp)
        del result
        assert lifted() is None
    finally:
        gc.enable()


def test_solve_allocates_no_square_array():
    # On feasible_sv (C = I) no step of a solve needs an n x n temporary:
    # the traced peak stays below half of one n x n float64 array.
    n = 500
    problem = generate(InstanceSpec(InstanceKind.FEASIBLE_SV, n, seed=0))
    solve_qp(problem)
    tracemalloc.start()
    try:
        solve_qp(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * n * n * 8
