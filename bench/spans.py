"""Spans around the calls into each layer of ``hqp``, from outside the program.

A :class:`Tracer` rebinds the names that callers look up (module functions,
class methods) to wrappers that record a span per call: name, start, end,
parent span and operation id, plus one number per span (file bytes for a
load, matrix order for a factorization).  Spans stay in memory, in flat
arrays, until :meth:`Tracer.save` writes them out.  :func:`layer_metrics`
turns them into per-layer figures.
"""

from __future__ import annotations

import os
import time
from array import array

import numpy as np

import hqp
import hqp.cli
import hqp.fileio
import hqp.iipm
import hqp.linsys
import hqp.pipeline


def _file_bytes(args, kwargs):
    return float(os.path.getsize(args[0]))


def _matrix_order(args, kwargs):
    return float(args[1].shape[0])  # args[0] is the instance being built


# (owner, attribute, span name, per-span number).  Each owner is the object
# the caller looks the name up on, so rebinding the attribute reaches every
# call made through it.
TARGETS = (
    (hqp.pipeline, "validate", "qp.validate", None),
    (hqp.pipeline, "compute_theta", "embedding.compute_theta", None),
    (hqp.iipm, "solve", "iipm.solve", None),
    (hqp.iipm, "newton_direction", "iipm.newton_direction", None),
    (hqp.iipm, "step_length", "iipm.step_length", None),
    (hqp.iipm, "recover", "embedding.recover", None),
    (hqp.iipm.IipmIterate, "compute", "iipm.IipmIterate.compute", None),
    (hqp.linsys, "solve_newton_system", "linsys.solve_newton_system", None),
    (hqp.linsys, "newton_backward_error", "linsys.newton_backward_error", None),
    (hqp.linsys.AugmentedFactorization, "__init__", "linsys.factorize", _matrix_order),
    (hqp.linsys.AugmentedFactorization, "backsolve", "linsys.backsolve", None),
    (hqp.fileio, "load_problem", "fileio.load_problem", _file_bytes),
    (hqp.cli, "solve_qp", "cli.solve_qp", None),
    (hqp.cli, "main", "cli.main", None),
)

OP = "op"


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.names = [OP] + [t[2] for t in TARGETS]
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.value = array("d")
        self._stack = []
        self._op_id = -1
        self._saved = []

    def open(self, name_id: int, value: float = 0.0) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.value.append(value)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def open_op(self) -> int:
        self._op_id += 1
        return self.open(0)

    def _wrap(self, fn, name: str, number):
        name_id = self._name_id[name]
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name_id, number(args, kwargs) if number else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, number in TARGETS:
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                # Bind to the class, then re-expose the wrapper unbound.
                wrapped = staticmethod(self._wrap(getattr(owner, attr), name, number))
            else:
                wrapped = self._wrap(raw, name, number)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


PER_LAYER = (
    # name, unit
    ("qp.validate_ms", "ms/solve"),
    ("embedding.compute_theta_ms", "ms/solve"),
    ("embedding.recover_ms", "ms/solve"),
    ("iipm.solve_ms", "ms/solve"),
    ("iipm.iterations", "count/solve"),
    ("iipm.iter_ms", "ms/iteration"),
    ("iipm.newton_direction_ms", "ms/iteration"),
    ("iipm.step_length_ms", "ms/iteration"),
    ("iipm.step_trials", "count/iteration"),
    ("iipm.loop_self_ms", "ms/iteration"),
    ("linsys.newton_solve_ms", "ms/iteration"),
    ("linsys.factorize_ms", "ms/iteration"),
    ("linsys.factorize_gflops", "GFLOP/s"),
    ("linsys.factorizations", "count/newton"),
    ("linsys.backsolves", "count/newton"),
    ("linsys.backward_error_calls", "count/direction"),
    ("linsys.backward_error_ms", "ms/iteration"),
    ("fileio.load_ms", "ms/file"),
    ("fileio.load_mb_per_s", "MB/s"),
    ("cli.self_ms", "ms/operation"),
)


def layer_metrics(names: list, spans: dict) -> dict:
    """Per-layer figures from recorded spans.

    Self time is a span's duration minus the durations of its direct
    children (calls nest, so children never overlap).  Layers that never
    ran in the trace report 0.
    """
    ids = {name: i for i, name in enumerate(names)}
    name = spans["name"]
    parent = spans["parent"]
    value = spans["value"]
    dur_ms = (spans["end_ns"] - spans["start_ns"]) / 1e6
    has_parent = parent >= 0
    parent_name = np.full(name.size, -1)
    parent_name[has_parent] = name[parent[has_parent]]
    child_ms = np.bincount(parent[has_parent], weights=dur_ms[has_parent], minlength=name.size)

    def sel(span, under=None):
        mask = name == ids[span]
        if under is not None:
            mask &= np.isin(parent_name, [ids[u] for u in under])
        return mask

    def ratio(num, den):
        return float(num / den) if den else 0.0

    solves = int(sel("iipm.solve").sum())
    iters = int(sel("iipm.newton_direction").sum())
    newton = int(sel("linsys.solve_newton_system").sum())
    steps = int(sel("iipm.step_length").sum())
    ops = int(sel(OP).sum())

    loop = sel("iipm.solve")
    loop_children = sel("iipm.newton_direction") | sel("iipm.step_length") | sel("embedding.recover")
    loop_self_ms = dur_ms[loop].sum() - dur_ms[loop_children].sum()

    fact = sel("linsys.factorize", under=["linsys.solve_newton_system"])
    fact_flops = (2.0 / 3.0) * (value[fact] ** 3).sum()
    backsolve = sel("linsys.backsolve", under=["linsys.solve_newton_system"])
    backward = sel(
        "linsys.newton_backward_error",
        under=["linsys.solve_newton_system", "iipm.newton_direction"],
    )
    loads = sel("fileio.load_problem")
    main = sel("cli.main")

    return {
        "qp.validate_ms": ratio(dur_ms[sel("qp.validate")].sum(), solves),
        "embedding.compute_theta_ms": ratio(dur_ms[sel("embedding.compute_theta")].sum(), solves),
        "embedding.recover_ms": ratio(dur_ms[sel("embedding.recover")].sum(), solves),
        "iipm.solve_ms": ratio(dur_ms[loop].sum(), solves),
        "iipm.iterations": ratio(iters, solves),
        "iipm.iter_ms": ratio(dur_ms[loop].sum(), iters),
        "iipm.newton_direction_ms": ratio(dur_ms[sel("iipm.newton_direction")].sum(), iters),
        "iipm.step_length_ms": ratio(dur_ms[sel("iipm.step_length")].sum(), iters),
        "iipm.step_trials": ratio(
            int(sel("iipm.IipmIterate.compute", under=["iipm.step_length"]).sum()), steps
        ),
        "iipm.loop_self_ms": ratio(loop_self_ms, iters),
        "linsys.newton_solve_ms": ratio(dur_ms[sel("linsys.solve_newton_system")].sum(), iters),
        "linsys.factorize_ms": ratio(dur_ms[fact].sum(), iters),
        "linsys.factorize_gflops": ratio(fact_flops / 1e9, dur_ms[fact].sum() / 1e3),
        "linsys.factorizations": ratio(int(fact.sum()), newton),
        "linsys.backsolves": ratio(int(backsolve.sum()), newton),
        "linsys.backward_error_calls": ratio(int(backward.sum()), iters),
        "linsys.backward_error_ms": ratio(dur_ms[backward].sum(), iters),
        "fileio.load_ms": ratio(dur_ms[loads].sum(), int(loads.sum())),
        "fileio.load_mb_per_s": ratio(value[loads].sum() / 1e6, dur_ms[loads].sum() / 1e3),
        "cli.self_ms": ratio((dur_ms[main] - child_ms[main]).sum(), ops),
    }
