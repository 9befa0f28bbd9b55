"""Problem-file JSON schema: parsing, validation, serialization.

A problem file is a single JSON document:

    {
      "n": int, "m": int,
      "C": <matrix>, "c": [n numbers],
      "E": <matrix>, "f": [m numbers],
      "min_eig_lower_bound": number        (optional, ignored)
    }

where <matrix> is either
    {"format": "dense", "data": [row-major numbers]}
or
    {"format": "coo", "rows": [...], "cols": [...], "vals": [...]}
with 0-based indices and duplicate entries summed.  Unknown fields are
rejected, as are non-finite numbers.  ``min_eig_lower_bound`` is accepted
for older files and must be a positive number, but it is neither stored
nor written back: theta is always chosen from the exact reduced-Hessian
eigenvalue.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ProblemFormatError
from .qp import QpProblem

_TOP_FIELDS = {"n", "m", "C", "c", "E", "f", "min_eig_lower_bound"}
_DENSE_FIELDS = {"format", "data"}
_COO_FIELDS = {"format", "rows", "cols", "vals"}


def _reject_constant(name):
    raise ProblemFormatError(f"non-finite number {name!r} is not allowed")


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFormatError(f"{where}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ProblemFormatError(f"{where}: number must be finite") from None
    if not np.isfinite(value):
        raise ProblemFormatError(f"{where}: number must be finite")
    return value


def _require_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemFormatError(f"{where}: expected an integer, got {value!r}")
    return value


def _number_list(value, length: int, where: str) -> np.ndarray:
    if not isinstance(value, list):
        raise ProblemFormatError(f"{where}: expected a list")
    if len(value) != length:
        raise ProblemFormatError(f"{where}: expected {length} entries, got {len(value)}")
    return np.array([_require_number(v, where) for v in value], dtype=float)


def _decode_matrix(obj, rows: int, cols: int, where: str) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ProblemFormatError(f"{where}: expected a matrix object")
    fmt = obj.get("format")
    if fmt == "dense":
        unknown = set(obj) - _DENSE_FIELDS
        if unknown:
            raise ProblemFormatError(f"{where}: unknown fields {sorted(unknown)}")
        data = _number_list(obj.get("data"), rows * cols, f"{where}.data")
        return data.reshape(rows, cols)
    if fmt == "coo":
        unknown = set(obj) - _COO_FIELDS
        if unknown:
            raise ProblemFormatError(f"{where}: unknown fields {sorted(unknown)}")
        r = obj.get("rows")
        c = obj.get("cols")
        v = obj.get("vals")
        if not (isinstance(r, list) and isinstance(c, list) and isinstance(v, list)):
            raise ProblemFormatError(f"{where}: rows/cols/vals must be lists")
        if not len(r) == len(c) == len(v):
            raise ProblemFormatError(f"{where}: rows/cols/vals lengths differ")
        out = np.zeros((rows, cols))
        for i, j, val in zip(r, c, v):
            i = _require_int(i, f"{where}.rows")
            j = _require_int(j, f"{where}.cols")
            if not (0 <= i < rows and 0 <= j < cols):
                raise ProblemFormatError(f"{where}: index ({i}, {j}) out of range")
            out[i, j] += _require_number(val, f"{where}.vals")
        return out
    raise ProblemFormatError(f"{where}: unknown matrix format {fmt!r}")


def problem_from_dict(doc: dict) -> QpProblem:
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem document must be a JSON object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise ProblemFormatError(f"unknown fields {sorted(unknown)}")
    for required in ("n", "m", "C", "c", "E", "f"):
        if required not in doc:
            raise ProblemFormatError(f"missing field {required!r}")
    n = _require_int(doc["n"], "n")
    m = _require_int(doc["m"], "m")
    if n < 1 or m < 0 or m > n:
        raise ProblemFormatError(f"need n >= 1 and 0 <= m <= n, got n={n}, m={m}")
    C = _decode_matrix(doc["C"], n, n, "C")
    c = _number_list(doc["c"], n, "c")
    E = _decode_matrix(doc["E"], m, n, "E")
    f = _number_list(doc["f"], m, "f")
    bound = doc.get("min_eig_lower_bound")
    if bound is not None and _require_number(bound, "min_eig_lower_bound") <= 0.0:
        raise ProblemFormatError(f"min_eig_lower_bound must be positive, got {bound}")
    try:
        return QpProblem(C, c, E if m else None, f if m else None)
    except Exception as exc:
        raise ProblemFormatError(f"problem data rejected: {exc}") from exc


def problem_to_dict(problem: QpProblem) -> dict:
    return {
        "n": problem.n,
        "m": problem.m,
        "C": {"format": "dense", "data": problem.C.ravel().tolist()},
        "c": problem.c.tolist(),
        "E": {"format": "dense", "data": problem.E.ravel().tolist()},
        "f": problem.f.tolist(),
    }


def loads_problem(text: str) -> QpProblem:
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"not valid JSON: {exc}") from exc
    return problem_from_dict(doc)


def load_problem(path) -> QpProblem:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from exc
    return loads_problem(text)


def dumps_problem(problem: QpProblem) -> str:
    return json.dumps(problem_to_dict(problem), allow_nan=False)


def save_problem(problem: QpProblem, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_problem(problem))
        fh.write("\n")
