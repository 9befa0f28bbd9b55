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
with 0-based integer indices and duplicate entries summed in file order.
Unknown fields are rejected.  A number is a JSON integer or float that is
finite as a double: booleans, strings, null, nested lists and objects are
refused, and so are NaN, Infinity, literals such as 1e999 that overflow to
infinity, and integers beyond the float range.  A COO index must be a
JSON integer (1.0 is refused) inside the matrix.

Each list is checked in one pass: one scan of its entries' types, one
conversion to an array and one finiteness or range test.  Only when a
list fails is it searched for the first offending entry, which the error
names together with the field.  ``hqp check`` reads the vectors of a
solution document through the same ``number_vector``.

The vectors ``c`` and ``f`` are checked before the matrices, so a wrong
``n`` or ``m`` is refused before an ``n x n`` array is allocated.
``min_eig_lower_bound`` is accepted for older files and must be a positive
number, but it is neither stored nor written back: theta is always chosen
from the exact reduced-Hessian eigenvalue.

The writer (``problem_to_dict``, hence ``dumps_problem``, ``save_problem``
and ``hqp gen``) emits a matrix as COO, its nonzeros in row-major order,
when fewer than one entry in three is nonzero, and dense otherwise.  A COO
entry's two indices take about as much text as two dense zeros, so COO is
the shorter text below that density.  An empty matrix (m = 0) and one that
holds a -0.0 are written dense, so every written file loads back bitwise.
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


def _require_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemFormatError(f"{where}: expected an integer, got {value!r}")
    return value


def _require_list(value, kinds: tuple, noun: str, where: str, length=None) -> None:
    """Refuse ``value`` unless it is a list (of ``length`` entries, when
    given) whose entries are all instances of ``kinds`` and not booleans."""
    if not isinstance(value, list):
        raise ProblemFormatError(f"{where}: expected a list")
    if length is not None and len(value) != length:
        raise ProblemFormatError(f"{where}: expected {length} entries, got {len(value)}")
    if set(map(type, value)) <= set(kinds):
        return
    # Subclasses such as numpy floats fail the exact-type scan but pass here.
    for v in value:
        if isinstance(v, bool) or not isinstance(v, kinds):
            raise ProblemFormatError(f"{where}: expected {noun}, got {v!r}")


def number_vector(value, where: str, length=None) -> np.ndarray:
    """``value`` as a float vector: a list of JSON numbers, each finite as a
    double, of ``length`` entries when given; otherwise ProblemFormatError."""
    _require_list(value, (int, float), "a number", where, length)
    try:
        out = np.array(value, dtype=float)
    except OverflowError:  # an integer literal beyond the float range
        raise ProblemFormatError(f"{where}: number must be finite") from None
    finite = np.isfinite(out)
    if not finite.all():
        bad = value[int(np.argmin(finite))]
        raise ProblemFormatError(f"{where}: number must be finite, got {bad!r}")
    return out


def _index_vector(value, bound: int, where: str) -> np.ndarray:
    """``value`` as int64 indices in ``[0, bound)``; otherwise
    ProblemFormatError.  An integer too large for int64 is out of range."""
    _require_list(value, (int,), "an integer", where)
    try:
        out = np.array(value, dtype=np.int64)
    except OverflowError:  # beyond int64, hence beyond any matrix dimension
        out = None
    if out is None or not ((out >= 0) & (out < bound)).all():
        bad = next(v for v in value if not 0 <= v < bound)
        raise ProblemFormatError(f"{where}: index {bad} out of range [0, {bound})")
    return out


def _decode_matrix(obj, rows: int, cols: int, where: str) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ProblemFormatError(f"{where}: expected a matrix object")
    fmt = obj.get("format")
    if fmt == "dense":
        unknown = set(obj) - _DENSE_FIELDS
        if unknown:
            raise ProblemFormatError(f"{where}: unknown fields {sorted(unknown)}")
        data = number_vector(obj.get("data"), f"{where}.data", rows * cols)
        return data.reshape(rows, cols)
    if fmt == "coo":
        unknown = set(obj) - _COO_FIELDS
        if unknown:
            raise ProblemFormatError(f"{where}: unknown fields {sorted(unknown)}")
        i = _index_vector(obj.get("rows"), rows, f"{where}.rows")
        j = _index_vector(obj.get("cols"), cols, f"{where}.cols")
        vals = number_vector(obj.get("vals"), f"{where}.vals")
        if not len(i) == len(j) == len(vals):
            raise ProblemFormatError(f"{where}: rows/cols/vals lengths differ")
        out = np.zeros((rows, cols))
        # Unbuffered: duplicates are summed one at a time in file order.
        np.add.at(out, (i, j), vals)
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
    # The vectors first: their lengths confirm n and m before the matrices
    # are allocated.
    c = number_vector(doc["c"], "c", n)
    f = number_vector(doc["f"], "f", m)
    C = _decode_matrix(doc["C"], n, n, "C")
    E = _decode_matrix(doc["E"], m, n, "E")
    bound = doc.get("min_eig_lower_bound")
    if bound is not None and number_vector([bound], "min_eig_lower_bound")[0] <= 0.0:
        raise ProblemFormatError(f"min_eig_lower_bound must be positive, got {bound}")
    try:
        return QpProblem(C, c, E if m else None, f if m else None)
    except Exception as exc:
        raise ProblemFormatError(f"problem data rejected: {exc}") from exc


def _matrix_to_dict(a: np.ndarray) -> dict:
    """``a`` as COO when fewer than one entry in three is nonzero, else
    dense.  The reader sums COO entries into +0.0, which cannot give back
    a -0.0, so a matrix holding one is written dense."""
    nonzero = a != 0.0
    if 3 * np.count_nonzero(nonzero) < a.size and not np.signbit(a[~nonzero]).any():
        rows, cols = np.nonzero(nonzero)
        return {
            "format": "coo",
            "rows": rows.tolist(),
            "cols": cols.tolist(),
            "vals": a[nonzero].tolist(),
        }
    return {"format": "dense", "data": a.ravel().tolist()}


def problem_to_dict(problem: QpProblem) -> dict:
    return {
        "n": problem.n,
        "m": problem.m,
        "C": _matrix_to_dict(problem.C),
        "c": problem.c.tolist(),
        "E": _matrix_to_dict(problem.E),
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
