"""Problem-file schema parsing and serialization fidelity."""

import json

import numpy as np
import pytest

from hqp import ProblemFormatError, QpProblem
from hqp.fileio import (
    dumps_problem,
    load_problem,
    loads_problem,
    problem_from_dict,
    problem_to_dict,
)


def sample_doc():
    return {
        "n": 2,
        "m": 1,
        "C": {"format": "dense", "data": [1.0, 0.0, 0.0, 1.0]},
        "c": [1.0, 1.0],
        "E": {"format": "dense", "data": [1.0, 1.0]},
        "f": [-1.0],
    }


class TestParsing:
    def test_dense_round_trip(self):
        p = problem_from_dict(sample_doc())
        assert p.n == 2 and p.m == 1
        assert np.array_equal(p.C, np.eye(2))
        assert np.array_equal(p.E, [[1.0, 1.0]])

    def test_coo_matches_dense(self):
        doc = sample_doc()
        doc["C"] = {"format": "coo", "rows": [0, 1], "cols": [0, 1], "vals": [1.0, 1.0]}
        p = problem_from_dict(doc)
        assert np.array_equal(p.C, np.eye(2))

    def test_coo_duplicates_summed(self):
        doc = sample_doc()
        doc["C"] = {
            "format": "coo",
            "rows": [0, 0, 1],
            "cols": [0, 0, 1],
            "vals": [0.5, 0.5, 1.0],
        }
        p = problem_from_dict(doc)
        assert np.array_equal(p.C, np.eye(2))

    def test_unknown_top_level_field_rejected(self):
        doc = sample_doc()
        doc["comment"] = "hello"
        with pytest.raises(ProblemFormatError):
            problem_from_dict(doc)

    def test_unknown_matrix_field_rejected(self):
        doc = sample_doc()
        doc["C"] = {"format": "dense", "data": [1.0, 0.0, 0.0, 1.0], "shape": [2, 2]}
        with pytest.raises(ProblemFormatError):
            problem_from_dict(doc)

    def test_missing_field_rejected(self):
        doc = sample_doc()
        del doc["f"]
        with pytest.raises(ProblemFormatError):
            problem_from_dict(doc)

    def test_wrong_length_rejected(self):
        doc = sample_doc()
        doc["c"] = [1.0]
        with pytest.raises(ProblemFormatError):
            problem_from_dict(doc)

    def test_out_of_range_coo_index(self):
        doc = sample_doc()
        doc["E"] = {"format": "coo", "rows": [1], "cols": [0], "vals": [1.0]}
        with pytest.raises(ProblemFormatError):
            problem_from_dict(doc)

    def test_bad_dimensions(self):
        doc = sample_doc()
        doc["m"] = 5
        with pytest.raises(ProblemFormatError):
            problem_from_dict(doc)

    def test_nan_rejected(self):
        text = json.dumps(sample_doc()).replace("-1.0", "NaN")
        with pytest.raises(ProblemFormatError):
            loads_problem(text)

    def test_integer_beyond_float_range_rejected(self):
        big = 10**400
        for where in ("C", "c", "E", "f"):
            doc = sample_doc()
            if where in ("C", "E"):
                doc[where]["data"][0] = big
            else:
                doc[where][0] = big
            with pytest.raises(ProblemFormatError, match="finite"):
                problem_from_dict(doc)
        doc = sample_doc()
        doc["C"] = {"format": "coo", "rows": [0, 1], "cols": [0, 1], "vals": [big, 1.0]}
        with pytest.raises(ProblemFormatError, match="finite"):
            problem_from_dict(doc)

    def test_invalid_json(self):
        with pytest.raises(ProblemFormatError):
            loads_problem("{not json")

    def test_bool_is_not_a_number(self):
        doc = sample_doc()
        doc["f"] = [True]
        with pytest.raises(ProblemFormatError):
            problem_from_dict(doc)

    def test_optional_eig_bound(self):
        # A known field, accepted and ignored: not stored, not written back.
        doc = sample_doc()
        doc["min_eig_lower_bound"] = 0.25
        p = problem_from_dict(doc)
        assert not hasattr(p, "min_eig_lower_bound")
        assert "min_eig_lower_bound" not in problem_to_dict(p)
        plain = problem_from_dict(sample_doc())
        assert np.array_equal(p.C, plain.C) and np.array_equal(p.f, plain.f)

    def test_nonpositive_eig_bound_rejected(self):
        for bound in (-1.0, 0.0, "1", True):
            doc = sample_doc()
            doc["min_eig_lower_bound"] = bound
            with pytest.raises(ProblemFormatError):
                problem_from_dict(doc)

    def test_missing_file(self):
        with pytest.raises(ProblemFormatError):
            load_problem("/nonexistent/path.json")


class TestSerializationFidelity:
    def test_float_round_trip_is_exact(self):
        rng = np.random.default_rng(17)
        C = rng.standard_normal((3, 3))
        p = QpProblem(C, rng.standard_normal(3), rng.standard_normal((2, 3)), rng.standard_normal(2))
        back = loads_problem(dumps_problem(p))
        assert np.array_equal(back.C, p.C)
        assert np.array_equal(back.c, p.c)
        assert np.array_equal(back.E, p.E)
        assert np.array_equal(back.f, p.f)

    def test_dict_shape(self):
        p = problem_from_dict(sample_doc())
        doc = problem_to_dict(p)
        assert doc["n"] == 2
        assert doc["C"]["format"] == "dense"
        assert "min_eig_lower_bound" not in doc
