"""Problem-file schema parsing and serialization fidelity."""

import json

import numpy as np
import pytest

import hqp
from hqp import ProblemFormatError, QpProblem
from hqp import fileio
from hqp.fileio import (
    dumps_problem,
    load_problem,
    loads_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
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


def round_trip_doc(p):
    """The written document of ``p``, after checking that the text loads
    back to bitwise the same arrays."""
    back = loads_problem(dumps_problem(p))
    for a, b in ((back.C, p.C), (back.c, p.c), (back.E, p.E), (back.f, p.f)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    return json.loads(dumps_problem(p))


class TestWriterFormat:
    """A matrix is written COO when fewer than one entry in three is
    nonzero, dense otherwise."""

    def test_sv_files(self):
        for kind in ("feasible_sv", "infeasible_sv"):
            p = hqp.generate(hqp.InstanceSpec(kind=kind, n=50, seed=2))
            doc = round_trip_doc(p)
            assert doc["C"] == {
                "format": "coo",
                "rows": list(range(50)),
                "cols": list(range(50)),
                "vals": [1.0] * 50,
            }
            assert doc["E"]["format"] == "dense"
            assert doc["E"]["data"] == p.E.ravel().tolist()
            # A file written dense, as before the COO writer, loads the same.
            dense = dict(doc, C={"format": "dense", "data": p.C.ravel().tolist()})
            assert problem_from_dict(dense).C.tobytes() == p.C.tobytes()

    def test_dense_spd(self):
        p = hqp.generate(hqp.InstanceSpec(kind="random_spd", n=20, m=5, seed=1))
        doc = round_trip_doc(p)
        assert doc["C"]["format"] == "dense" and doc["E"]["format"] == "dense"

    def test_coo_is_row_major_and_at_the_threshold(self):
        C = np.diag([2.0, 0.0, 3.0, 1.0])
        C[0, 2] = C[2, 0] = -1.0
        p = QpProblem(C, np.zeros(4))
        assert round_trip_doc(p)["C"] == {
            "format": "coo",
            "rows": [0, 0, 2, 2, 3],
            "cols": [0, 2, 0, 2, 3],
            "vals": [2.0, -1.0, -1.0, 3.0, 1.0],
        }
        # 3 nonzeros of 9 is one in three: dense.  2 of 9 is fewer: COO.
        doc = round_trip_doc(QpProblem(np.diag([1.0, 2.0, 3.0]), np.zeros(3)))
        assert doc["C"] == {"format": "dense", "data": np.diag([1.0, 2.0, 3.0]).ravel().tolist()}
        doc = round_trip_doc(QpProblem(np.diag([1.0, 0.0, 3.0]), np.zeros(3)))
        assert doc["C"]["format"] == "coo"

    @pytest.mark.parametrize("density", [0.05, 0.3, 0.34, 0.6])
    def test_random_density_round_trip(self, density):
        rng = np.random.default_rng(int(density * 100))
        n, m = 30, 12
        C = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
        E = rng.standard_normal((m, n)) * (rng.random((m, n)) < density)
        # A negative draw times 0 is -0.0, which would make the matrix dense.
        C[C == 0.0] = 0.0
        E[E == 0.0] = 0.0
        p = QpProblem(C, rng.standard_normal(n), E, rng.standard_normal(m))
        doc = round_trip_doc(p)
        for name, a in (("C", p.C), ("E", p.E)):
            sparse = 3 * np.count_nonzero(a) < a.size
            assert doc[name]["format"] == ("coo" if sparse else "dense")

    def test_all_zero_C_is_empty_coo(self):
        p = QpProblem(np.zeros((4, 4)), np.ones(4), np.ones((1, 4)), [1.0])
        doc = round_trip_doc(p)
        assert doc["C"] == {"format": "coo", "rows": [], "cols": [], "vals": []}

    def test_no_rows_is_empty_dense(self):
        p = QpProblem(np.eye(3), np.ones(3))
        doc = round_trip_doc(p)
        assert doc["m"] == 0 and doc["f"] == []
        assert doc["E"] == {"format": "dense", "data": []}

    def test_negative_zero_survives(self):
        # Summing COO entries into +0.0 loses the sign, so a matrix that
        # holds a -0.0 is written dense, however sparse it is.
        C = np.eye(6)
        C[3, 3] = -0.0
        E = np.zeros((2, 6))
        E[0, 0], E[1, 4] = 1.0, -0.0
        p = QpProblem(C, np.zeros(6), E, [1.0, 0.0])
        doc = round_trip_doc(p)
        assert doc["C"]["format"] == "dense" and doc["E"]["format"] == "dense"
        back = loads_problem(dumps_problem(p))
        assert np.signbit(back.C[3, 3]) and np.signbit(back.E[1, 4])
        E[1, 4] = 0.0
        doc = round_trip_doc(QpProblem(np.eye(6), np.zeros(6), E, [1.0, 0.0]))
        assert doc["E"]["format"] == "coo"


def coo_doc():
    doc = sample_doc()
    doc["C"] = {"format": "coo", "rows": [0, 1], "cols": [0, 1], "vals": [1.0, 1.0]}
    return doc


def entry_slot(doc, field):
    """The list that holds ``field`` in ``doc``, and the index of the entry to
    replace: the last one, so the entries before it are valid."""
    if "." in field:
        matrix, key = field.split(".")
        target = doc[matrix][key]
    else:
        target = doc[field]
    return target, len(target) - 1


class TestVectorizedChecks:
    """Each number list is checked in one pass; the error still names the
    field and, where it can be shown, the offending entry."""

    BAD = {
        "true": "true",
        "string": '"1"',
        "null": "null",
        "list": "[1]",
        "object": "{}",
        "huge_integer": "1" + "0" * 400,
        "overflowing_float": "1e999",
    }

    @pytest.mark.parametrize("literal", BAD.values(), ids=BAD.keys())
    @pytest.mark.parametrize("field", ["C.data", "c", "f", "C.rows", "C.vals"])
    def test_bad_entry_names_its_field(self, field, literal):
        doc = coo_doc() if field in ("C.rows", "C.vals") else sample_doc()
        target, k = entry_slot(doc, field)
        target[k] = "PLACEHOLDER"
        text = json.dumps(doc).replace('"PLACEHOLDER"', literal)
        with pytest.raises(ProblemFormatError) as info:
            loads_problem(text)
        assert str(info.value).startswith(f"{field}: ")

    @pytest.mark.parametrize("key", ["rows", "cols"])
    def test_index_beyond_int64_is_out_of_range(self, key):
        doc = coo_doc()
        doc["C"][key][1] = 10**30
        with pytest.raises(ProblemFormatError, match=f"C.{key}: index 1{'0' * 30} out of range"):
            problem_from_dict(doc)
        doc["C"][key][1] = -(10**30)
        with pytest.raises(ProblemFormatError, match="out of range"):
            problem_from_dict(doc)

    def test_float_index_refused(self):
        doc = coo_doc()
        doc["C"]["cols"][1] = 1.0
        with pytest.raises(ProblemFormatError, match=r"C.cols: expected an integer, got 1.0"):
            problem_from_dict(doc)

    def test_first_offending_entry_is_named(self):
        doc = sample_doc()
        doc["C"]["data"] = [1.0, "x", True, 1.0]
        with pytest.raises(ProblemFormatError, match="C.data: expected a number, got 'x'"):
            problem_from_dict(doc)
        doc = coo_doc()
        doc["C"]["rows"] = [0, -1]
        with pytest.raises(ProblemFormatError, match=r"C.rows: index -1 out of range \[0, 2\)"):
            problem_from_dict(doc)

    def test_coo_lists_and_lengths(self):
        doc = coo_doc()
        doc["C"]["vals"] = 1.0
        with pytest.raises(ProblemFormatError, match="C.vals: expected a list"):
            problem_from_dict(doc)
        doc["C"]["vals"] = [1.0]
        with pytest.raises(ProblemFormatError, match="C: rows/cols/vals lengths differ"):
            problem_from_dict(doc)

    def test_coo_duplicates_match_loop_reference(self):
        # Many duplicates of values spread over 12 decades, so a different
        # summation order would change the last bits.
        rng = np.random.default_rng(5)
        n, m, k = 6, 4, 400
        doc = {"n": n, "m": m, "c": [0.0] * n, "f": [0.0] * m}
        expected = {}
        for name, rows in (("C", n), ("E", m)):
            r = rng.integers(0, rows, size=k).tolist()
            c = rng.integers(0, n, size=k).tolist()
            v = (rng.standard_normal(k) * 10.0 ** rng.uniform(-6, 6, size=k)).tolist()
            doc[name] = {"format": "coo", "rows": r, "cols": c, "vals": v}
            ref = np.zeros((rows, n))
            for i, j, val in zip(r, c, v):
                ref[i, j] += val
            expected[name] = ref
        p = problem_from_dict(doc)
        ref_C = 0.5 * (expected["C"] + expected["C"].T)
        assert p.C.tobytes() == ref_C.tobytes()
        assert p.E.tobytes() == expected["E"].tobytes()

    def test_numpy_and_integer_entries_accepted(self):
        doc = coo_doc()
        doc["C"]["vals"] = [np.float64(1.0), 1]
        doc["c"] = [np.float64(0.25), 2**60 + 1]
        doc["f"] = [np.float64(-1.0)]
        p = problem_from_dict(doc)
        assert np.array_equal(p.C, np.eye(2))
        assert p.c.tolist() == [0.25, float(2**60 + 1)]
        assert p.f.tolist() == [-1.0]

    def test_file_round_trip_is_bitwise(self, tmp_path):
        spec = hqp.InstanceSpec(kind="feasible_sv", n=400, m=1, seed=3)
        p = hqp.generate(spec)
        path = tmp_path / "p.json"
        save_problem(p, path)
        back = load_problem(path)
        for a, b in ((back.C, p.C), (back.c, p.c), (back.E, p.E), (back.f, p.f)):
            assert a.tobytes() == b.tobytes()

    def test_lists_do_not_go_through_the_scalar_check(self, tmp_path, monkeypatch):
        # The per-entry path made loading 90% of `hqp solve` on an n = 400
        # file; the scalar check is kept only for scalars.
        spec = hqp.InstanceSpec(kind="infeasible_sv", n=400, m=1, seed=4)
        p = hqp.generate(spec)
        path = tmp_path / "p.json"
        save_problem(p, path)

        def refuse(value, where):
            raise AssertionError(f"per-entry check called for {where}")

        monkeypatch.setattr(fileio, "_require_number", refuse)
        back = load_problem(path)
        assert back.C.tobytes() == p.C.tobytes()
