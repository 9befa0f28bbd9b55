"""Command-line interface: exit codes, documents, round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hqp
from hqp.cli import main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def gen(workdir, kind, n, seed=0):
    path = workdir / f"{kind}_{n}_{seed}.json"
    assert run_cli("gen", kind, str(n), "--seed", str(seed), "--out", str(path)) == 0
    return path


class TestGen:
    def test_writes_expected_family(self, workdir):
        path = gen(workdir, "infeasible_sv", 5, seed=7)
        doc = json.loads(path.read_text())
        assert doc["m"] == 1
        assert doc["f"] == [-1.0]

    def test_feasible_rhs(self, workdir):
        path = gen(workdir, "feasible_sv", 4, seed=1)
        assert json.loads(path.read_text())["f"] == [1.0]

    def test_zero_size_rejected(self, workdir, capsys):
        assert run_cli("gen", "feasible_sv", "0") == 4

    def test_stdout_default(self, capsys):
        assert run_cli("gen", "feasible_sv", "3", "--seed", "2") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 3


class TestSolve:
    def test_infeasible_exit_and_payload(self, workdir, capsys):
        path = gen(workdir, "infeasible_sv", 6)
        out = workdir / "sol.json"
        assert run_cli("solve", str(path), "--output", str(out)) == 2
        doc = json.loads(out.read_text())
        assert doc["status"] == "infeasible"
        assert "cert_nu" in doc and "y" not in doc
        assert doc["config_echo"]["tol_mu"] == 1e-8
        assert doc["theta_report"]["theta"] > 0

    def test_feasible_exit_and_payload(self, workdir):
        path = gen(workdir, "feasible_sv", 6)
        out = workdir / "sol.json"
        assert run_cli("solve", str(path), "--output", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["status"] == "optimal"
        assert "y" in doc and "cert_nu" not in doc

    def test_malformed_json_exit(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text("{this is not json")
        assert run_cli("solve", str(bad)) == 4

    def test_integer_beyond_float_range_exit(self, workdir, capsys):
        path = gen(workdir, "feasible_sv", 3)
        doc = json.loads(path.read_text())
        doc["C"]["data"][0] = 10**400
        path.write_text(json.dumps(doc))
        assert run_cli("solve", str(path)) == 4
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "error" and "must be finite" in doc["message"]

    def test_size_confirmed_before_allocation(self, workdir, capsys):
        # n claims a million variables and c has one entry: the length of c
        # is refused before a 10^6-square C is allocated.
        path = workdir / "huge_n.json"
        path.write_text(
            '{"n": 1000000, "m": 0, "C": {"format": "coo", "rows": [], "cols": [], '
            '"vals": []}, "c": [1.0], "E": {"format": "dense", "data": []}, "f": []}'
        )
        assert run_cli("solve", str(path)) == 4
        doc = json.loads(capsys.readouterr().out)
        assert doc["message"] == "c: expected 1000000 entries, got 1"

    def test_unknown_field_exit(self, workdir):
        bad = workdir / "extra.json"
        bad.write_text(
            json.dumps(
                {
                    "n": 1,
                    "m": 0,
                    "C": {"format": "dense", "data": [1.0]},
                    "c": [0.0],
                    "E": {"format": "dense", "data": []},
                    "f": [],
                    "mystery": 1,
                }
            )
        )
        assert run_cli("solve", str(bad)) == 4

    @pytest.mark.parametrize(
        "flag", ["--theta", "--zeta", "--beta", "--tol-mu", "--tol-res"]
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_setting_exit(self, workdir, capsys, flag, value):
        path = gen(workdir, "feasible_sv", 5)
        assert run_cli("solve", str(path), f"{flag}={value}") == 4
        assert "finite" in json.loads(capsys.readouterr().out)["message"]

    def test_iteration_limit_exit(self, workdir):
        path = gen(workdir, "feasible_sv", 6)
        assert run_cli("solve", str(path), "--max-iter", "2") == 3

    def test_ambiguous_error_keeps_evidence(self, workdir):
        # feasible_sv n=10 seed 12 meets mu <= tol_mu at k=11 and k=12
        # with neither recovery route certified (the run solves at k=13);
        # an iteration limit at k=12 leaves the status ambiguous.
        path = gen(workdir, "feasible_sv", 10, seed=12)
        out = workdir / "sol.json"
        assert run_cli("solve", str(path), "--output", str(out), "--max-iter", "12") == 5
        doc = json.loads(out.read_text())
        assert doc["status"] == "error"
        assert "iteration limit 12" in doc["message"]
        assert [row["k"] for row in doc["iterations"]] == list(range(13))
        assert all(row["corrected"] in (True, False) for row in doc["iterations"][:-1])
        assert doc["iterations"][-1]["corrected"] is None
        recovery = doc["residuals"]["recovery"]
        assert recovery["kkt_scaled"] > recovery["tol"]
        assert recovery["certificate_scaled"] > recovery["tol"]
        assert run_cli("solve", str(path), "--output", str(out)) == 0

    def test_singular_newton_error_keeps_log(self, workdir, monkeypatch):
        import hqp.linsys
        from hqp import SingularNewton

        def fail(*args, **kwargs):
            raise SingularNewton("forced")

        monkeypatch.setattr(hqp.linsys, "solve_newton_system", fail)
        path = gen(workdir, "feasible_sv", 6)
        out = workdir / "sol.json"
        assert run_cli("solve", str(path), "--output", str(out)) == 5
        doc = json.loads(out.read_text())
        assert doc["status"] == "error" and doc["message"] == "forced"
        assert len(doc["iterations"]) == 1
        assert "residuals" not in doc

    def test_theta_override_too_small_refused(self, workdir):
        # 1.4 leaves the reduced lifted Hessian indefinite on the worked
        # two-variable instance.
        prob = workdir / "worked.json"
        prob.write_text(
            json.dumps(
                {
                    "n": 2,
                    "m": 1,
                    "C": {"format": "dense", "data": [1.0, 0.0, 0.0, 1.0]},
                    "c": [1.0, 1.0],
                    "E": {"format": "dense", "data": [1.0, 1.0]},
                    "f": [-1.0],
                }
            )
        )
        assert run_cli("solve", str(prob), "--theta", "1.4") == 4
        assert run_cli("solve", str(prob), "--theta", "3.0") == 2

    def test_rank_deficient_input_exit(self, workdir):
        prob = workdir / "rankdef.json"
        prob.write_text(
            json.dumps(
                {
                    "n": 2,
                    "m": 2,
                    "C": {"format": "dense", "data": [1.0, 0.0, 0.0, 1.0]},
                    "c": [0.0, 0.0],
                    "E": {"format": "dense", "data": [1.0, 1.0, 2.0, 2.0]},
                    "f": [0.0, 0.0],
                }
            )
        )
        assert run_cli("solve", str(prob)) == 4

    def test_text_format(self, workdir, capsys):
        path = gen(workdir, "feasible_sv", 4)
        assert run_cli("solve", str(path), "--format", "text") == 0
        out = capsys.readouterr().out
        assert "status: optimal" in out

    def test_log_csv_written(self, workdir):
        path = gen(workdir, "feasible_sv", 4)
        log = workdir / "run.csv"
        assert run_cli("solve", str(path), "--log", str(log), "--output", str(workdir / "s.json")) == 0
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "k,mu,rd_norm,rp_norm,alpha,sigma,nbhd_ratio,upsilon"
        assert len(lines) >= 3

    def test_document_lists_each_record_field(self, workdir):
        # Each record is written field by field, in declaration order, as
        # one line of compact JSON.
        from dataclasses import fields

        from hqp import IipmConfig, ThetaReport
        from hqp.iipm import IterationRecord

        path = gen(workdir, "feasible_sv", 5)
        out = workdir / "sol.json"
        assert run_cli("solve", str(path), "--output", str(out)) == 0
        text = out.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        doc = json.loads(text)
        for row in doc["iterations"]:
            assert list(row) == [f.name for f in fields(IterationRecord)]
        assert list(doc["config_echo"]) == [f.name for f in fields(IipmConfig)]
        assert list(doc["config_echo"]) == ["gamma", "beta", "zeta", "tol_mu", "tol_res", "max_iter"]
        assert list(doc["theta_report"]) == [f.name for f in fields(ThetaReport)]

    def test_solution_document_reparses_identically(self, workdir):
        path = gen(workdir, "feasible_sv", 5)
        out = workdir / "sol.json"
        run_cli("solve", str(path), "--output", str(out))
        doc = json.loads(out.read_text())
        again = json.loads(json.dumps(doc))
        assert again == doc


def test_import_leaves_scipy_optimize_unloaded():
    # A fresh interpreter, so that no other test's imports count.
    src = str(Path(hqp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, hqp, hqp.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "False"


class TestParser:
    def test_built_once_without_state_between_calls(self, workdir):
        from hqp.cli import build_parser

        build_parser.cache_clear()
        path = gen(workdir, "feasible_sv", 5)
        first, second = workdir / "first.json", workdir / "second.json"
        args = ("--theta", "50", "--tol-mu", "1e-11", "--output", str(first))
        assert run_cli("solve", str(path), *args) == 0
        assert run_cli("solve", str(path), "--output", str(second)) == 0
        assert run_cli("check", str(path), str(second)) == 0
        assert build_parser.cache_info().misses == 1
        overridden, plain = json.loads(first.read_text()), json.loads(second.read_text())
        assert overridden["theta_report"]["override"] is True
        assert overridden["theta_report"]["theta"] == 50.0
        assert overridden["config_echo"]["tol_mu"] == 1e-11
        assert plain["theta_report"]["override"] is False
        assert plain["theta_report"]["theta"] != 50.0
        assert plain["config_echo"]["tol_mu"] == 1e-8


class TestCheck:
    def test_round_trip_infeasible(self, workdir):
        path = gen(workdir, "infeasible_sv", 6)
        out = workdir / "sol.json"
        run_cli("solve", str(path), "--output", str(out))
        assert run_cli("check", str(path), str(out)) == 0

    def test_round_trip_feasible(self, workdir):
        path = gen(workdir, "feasible_sv", 6)
        out = workdir / "sol.json"
        run_cli("solve", str(path), "--output", str(out))
        assert run_cli("check", str(path), str(out)) == 0

    @pytest.mark.parametrize("kind,expect", [("infeasible_sv", 2), ("feasible_sv", 0)])
    @pytest.mark.parametrize("n", [10, 25, 50])
    def test_round_trip_all_configured_sizes(self, workdir, kind, n, expect):
        path = gen(workdir, kind, n, seed=3)
        out = workdir / "sol.json"
        # Tight duality tolerance keeps the recovered point well inside
        # the checker's acceptance region.
        assert run_cli("solve", str(path), "--tol-mu", "1e-11", "--output", str(out)) == expect
        assert run_cli("check", str(path), str(out)) == 0

    def test_corrupted_solution_fails(self, workdir):
        path = gen(workdir, "feasible_sv", 6)
        out = workdir / "sol.json"
        run_cli("solve", str(path), "--output", str(out))
        doc = json.loads(out.read_text())
        doc["y"][0] += 1e-2
        out.write_text(json.dumps(doc))
        assert run_cli("check", str(path), str(out)) == 1

    def test_exact_handmade_certificate(self, workdir):
        prob = workdir / "p.json"
        prob.write_text(
            json.dumps(
                {
                    "n": 1,
                    "m": 1,
                    "C": {"format": "dense", "data": [1.0]},
                    "c": [0.0],
                    "E": {"format": "dense", "data": [1.0]},
                    "f": [-1.0],
                }
            )
        )
        sol = workdir / "s.json"
        sol.write_text(json.dumps({"status": "infeasible", "cert_nu": [1.0], "cert_xi": [1.0]}))
        assert run_cli("check", str(prob), str(sol)) == 0

    def test_nan_solution_rejected(self, workdir, capsys):
        path = gen(workdir, "feasible_sv", 5, seed=1)
        out = workdir / "sol.json"
        assert run_cli("solve", str(path), "--output", str(out)) == 0
        doc = json.loads(out.read_text())
        for key in ("y", "nu", "xi"):
            doc[key] = [float("nan")] * len(doc[key])
        out.write_text(json.dumps(doc))
        assert "NaN" in out.read_text()
        assert run_cli("check", str(path), str(out)) == 4
        assert "pass" not in capsys.readouterr().out

    def test_overflowing_certificate_rejected(self, workdir):
        # 1e999 parses to inf; the check refuses it as input, not as a FAIL.
        path = gen(workdir, "infeasible_sv", 5)
        out = workdir / "sol.json"
        assert run_cli("solve", str(path), "--output", str(out)) == 2
        doc = json.loads(out.read_text())
        doc["cert_xi"][0] = "OVERFLOW"
        out.write_text(json.dumps(doc).replace('"OVERFLOW"', "1e999"))
        assert run_cli("check", str(path), str(out)) == 4

    def test_integer_beyond_float_range_rejected(self, workdir, capsys):
        # A 401-digit integer does not overflow to inf on parsing: converting
        # it to a float raises instead, which must also exit 4, not 1.
        path = gen(workdir, "feasible_sv", 5, seed=1)
        out = workdir / "sol.json"
        assert run_cli("solve", str(path), "--output", str(out)) == 0
        doc = json.loads(out.read_text())
        doc["y"][0] = 10**400
        out.write_text(json.dumps(doc))
        assert run_cli("check", str(path), str(out)) == 4
        assert "must be finite" in capsys.readouterr().err

    def test_non_numeric_solution_rejected(self, workdir):
        path = gen(workdir, "feasible_sv", 5, seed=1)
        out = workdir / "sol.json"
        assert run_cli("solve", str(path), "--output", str(out)) == 0
        doc = json.loads(out.read_text())
        doc["y"] = ["a"] * len(doc["y"])
        out.write_text(json.dumps(doc))
        assert run_cli("check", str(path), str(out)) == 4

    def test_string_entries_rejected(self, workdir, capsys):
        # Strings that spell numbers must not be converted and checked.
        path = gen(workdir, "feasible_sv", 5, seed=1)
        out = workdir / "sol.json"
        assert run_cli("solve", str(path), "--output", str(out)) == 0
        doc = json.loads(out.read_text())
        doc["y"] = [repr(v) for v in doc["y"]]
        out.write_text(json.dumps(doc))
        assert run_cli("check", str(path), str(out)) == 4
        assert "y: expected a number" in capsys.readouterr().err

    def test_boolean_certificate_entry_rejected(self, workdir, capsys):
        path = gen(workdir, "infeasible_sv", 5)
        out = workdir / "sol.json"
        assert run_cli("solve", str(path), "--output", str(out)) == 2
        doc = json.loads(out.read_text())
        doc["cert_xi"][0] = False
        out.write_text(json.dumps(doc))
        assert run_cli("check", str(path), str(out)) == 4
        assert "cert_xi: expected a number, got False" in capsys.readouterr().err

    def test_nothing_to_check(self, workdir):
        path = gen(workdir, "feasible_sv", 4)
        sol = workdir / "s.json"
        sol.write_text(json.dumps({"status": "iteration_limit"}))
        assert run_cli("check", str(path), str(sol)) == 4

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_bad_tolerance_rejected(self, workdir, capsys, tol):
        path = gen(workdir, "feasible_sv", 4)
        out = workdir / "sol.json"
        run_cli("solve", str(path), "--output", str(out))
        assert run_cli("check", str(path), str(out), f"--tol={tol}") == 4
        assert "--tol must be positive and finite" in capsys.readouterr().err

    def test_missing_solution_file(self, workdir):
        path = gen(workdir, "feasible_sv", 4)
        assert run_cli("check", str(path), str(workdir / "nope.json")) == 4
