"""Command-line interface: exit codes, documents, round trips."""

import json

import numpy as np
import pytest

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

    def test_iteration_limit_exit(self, workdir):
        path = gen(workdir, "feasible_sv", 6)
        assert run_cli("solve", str(path), "--max-iter", "2") == 3

    def test_ambiguous_error_keeps_evidence(self, workdir):
        # A known AmbiguousStatus instance at the default tol_mu: the optimal
        # route scores 1.19e-6 against the 1e-6 recovery tolerance.
        path = gen(workdir, "feasible_sv", 10, seed=5)
        out = workdir / "sol.json"
        assert run_cli("solve", str(path), "--output", str(out)) == 5
        doc = json.loads(out.read_text())
        assert doc["status"] == "error"
        assert doc["iterations"] and doc["iterations"][0]["k"] == 0
        recovery = doc["residuals"]["recovery"]
        assert recovery["kkt_scaled"] == pytest.approx(1.19e-6, rel=0.02)

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

    def test_solution_document_reparses_identically(self, workdir):
        path = gen(workdir, "feasible_sv", 5)
        out = workdir / "sol.json"
        run_cli("solve", str(path), "--output", str(out))
        doc = json.loads(out.read_text())
        again = json.loads(json.dumps(doc))
        assert again == doc

    def test_theta_mode_flag(self, workdir):
        path = gen(workdir, "feasible_sv", 5)
        out = workdir / "sol.json"
        assert run_cli("solve", str(path), "--theta-mode", "norm", "--output", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["theta_report"]["bound_used"] == "norm_relaxed"


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

    def test_nothing_to_check(self, workdir):
        path = gen(workdir, "feasible_sv", 4)
        sol = workdir / "s.json"
        sol.write_text(json.dumps({"status": "iteration_limit"}))
        assert run_cli("check", str(path), str(sol)) == 4

    def test_missing_solution_file(self, workdir):
        path = gen(workdir, "feasible_sv", 4)
        assert run_cli("check", str(path), str(workdir / "nope.json")) == 4


class TestExperiment:
    def test_small_sweep_csv(self, workdir, capsys):
        out = workdir / "report.csv"
        rc = run_cli(
            "experiment",
            "--kinds",
            "infeasible_sv,feasible_sv",
            "--sizes",
            "3,4",
            "--reps",
            "2",
            "--out",
            str(out),
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "infeasible_sv n=3" in text
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 9

    def test_bad_kind(self):
        assert run_cli("experiment", "--kinds", "bogus", "--sizes", "3") == 4
