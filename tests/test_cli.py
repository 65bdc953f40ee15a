import csv
import json
import math

import pytest

from fraxolve.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main
from fraxolve.config import parse_config
from fraxolve.pde import solve_pde
from fraxolve.special import mittag_leffler


PDE_CONFIG = {
    "mesh": {"M": 4, "T": 1.0, "r": 2.0},
    "grid": {"d": 1, "N": 6, "X": "pi"},
    "problem": {
        "alpha": 0.5,
        "f": {"kind": "allen_cahn", "alpha": 0.5},
        "u0": "0.5 * sin(x)",
        "bc": {"all": "dirichlet0"},
    },
}

PDE_CONFIG_2D = {
    "mesh": {"M": 8, "T": 1.0, "r": 2.0},
    "grid": {"d": 2, "N": 5, "X": "pi"},
    "problem": {
        "alpha": 0.5,
        "f": {"kind": "allen_cahn", "alpha": 0.5},
        "u0": "0.5 * sin(x) * sin(2*y)",
        "bc": {"all": "dirichlet0"},
    },
}


def _row_loop_csv(path, text):
    """The per-node csv.writer loop the pde command used to write solution.csv with."""
    cfg = parse_config(text)
    sol = solve_pde(cfg.problem, cfg.mesh, cfg.grid, cfg.solver)
    pts = cfg.grid.points()
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("m", "t", "node", "x", "y", "U"))
        for m, t in enumerate(cfg.mesh.nodes):
            for i in range(pts.shape[0]):
                y = pts[i, 1] if cfg.grid.d > 1 else 0.0
                w.writerow((m, f"{t:.6e}", i, f"{pts[i, 0]:.6e}", f"{y:.6e}",
                            f"{sol.fields[m, i]:.6e}"))


class TestML:
    def test_value(self, capsys):
        assert main(["ml", "--alpha", "0.5", "--s", "-1.0"]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(mittag_leffler(0.5, -1.0), rel=1e-6)
        assert float(out) == pytest.approx(0.4275836, abs=1e-6)


class TestScalar:
    def test_run_and_artifacts(self, tmp_path, capsys):
        code = main(["scalar", "--alpha", "0.5", "--r", "2", "--M", "8",
                     "--f", "allen_cahn", "--u0", "0.4",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        csv_text = (tmp_path / "scalar.csv").read_text().strip().split("\n")
        assert csv_text[0] == "m,t,U"
        assert len(csv_text) == 10  # header + M + 1 rows
        manifest = json.loads((tmp_path / "scalar.manifest.json").read_text())
        assert manifest["command"] == "scalar"
        assert manifest["range_ok"] is True
        assert manifest["restriction"]["pass"] is True
        assert len(manifest["config_hash"]) == 16

    def test_solver_failure_exit_code(self, tmp_path):
        # cstar < -kappa_mm makes the per-step map strictly decreasing, so
        # the level solve's iterates never bracket a root
        import fraxolve.scalar as scalar_mod

        with pytest.warns(scalar_mod.StepRestrictionWarning):
            code = main(["scalar", "--alpha", "0.5", "--M", "4", "--f", "linear",
                         "--cstar", "-50", "--u0", "1.0", "--out", str(tmp_path)])
        assert code == EXIT_SOLVER


@pytest.mark.parametrize("argv", [
    ["scalar", "--alpha", "0.5", "--M", "0", "--u0", "1"],
    ["scalar", "--alpha", "0.5", "--M", "10", "--T", "0", "--u0", "1"],
    ["scalar", "--alpha", "0.5", "--M", "10", "--r", "0.5", "--u0", "1"],
    ["scalar", "--alpha", "1.5", "--M", "10", "--u0", "1"],
    ["scalar", "--alpha", "1.5", "--M", "10", "--u0", "1", "--f", "allen_cahn"],
    ["stability", "--alpha", "0.5", "--gamma", "1", "--M", "0"],
    ["stability", "--alpha", "1.5", "--gamma", "1", "--M", "10", "--ungated"],
    ["ml", "--alpha", "0", "--s", "1"],
    ["ml", "--alpha", "0.5", "--s", "nan"],
])
def test_bad_flags_are_config_errors(argv, tmp_path, capsys):
    assert main(argv + ([] if argv[0] == "ml" else ["--out", str(tmp_path)])) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())  # nothing written


class TestPDE:
    def test_run_and_artifacts(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(PDE_CONFIG))
        code = main(["pde", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_OK
        lines = (tmp_path / "solution.csv").read_text().strip().split("\n")
        assert lines[0] == "m,t,node,x,y,U"
        assert len(lines) == 1 + 5 * 7  # (M + 1) levels x (N + 1) nodes
        manifest = json.loads((tmp_path / "pde.manifest.json").read_text())
        assert manifest["range_ok"] is True
        assert manifest["newton_iters_max"] >= 1
        cfg = parse_config(json.dumps(PDE_CONFIG))
        sol = solve_pde(cfg.problem, cfg.mesh, cfg.grid, cfg.solver)
        assert manifest["newton_iters_total"] == sum(sol.newton_iters) >= manifest["newton_iters_max"]
        assert manifest["lin_iters_total"] == sum(sol.lin_iters) >= manifest["newton_iters_total"]

    # M = 8 keeps both runs inside the step restriction
    @pytest.mark.parametrize("doc", [{**PDE_CONFIG, "mesh": {"M": 8, "T": 1.0, "r": 2.0}}, PDE_CONFIG_2D],
                             ids=["1d", "2d"])
    def test_csv_bytes_match_the_row_loop(self, tmp_path, doc):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        assert main(["pde", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        _row_loop_csv(tmp_path / "oracle.csv", cfg.read_text())
        got = (tmp_path / "solution.csv").read_bytes()
        assert got == (tmp_path / "oracle.csv").read_bytes()
        assert got.count(b"\r\n") == 1 + (doc["mesh"]["M"] + 1) * (doc["grid"]["N"] + 1) ** doc["grid"]["d"]

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        doc = dict(PDE_CONFIG)
        doc["meshh"] = {}
        cfg.write_text(json.dumps(doc))
        assert main(["pde", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        code = main(["pde", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_scalar_config_rejected_by_pde(self, tmp_path, capsys):
        cfg = tmp_path / "scalar.json"
        cfg.write_text(json.dumps({
            "mesh": {"M": 4},
            "problem": {"alpha": 0.5, "f": {"kind": "zero"}, "u0": 0.1},
        }))
        assert main(["pde", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "missing key(s) ['grid']" in capsys.readouterr().err


class TestStability:
    def test_run(self, tmp_path, capsys):
        code = main(["stability", "--alpha", "0.5", "--lam", "1.0",
                     "--gamma", "-0.5", "--r", "3", "--M", "16",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("max_ratio")
        manifest = json.loads((tmp_path / "stability.manifest.json").read_text())
        assert manifest["max_ratio"] > 0.0
        assert manifest["gated"] is True
        lines = (tmp_path / "stability.csv").read_text().strip().split("\n")
        assert len(lines) == 17  # header + M rows

    def test_gate_violation_needs_ungated(self, tmp_path, capsys):
        args = ["stability", "--alpha", "0.5", "--lam", "1.0", "--gamma", "0",
                "--r", "1", "--M", "8", "--out", str(tmp_path)]
        assert main(args) == EXIT_SOLVER
        assert main(args + ["--ungated"]) == EXIT_OK


class TestTable:
    def test_custom_tiny_spec(self, tmp_path):
        # the presets are too heavy for unit tests; drive table_run through
        # the same CSV path the command uses
        from fraxolve.harness import TableSpec, rows_to_csv, table_run

        spec = TableSpec(alphas=(0.5,), rs=(2.0,), Ms=(4, 8), n_rule="N=2M",
                         study="time")
        text = rows_to_csv(table_run(spec))
        lines = text.splitlines()
        assert lines[0] == "alpha,r,M,N,study,err,rate"
        assert len(lines) == 3

    def test_manifest_lists_runs_outside_the_step_restriction(self, tmp_path, monkeypatch):
        # alpha 0.3 (lambda = 1/0.3) violates lambda tau^alpha <= 1/Gamma(2 - alpha)
        # at every M here, alpha 0.7 at none; the rows are computed all the same
        import fraxolve.cli
        from fraxolve.harness import TableSpec
        from fraxolve.scalar import StepRestrictionWarning
        from fraxolve.special import gamma

        spec = TableSpec(alphas=(0.3, 0.7), rs=(1.0,), Ms=(4, 8), n_rule="N=2M", study="time")
        monkeypatch.setattr(fraxolve.cli, "_table_spec", lambda preset, scale: spec)
        with pytest.warns(StepRestrictionWarning):
            assert main(["table", "--preset", "table1", "--out", str(tmp_path)]) == EXIT_OK
        manifest = json.loads((tmp_path / "table1.manifest.json").read_text())
        violations = manifest["step_restriction_violations"]
        assert [(v["alpha"], v["r"], v["M"]) for v in violations] == [(0.3, 1.0, M) for M in (4, 8, 16)]
        for v in violations:  # uniform steps 1/M
            assert v["lhs"] == pytest.approx((1.0 / v["M"]) ** 0.3 / 0.3, rel=1e-12)
            assert v["rhs"] == pytest.approx(1.0 / gamma(1.7), rel=1e-12)
            assert v["lhs"] > v["rhs"]
        lines = (tmp_path / "table1.csv").read_text().splitlines()
        assert lines[0] == "alpha,r,M,N,study,err,rate"
        assert len(lines) == 1 + 4

    def test_manifest_totals_count_each_run_once(self, tmp_path, monkeypatch):
        # an M=N^2 space study shares (16, 4) between its two rows: solved,
        # and counted, once
        import fraxolve.cli
        import fraxolve.harness
        from fraxolve.harness import TableSpec

        solved = []

        def recording_solve(problem, mesh, grid, cfg=None):
            solved.append(solve_pde(problem, mesh, grid, cfg))
            return solved[-1]

        spec = TableSpec(alphas=(0.5,), rs=(1.0,), Ms=(4, 16), n_rule="M=N^2", study="space")
        monkeypatch.setattr(fraxolve.cli, "_table_spec", lambda preset, scale: spec)
        monkeypatch.setattr(fraxolve.harness, "solve_pde", recording_solve)
        assert main(["table", "--preset", "table1", "--out", str(tmp_path)]) == EXIT_OK
        manifest = json.loads((tmp_path / "table1.manifest.json").read_text())
        assert [(sol.mesh.M, sol.grid.N) for sol in solved] == [(4, 2), (16, 4), (64, 8)]
        assert manifest["newton_iters_total"] == sum(sum(sol.newton_iters) for sol in solved) > 0
        assert manifest["lin_iters_total"] == sum(sum(sol.lin_iters) for sol in solved) > 0
        assert (tmp_path / "table1.csv").read_text().splitlines()[0] == "alpha,r,M,N,study,err,rate"

    def test_budget_error_exits_solver(self, tmp_path, monkeypatch, capsys):
        import fraxolve.cli
        from fraxolve.harness import BudgetError

        def over_budget(spec):
            raise BudgetError("estimated cost 1e+20 exceeds budget 5e+13")

        monkeypatch.setattr(fraxolve.cli, "table_run", over_budget)
        assert main(["table", "--preset", "table1", "--out", str(tmp_path)]) == EXIT_SOLVER
        assert "estimated cost 1e+20 exceeds budget" in capsys.readouterr().err

    def test_unexpected_error_propagates(self, tmp_path, monkeypatch):
        import fraxolve.cli

        def broken(spec):
            raise TypeError("a defect, not a solver failure")

        monkeypatch.setattr(fraxolve.cli, "table_run", broken)
        with pytest.raises(TypeError, match="a defect"):
            main(["table", "--preset", "table1", "--out", str(tmp_path)])

    def test_bad_preset_rejected(self):
        with pytest.raises(SystemExit):
            main(["table", "--preset", "table9"])


class TestCheck:
    def test_all_invariants_pass(self, capsys):
        assert main(["check"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 7
