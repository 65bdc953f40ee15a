import math
import warnings
import weakref

import numpy as np
import pytest

from fraxolve.harness import (
    BudgetError,
    TableSpec,
    _estimate_cost,
    allen_cahn_problem,
    exact_error,
    rate,
    rows_to_csv,
    table_run,
    two_mesh_error,
)
from fraxolve.mesh import build_graded
from fraxolve.nonlinearity import builtin
from fraxolve.pde import Problem, solve_pde
from fraxolve.scalar import StepRestrictionWarning, error_envelope, solve_scalar
from fraxolve.spatial import BoundarySpec, CoefficientField, Grid
from fraxolve.special import mittag_leffler


class TestRate:
    def test_table_example(self):
        # first two published temporal errors for alpha=0.3, r=1
        assert rate(1.88e-3, 8.98e-4) == pytest.approx(1.07, abs=0.005)

    def test_exact_halving(self):
        assert rate(4.0, 1.0) == 2.0
        assert rate(2.0, 1.0) == 1.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            rate(0.0, 1.0)
        with pytest.raises(ValueError):
            rate(1.0, -2.0)


class TestTwoMeshScalar:
    def test_identical_runs_give_zero(self):
        f = builtin("allen_cahn", alpha=0.5)
        mesh = build_graded(16, 1.0, 2.0)
        traj = solve_scalar(f, 0.4, mesh, 0.5)
        rep = two_mesh_error(traj, traj)
        assert rep.err_final == 0.0
        assert rep.err_global == 0.0

    def test_two_mesh_close_to_exact(self):
        # for the linear scalar problem the two-mesh error and the
        # Mittag-Leffler exact error agree to leading order
        # D_t^alpha u + u = 0 has solution E_alpha(-t^alpha)
        f = builtin("linear", cstar=1.0)
        alpha = 0.5
        r = (2 - alpha) / alpha
        coarse = solve_scalar(f, 1.0, build_graded(64, 1.0, r), alpha)
        fine = solve_scalar(f, 1.0, build_graded(128, 1.0, r), alpha)
        rep2 = two_mesh_error(coarse, fine)
        repx = exact_error(coarse, lambda t: mittag_leffler(alpha, -t**alpha))
        # two-mesh sees (1 - 2^-p) of the true error; both are the same scale
        assert rep2.err_final == pytest.approx(repx.err_final, rel=0.5)

    def test_non_nesting_rejected(self):
        f = builtin("linear", cstar=0.0)
        a = solve_scalar(f, 1.0, build_graded(16, 1.0, 2.0), 0.5)
        b = solve_scalar(f, 1.0, build_graded(32, 1.0, 3.0), 0.5)
        with pytest.raises(ValueError):
            two_mesh_error(a, b)
        c = solve_scalar(f, 1.0, build_graded(24, 1.0, 2.0), 0.5)
        with pytest.raises(ValueError):
            two_mesh_error(a, c)


class TestTwoMeshPDE:
    def test_identical_pde_runs(self):
        sol = solve_pde(allen_cahn_problem(0.5), build_graded(4, 1.0, 2.0),
                        Grid(2, 6, math.pi))
        rep = two_mesh_error(sol, sol)
        assert rep.err_global == 0.0

    def test_spatial_restriction(self):
        # fine grid with doubled N: comparison happens on coincident nodes
        problem = allen_cahn_problem(0.5)
        mesh = build_graded(4, 1.0, 2.0)
        sol_c = solve_pde(problem, mesh, Grid(2, 4, math.pi))
        sol_f = solve_pde(problem, mesh, Grid(2, 8, math.pi))
        rep = two_mesh_error(sol_c, sol_f)
        assert 0.0 < rep.err_global < 1.0


class TestAllenCahnProblem:
    def test_u0_value(self):
        # u0(pi/2, pi/2) = 0.4 (pi - pi^2/4) sin^2(pi/2) ~ 0.2697
        prob = allen_cahn_problem(0.3)
        pts = np.array([[math.pi / 2, math.pi / 2]])
        want = 0.4 * (math.pi - (math.pi / 2) ** 2)
        assert prob.u0(pts)[0] == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(0.26967, abs=1e-4)

    def test_u0_vanishes_on_boundary(self):
        prob = allen_cahn_problem(0.5)
        pts = np.array([[0.0, 1.0], [math.pi, 2.0], [1.0, 0.0], [1.0, math.pi]])
        np.testing.assert_allclose(prob.u0(pts), 0.0, atol=1e-14)


class TestTableRun:
    def test_small_temporal_study(self):
        spec = TableSpec(
            alphas=(0.5,), rs=(3.0,), Ms=(8, 16), n_rule="N=2M", study="time"
        )
        rows = table_run(spec)
        assert len(rows) == 2
        assert rows[0]["rate"] is None
        assert rows[1]["rate"] is not None
        assert rows[0]["err"] > rows[1]["err"]
        assert rows[0]["N"] == 16 and rows[1]["N"] == 32

    def test_rs_callable(self):
        spec = TableSpec(
            alphas=(0.5,), rs=lambda a: ((2 - a) / a,), Ms=(8,), n_rule="N=2M",
            study="time",
        )
        assert spec.rs_for(0.5) == (3.0,)

    def test_budget_guard(self):
        spec = TableSpec(
            alphas=(0.3, 0.5, 0.7), rs=(1.0,), Ms=(2048, 4096), n_rule="N=2M",
            study="time",
        )
        with pytest.raises(BudgetError):
            table_run(spec)

    @pytest.mark.parametrize("n_rule, Ms", [("M=N^2", (4, 16)), ("N=M/2", (4, 8))])
    def test_cost_estimate_sums_solved_runs(self, monkeypatch, n_rule, Ms):
        import fraxolve.harness

        solved = []

        def recording_solve(problem, mesh, grid, cfg=None):
            solved.append((mesh.M, grid.N))
            return solve_pde(problem, mesh, grid, cfg)

        monkeypatch.setattr(fraxolve.harness, "solve_pde", recording_solve)
        spec = TableSpec(alphas=(0.5,), rs=(1.0,), Ms=Ms, n_rule=n_rule, study="space")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepRestrictionWarning)
            table_run(spec)
        assert len(set(solved)) == len(solved)  # each distinct run solved once
        assert _estimate_cost(spec) == sum(M**2 * (N - 1) ** 2 for M, N in solved)

    def test_streamed_table_holds_at_most_one_finished_run(self, monkeypatch):
        import fraxolve.harness

        alive, solved = [], []

        def recording_solve(problem, mesh, grid, cfg=None):
            held = [key for key, ref in alive if ref() is not None]
            assert len(held) <= 1, f"solving {(mesh.M, grid.N)} while {held} are held"
            solved.append((mesh.M, grid.N))
            sol = solve_pde(problem, mesh, grid, cfg)
            alive.append(((mesh.M, grid.N), weakref.ref(sol)))
            return sol

        monkeypatch.setattr(fraxolve.harness, "solve_pde", recording_solve)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepRestrictionWarning)
            table_run(TableSpec(alphas=(0.5,), rs=(1.0, 3.0), Ms=(4, 8), n_rule="N=M/2",
                                study="time"))
            assert solved == [(4, 2), (8, 2), (8, 4), (16, 4)] * 2
            # the rows of an M=N^2 space study share a run: (16, 4) is row 0's
            # fine run and row 1's coarse run, kept across the rows, solved once
            solved.clear()
            table_run(TableSpec(alphas=(0.5,), rs=(1.0,), Ms=(4, 16), n_rule="M=N^2",
                                study="space"))
            assert solved == [(4, 2), (16, 4), (64, 8)]

    def test_n_rules(self):
        spec = TableSpec(alphas=(0.5,), rs=(1.0,), Ms=(64,), n_rule="M=N^2",
                         study="space")
        assert spec.n_for(64) == 8
        spec2 = TableSpec(alphas=(0.5,), rs=(1.0,), Ms=(64,), n_rule="N=M/2",
                          study="global")
        assert spec2.n_for(64) == 32
        bad = TableSpec(alphas=(0.5,), rs=(1.0,), Ms=(64,), n_rule="N=7M",
                        study="time")
        with pytest.raises(ValueError):
            bad.n_for(64)


class TestTheoryRates:
    def test_temporal_rates_follow_the_envelope(self):
        # final-time rate min(r, 2 - alpha): the error envelope's exponent at t = T
        alpha, Ms = 0.5, (16, 32, 64)
        spec = TableSpec(alphas=(alpha,), rs=(1.0, 3.0), Ms=Ms, n_rule="N=M/2", study="time")
        rows = table_run(spec)
        for r in spec.rs:
            last = [row for row in rows if row["r"] == r][-1]
            env = [error_envelope(build_graded(M, 1.0, r), alpha, r)[-1] for M in Ms[-2:]]
            predicted = math.log2(env[0] / env[1])
            assert predicted == pytest.approx(min(r, 2.0 - alpha), abs=1e-12)
            assert abs(last["rate"] - predicted) <= 0.1, (r, last["rate"])


    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_final_time_rates_of_the_scalar_problem(self, alpha):
        # final-time rate min(r, 2 - alpha) for D_t^alpha u + u = 0, whose
        # solution is E_alpha(-t^alpha), on a uniform and on the graded mesh
        # r = (2 - alpha)/alpha that table2 uses
        f = builtin("linear", cstar=1.0)
        Ms = (128, 256, 512)
        for r in (1.0, (2.0 - alpha) / alpha):
            errs = [
                exact_error(solve_scalar(f, 1.0, build_graded(M, 1.0, r), alpha),
                            lambda t: mittag_leffler(alpha, -t**alpha)).err_final
                for M in Ms
            ]
            rates = [rate(e0, e1) for e0, e1 in zip(errs, errs[1:])]
            predicted = min(r, 2.0 - alpha)
            assert all(abs(q - predicted) <= 0.05 for q in rates), (r, rates)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_final_time_rates_of_a_pde_problem(self, alpha):
        # D_t^alpha u - u_xx + u = 0 on (0, pi), u0 = sin x: sin x is an exact
        # eigenvector of L_h (eigenvalue lam_h), so E_alpha(-(lam_h + 1) t^alpha) sin x
        # is exact at the nodes and only the temporal error is left
        grid = Grid(1, 32, math.pi)
        lam_h = (2.0 - 2.0 * math.cos(grid.h)) / grid.h**2
        problem = Problem(
            coeffs=CoefficientField(a=(1.0,)), bc=BoundarySpec.dirichlet0(1),
            f=builtin("linear", cstar=1.0), u0=lambda pts: np.sin(pts[:, 0]), alpha=alpha,
        )

        def exact(pts, t):
            return mittag_leffler(alpha, -(lam_h + 1.0) * t**alpha) * np.sin(pts[:, 0])

        for r in (1.0, (2.0 - alpha) / alpha):
            errs = [
                exact_error(solve_pde(problem, build_graded(M, 1.0, r), grid), exact).err_final
                for M in (32, 64, 128)
            ]
            predicted = min(r, 2.0 - alpha)
            assert abs(rate(errs[1], errs[2]) - predicted) <= 0.1, (r, errs)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_global_rates_follow_the_envelope(self, alpha):
        # sup-over-levels rate min(alpha r, 2 - alpha), what a study="global"
        # table measures; D_t^alpha u + u = 0 has solution E_alpha(-t^alpha),
        # and the observed rates approach the prediction from below
        f = builtin("linear", cstar=1.0)
        Ms = (128, 256, 512)
        for r in (1.0, (2.0 - alpha) / alpha):
            errs = [
                exact_error(solve_scalar(f, 1.0, build_graded(M, 1.0, r), alpha),
                            lambda t: mittag_leffler(alpha, -t**alpha)).err_global
                for M in Ms
            ]
            rates = [rate(e0, e1) for e0, e1 in zip(errs, errs[1:])]
            predicted = min(alpha * r, 2.0 - alpha)
            assert all(predicted - 0.1 <= q <= predicted + 0.05 for q in rates), (r, rates)
            assert rates[0] < rates[1], (r, rates)


class TestCSV:
    def test_round_trip(self):
        rows = [
            {"alpha": 0.5, "r": 1.0, "M": 32, "N": 64, "study": "time",
             "err": 7.41e-4, "rate": None},
            {"alpha": 0.5, "r": 1.0, "M": 64, "N": 128, "study": "time",
             "err": 3.35e-4, "rate": 1.15},
        ]
        text = rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "alpha,r,M,N,study,err,rate"
        assert lines[1].startswith("0.5,1,32,64,time,7.410000e-04,")
        assert "1.150000e+00" in lines[2]
