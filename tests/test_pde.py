import dataclasses
import functools
import json
import math
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fraxolve.harness import allen_cahn_problem
from fraxolve.mesh import build_graded
from fraxolve.nonlinearity import builtin
import fraxolve.pde
import fraxolve.spatial
from fraxolve.pde import Problem, solve_pde
from fraxolve.scalar import NonconvergenceError, SolverConfig, range_check
from fraxolve.spatial import (
    BoundaryCondition,
    BoundarySpec,
    CoefficientField,
    DiscreteOperator,
    Grid,
    MaxPrincipleError,
    assemble,
    check_max_principle,
    fast_inverse,
)
from fraxolve.special import mittag_leffler
from reference import assembled_operator, dense_operator, fisher_1d, kappa_rows, level_residuals


def _problem(f, u0, d=1, alpha=0.5, bc=None, **coeffs):
    """A Problem with a = 1 on every axis and zero Dirichlet faces unless given."""
    coeffs.setdefault("a", (1.0,) * d)
    bc = bc or BoundarySpec.dirichlet0(d)
    return Problem(coeffs=CoefficientField(**coeffs), bc=bc, f=f, u0=u0, alpha=alpha)


def dense_monolithic_oracle(problem, mesh, grid, cstar):
    """All-at-once dense solve of the linear problem
    kappa_mm U^m + A U^m + cstar U^m = F^m, level by level with dense algebra.

    Independent implementation: the dense L_h and kappa rows of reference.py,
    numpy.linalg.solve.  Only valid for linear f and homogeneous Dirichlet.
    Returns the levels at the unknowns, and the unknowns.
    """
    L, unk = dense_operator(grid, problem.coeffs, problem.bc, 0.0)
    K = kappa_rows(mesh, problem.alpha)
    A = L[np.ix_(unk, unk)] + cstar * np.eye(unk.size)
    hist = [problem.initial_field(grid)[unk]]
    for m in range(1, mesh.M + 1):
        hist.append(np.linalg.solve(K[m, m] * np.eye(unk.size) + A, K[m, :m] @ np.array(hist)))
    return np.array(hist), unk


class TestLinearOracle:
    def test_matches_dense_monolithic(self):
        # d=1, N=8, M=4, f = 0.7 u: production path vs dense oracle to 1e-10
        cstar = 0.7
        problem = _problem(builtin("linear", cstar=cstar), lambda pts: np.sin(math.pi * pts[:, 0]), alpha=0.4)
        mesh, grid = build_graded(4, 1.0, 2.0), Grid(1, 8, 1.0)
        want, unk = dense_monolithic_oracle(problem, mesh, grid, cstar)
        np.testing.assert_allclose(solve_pde(problem, mesh, grid).fields[:, unk], want, rtol=0, atol=1e-10)

    def test_matches_dense_monolithic_2d(self):
        cstar = -0.3
        problem = _problem(builtin("linear", cstar=cstar), lambda pts: np.sin(pts[:, 0]) * np.sin(pts[:, 1]),
                           d=2, alpha=0.6)
        mesh, grid = build_graded(4, 1.0, 2.0), Grid(2, 6, math.pi)
        want, unk = dense_monolithic_oracle(problem, mesh, grid, cstar)
        np.testing.assert_allclose(solve_pde(problem, mesh, grid).fields[:, unk], want, rtol=0, atol=1e-10)

    def test_semidiscrete_eigenmode_decay(self):
        # f = 0, u0 = sin(x): the spatially-discrete solution is exactly
        # E_alpha(-lam_h t^alpha) sin(x) with the discrete eigenvalue lam_h,
        # so only the temporal error remains; M = 1024 optimal grading
        # brings it below 2e-5
        alpha = 0.5
        grid = Grid(1, 8, math.pi)
        lam_h = (2.0 - 2.0 * math.cos(grid.h)) / grid.h**2
        problem = _problem(builtin("linear", cstar=0.0), lambda pts: np.sin(pts[:, 0]), alpha=alpha)
        mesh = build_graded(1024, 1.0, (2 - alpha) / alpha)
        sol = solve_pde(problem, mesh, grid)
        pts = grid.points()
        err = 0.0
        for m, t in enumerate(mesh.nodes):
            want = mittag_leffler(alpha, -lam_h * t**alpha) * np.sin(pts[:, 0])
            err = max(err, float(np.max(np.abs(sol.fields[m] - want))))
        assert err < 2e-5


class TestBasics:
    def test_zero_solution_stays_zero(self):
        problem = _problem(builtin("linear", cstar=1.0), lambda pts: np.zeros(pts.shape[0]), d=2)
        sol = solve_pde(problem, build_graded(4, 1.0, 1.0), Grid(2, 6, 1.0))
        np.testing.assert_allclose(sol.fields, 0.0, atol=1e-13)

    def test_linear_converges_in_one_newton_step(self):
        problem = _problem(builtin("linear", cstar=2.0), lambda pts: np.sin(math.pi * pts[:, 0]))
        sol = solve_pde(problem, build_graded(8, 1.0, 2.0), Grid(1, 16, 1.0))
        assert max(sol.newton_iters) == 1

    def test_allen_cahn_newton_count_small(self):
        sol = solve_pde(allen_cahn_problem(0.5), build_graded(8, 1.0, 2.0), Grid(2, 8, math.pi))
        assert max(sol.newton_iters) <= 6

    def test_allen_cahn_symmetry(self):
        # u0 = 0.4 sin x sin y is symmetric under x <-> y; the isotropic
        # operator and the cubic preserve that symmetry at every level
        problem = _problem(builtin("allen_cahn", alpha=0.5),
                           lambda pts: 0.4 * np.sin(pts[:, 0]) * np.sin(pts[:, 1]), d=2)
        grid = Grid(2, 10, math.pi)
        sol = solve_pde(problem, build_graded(6, 1.0, 2.0), grid)
        for m in range(7):
            f2d = sol.fields[m].reshape(grid.shape)
            np.testing.assert_allclose(f2d, f2d.T, rtol=0, atol=1e-12)

    def test_range_preservation_allen_cahn(self):
        sol = solve_pde(allen_cahn_problem(0.5), build_graded(16, 1.0, 3.0), Grid(2, 12, math.pi))
        assert range_check(sol.fields, -1.0, 1.0, 1e-10)

    def test_max_principle_violation_raises(self):
        problem = _problem(builtin("linear", cstar=0.0), lambda pts: np.zeros(pts.shape[0]), a=(0.01,), b=(5.0,))
        # required h = 2 a / |b| = 0.004; h = 0.125 violates it
        with pytest.raises(ValueError):
            solve_pde(problem, build_graded(4, 1.0, 1.0), Grid(1, 8, 1.0))

    @pytest.mark.parametrize(
        "coeffs, bc, level",
        [
            # a pulse in b between the sampled times t = 0, 1/8, ...: the mesh-Peclet
            # number h |b| / (2 a) is 24 at t_4 = 1/16 (left alone, max U = 1.0027 > max u0)
            (CoefficientField(a=(0.01,), b=(lambda p, t: 5.0 * np.exp(-(((t - 0.06) / 0.005) ** 2))
                                            * np.ones(p.shape[0]),), time_dependent=True),
             BoundarySpec.dirichlet0(1), 4),
            # a Robin face with mu < 0, which no coefficient shows
            (CoefficientField(a=(1.0,)),
             BoundarySpec({"x-": BoundaryCondition("robin", -50.0),
                           "x+": BoundaryCondition("dirichlet", 0.0)}, 1), 1),
        ],
        ids=["t-dependent-convection", "negative-robin"],
    )
    def test_every_assembled_operator_is_checked(self, coeffs, bc, level):
        problem = Problem(coeffs=coeffs, bc=bc, f=builtin("linear", cstar=0.0),
                          u0=lambda pts: np.sin(math.pi * pts[:, 0]), alpha=0.5)
        with pytest.raises(MaxPrincipleError) as exc:
            solve_pde(problem, build_graded(64, 1.0, 1.0), Grid(1, 8, 1.0))
        assert exc.value.level == level

    def test_periodic_requires_strict_restriction(self):
        # periodic faces enforce the strict step restriction: violation raises
        problem = _problem(builtin("allen_cahn", alpha=0.1),  # lam = 10
                           lambda pts: 0.5 * np.ones(pts.shape[0]), bc=BoundarySpec.all_periodic(1))
        with pytest.raises(ValueError, match=r"step restriction violated: .* >= .*worst j = 1\)"):
            solve_pde(problem, build_graded(4, 1.0, 1.0), Grid(1, 8, 1.0))

    def test_periodic_constant_equilibrium(self):
        # with periodic BC and f(1) = 0 the constant state persists
        problem = _problem(builtin("allen_cahn", alpha=0.5), lambda pts: np.ones(pts.shape[0]),
                           bc=BoundarySpec.all_periodic(1))
        sol = solve_pde(problem, build_graded(8, 1.0, 2.0), Grid(1, 8, 1.0))
        np.testing.assert_allclose(sol.fields, 1.0, atol=1e-10)

    def test_time_dependent_dirichlet_data(self):
        # ramped boundary data enters through the data vector each level
        bc = BoundarySpec({"x-": BoundaryCondition("dirichlet", 0.0),
                           "x+": BoundaryCondition("dirichlet", lambda pts, t: t * np.ones(pts.shape[0]))}, 1)
        problem = _problem(builtin("linear", cstar=0.0), lambda pts: np.zeros(pts.shape[0]), bc=bc)
        sol = solve_pde(problem, build_graded(8, 1.0, 1.0), Grid(1, 8, 1.0))
        # the solution follows the data: final boundary value is 1, interior
        # lags strictly between 0 and 1
        assert sol.fields[-1, -1] == pytest.approx(1.0)
        inner = sol.fields[-1, 1:-1]
        assert np.all(inner > 0.0) and np.all(inner < 1.0)

    def test_history_stored_once(self):
        # the nodal fields are the only (M+1)-level array a solve allocates
        problem = _problem(builtin("fisher"), lambda pts: 0.5 + 0.3 * np.cos(2.0 * pts[:, 0]), alpha=0.4,
                           bc=BoundarySpec.all_periodic(1))
        mesh, grid = build_graded(300, 1.0, 2.0), Grid(1, 512, 2.0 * math.pi)
        tracemalloc.start()
        try:
            sol = solve_pde(problem, mesh, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * sol.fields.nbytes


def _periodic_fisher():
    return _problem(builtin("fisher"), lambda pts: 0.5 + 0.3 * np.cos(pts[:, 0]) * np.cos(2.0 * pts[:, 1]),
                    d=2, alpha=0.4, bc=BoundarySpec.all_periodic(2))


def _mixed_allen_cahn():
    # periodic x, Dirichlet y with nonzero, time-dependent data on y+
    periodic = BoundaryCondition("periodic")
    bc = BoundarySpec({"x-": periodic, "x+": periodic, "y-": BoundaryCondition("dirichlet", 0.0),
                       "y+": BoundaryCondition("dirichlet", lambda pts, t: 0.5 * t * np.cos(pts[:, 0]))}, 2)
    return _problem(builtin("allen_cahn", alpha=0.5), lambda pts: 0.4 * np.sin(pts[:, 1]) * np.cos(pts[:, 0]),
                    bc=bc, a=(1.0, 2.0), c=0.5)


FAST_CASES = {
    "allen-cahn-dirichlet": (lambda: allen_cahn_problem(0.5), 16, 3.0, math.pi),
    "fisher-periodic": (_periodic_fisher, 16, 2.0, 2.0 * math.pi),
    "mixed-time-dependent-data": (_mixed_allen_cahn, 16, 2.0, 2.0 * math.pi),
}


def _solve_on_lu(monkeypatch, *args):
    with monkeypatch.context() as mp:
        mp.setattr(fraxolve.pde, "fast_inverse", lambda grid, coeffs, bc: None)
        return solve_pde(*args)


class TestFastLinearSolve:
    @pytest.mark.parametrize("case", FAST_CASES)
    def test_matches_lu_path(self, monkeypatch, case):
        make, N, r, X = FAST_CASES[case]
        problem, mesh, grid = make(), build_graded(12, 1.0, r), Grid(2, N, X)
        assert fast_inverse(grid, problem.coeffs, problem.bc) is not None
        fast = solve_pde(problem, mesh, grid)
        lu = _solve_on_lu(monkeypatch, problem, mesh, grid)
        # the loose early CG solves of the forcing term cost at most one Newton step per level
        assert all(n <= n_lu + 1 for n, n_lu in zip(fast.newton_iters, lu.newton_iters))
        np.testing.assert_allclose(fast.fields, lu.fields, rtol=0, atol=1e-10)
        # CG needs several iterations per Newton step; each LU solve counts 1
        assert lu.lin_iters == lu.newton_iters
        assert all(n_lin >= n for n_lin, n in zip(fast.lin_iters, fast.newton_iters))
        assert sum(fast.lin_iters) > sum(fast.newton_iters)

    @pytest.mark.parametrize("case", FAST_CASES)
    def test_dense_bases_match_transforms(self, monkeypatch, case):
        # the same runs with the cutoff at 0, so every fast inverse applies the transforms
        make, N, r, X = FAST_CASES[case]
        problem, mesh, grid = make(), build_graded(12, 1.0, r), Grid(2, N, X)
        assert fast_inverse(grid, problem.coeffs, problem.bc).bases is not None
        dense = solve_pde(problem, mesh, grid)
        with monkeypatch.context() as mp:
            mp.setattr(fraxolve.spatial, "_DENSE_MAX_N", 0)
            assert fast_inverse(grid, problem.coeffs, problem.bc).bases is None
            transforms = solve_pde(problem, mesh, grid)
        assert _same_counts(dense, transforms)
        np.testing.assert_allclose(dense.fields, transforms.fields, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("case", FAST_CASES)
    def test_forcing_term_keeps_newton(self, monkeypatch, case):
        # CG stops at the forcing term, loose while the Newton residual is
        # large; the tight reference runs every CG to relative residual 1e-13,
        # the other one drops eta and runs every CG to a tenth of the tolerance
        make, N, r, X = FAST_CASES[case]
        problem, mesh, grid = make(), build_graded(12, 1.0, r), Grid(2, N, X)
        sol = solve_pde(problem, mesh, grid)
        pcg = fraxolve.pde._ShiftedMatrix._pcg
        solve = fraxolve.pde._ShiftedMatrix.solve
        with monkeypatch.context() as mp:
            mp.setattr(fraxolve.pde._ShiftedMatrix, "_pcg",
                       lambda self, shift, rhs, s, m, rtol, rhs_norm: pcg(self, shift, rhs, s, m, 1e-13, rhs_norm))
            full = solve_pde(problem, mesh, grid)
        scaled = []

        def tol_only_solve(self, shift, rhs, m, tol, eta):
            # eta = ||rhs||_inf / max(1, ||F^m||_inf), with tol = nonlin_tol max(1, ||F^m||_inf)
            scaled.append(eta * tol / (SolverConfig().nonlin_tol * float(np.max(np.abs(rhs)))))
            return solve(self, shift, rhs, m, tol, 0.0)

        with monkeypatch.context() as mp:
            mp.setattr(fraxolve.pde._ShiftedMatrix, "solve", tol_only_solve)
            tol_only = solve_pde(problem, mesh, grid)
        np.testing.assert_allclose(scaled, 1.0, rtol=1e-12)
        assert all(n <= n_full + 1 for n, n_full in zip(sol.newton_iters, full.newton_iters))
        np.testing.assert_allclose(sol.fields, full.fields, rtol=0, atol=1e-9)
        assert sum(sol.lin_iters) < 0.75 * sum(full.lin_iters)
        assert sum(sol.lin_iters) < 0.75 * sum(tol_only.lin_iters)
        assert level_residuals(problem, mesh, grid, sol) == []

    def test_cg_step_meets_the_forcing_term(self, monkeypatch):
        # rtol = max(1e-13, min(1e-2, max(eta, 0.1 tol / ||rhs||_2))), fed as a
        # Newton step feeds it: tol = 1e-10 S and eta = ||rhs||_inf / S, with
        # S = max(1, ||F^m||_inf).  A large rhs is eta-dominated; a small one
        # is tolerance-dominated, and its linear residual's inf-norm is at most
        # a tenth of the Newton tolerance.  The CG never multiplies by the
        # matrix, so the residual is checked against the assembled operator,
        # on dense bases (N = 16, 64) and transforms (200)
        problem = allen_cahn_problem(0.5)
        rtols = []
        pcg = fraxolve.pde._ShiftedMatrix._pcg

        def recording_pcg(self, shift, rhs, s, m, rtol, rhs_norm):
            rtols.append(rtol)
            return pcg(self, shift, rhs, s, m, rtol, rhs_norm)

        monkeypatch.setattr(fraxolve.pde._ShiftedMatrix, "_pcg", recording_pcg)
        for N in (16, 64, 200):
            grid = Grid(2, N, math.pi)
            A = assemble(grid, problem.coeffs, 0.0, problem.bc).matrix
            fast = fast_inverse(grid, problem.coeffs, problem.bc)
            assert (fast.bases is None) == (N > fraxolve.spatial._DENSE_MAX_N)
            solver = fraxolve.pde._ShiftedMatrix.of(A, fast)
            rng = np.random.default_rng(3)
            shift = 5.0 + rng.uniform(-1.0, 1.0, A.shape[0])
            base = rng.standard_normal(A.shape[0])
            for regime, c, S in (("capped", 1.0, 1.0), ("eta", 1.0, 1e5), ("tol", 1e-8, 1.0)):
                rhs = c * base
                tol, eta = 1e-10 * S, float(np.max(np.abs(rhs))) / S
                tol_term = 0.1 * tol / float(np.linalg.norm(rhs))
                if regime == "capped":
                    assert eta > 1e-2
                    rtol = 1e-2
                elif regime == "eta":
                    assert tol_term < eta < 1e-2
                    rtol = eta
                else:
                    assert eta < tol_term < 1e-2
                    rtol = tol_term
                self._check_cg_step(solver, A, shift, rhs, tol, eta, rtol, rtols, N)
            # the floor: a tolerance and an eta below any reachable residual
            self._check_cg_step(solver, A, shift, base, 1e-20, 0.0, 1e-13, rtols, N)

    @staticmethod
    def _check_cg_step(solver, A, shift, rhs, tol, eta, rtol, rtols, N):
        rhs_norm = float(np.linalg.norm(rhs))
        x, n_lin = solver.solve(shift, rhs, 1, tol, eta)
        assert rtols[-1] == pytest.approx(rtol, rel=1e-15)
        # from N = 64 on, a random rhs lies mostly in high modes, where
        # (L_h + s I)^{-1} is nearly exact: one iteration meets 1e-2
        assert n_lin > 1 or (N > 16 and rtol == 1e-2)
        lin_res = rhs - (A + sp.diags(shift)) @ x
        assert np.linalg.norm(lin_res) <= rtol * rhs_norm
        assert np.max(np.abs(lin_res)) <= max(eta * rhs_norm, 0.1 * tol, 1e-13 * rhs_norm)
        if eta * rhs_norm <= 0.1 * tol:
            assert np.max(np.abs(lin_res)) <= max(0.1 * tol, 1e-13 * rhs_norm)

    @pytest.mark.parametrize("s", [0.7, 5.0, 1e3])
    def test_constant_shift_takes_one_cg_iteration(self, s):
        # f = s u makes every Newton shift kappa_mm + s constant and the
        # preconditioner (L_h + (kappa_mm + s) I)^{-1} exact: CG stops after
        # one iteration, at the dense solve to rounding
        problem = _problem(builtin("linear", cstar=s), lambda pts: np.sin(pts[:, 0]) * np.sin(2 * pts[:, 1]), d=2)
        mesh, grid = build_graded(8, 1.0, 2.0), Grid(2, 16, math.pi)
        sol = solve_pde(problem, mesh, grid)
        assert sol.lin_iters == sol.newton_iters == [1] * mesh.M
        want, unk = dense_monolithic_oracle(problem, mesh, grid, s)
        assert _rel_err(sol.fields[:, unk], want) <= 1e-13

    def test_cg_failure_is_loud(self, monkeypatch):
        # the Newton shift kappa_11 + f'(U) is not constant, so one CG
        # iteration cannot reach the forcing term; the failure's report
        # takes its residual without building the SuperLU matrix
        monkeypatch.setattr(fraxolve.pde, "_CG_MAXITER", 1)
        monkeypatch.setattr(fraxolve.pde._ShiftedMatrix, "_J",
                            property(lambda self: pytest.fail("the CG path built _J")))
        with pytest.raises(NonconvergenceError, match="CG") as exc:
            solve_pde(allen_cahn_problem(0.5), build_graded(16, 1.0, 1.0), Grid(2, 8, math.pi))
        assert exc.value.level == 1

    def test_picard_steps_counted(self):
        # a Jacobian of the wrong sign turns Newton directions into ascent
        # directions: line searches stall and Picard steps follow
        problem = allen_cahn_problem(0.5)
        mesh, grid = build_graded(8, 1.0, 1.0), Grid(2, 8, math.pi)
        good = solve_pde(problem, mesh, grid)
        assert good.picard_steps == [0] * mesh.M
        wrong = dataclasses.replace(
            problem.f, deriv_s=lambda x, t, s: np.full(np.shape(s), -1e6)
        )
        sol = solve_pde(dataclasses.replace(problem, f=wrong), mesh, grid, SolverConfig(max_newton=60))
        assert min(sol.picard_steps) > 0
        assert all(p <= n for p, n in zip(sol.picard_steps, sol.newton_iters))
        # each step is one LU solve (the matrix is not SPD); each Picard step, with
        # its constant shift, one CG iteration preconditioned by the exact inverse
        assert sol.lin_iters == [n + p for n, p in zip(sol.newton_iters, sol.picard_steps)]
        np.testing.assert_allclose(sol.fields, good.fields, rtol=0, atol=1e-9)


def _fresh_lu(A, shift, rhs):
    """The SuperLU solve of (A + diag(shift)) x = rhs with the matrix built from scratch."""
    return spla.splu((A + sp.diags(np.broadcast_to(shift, rhs.shape))).tocsc()).solve(rhs)


def _fresh_tridiag(A, shift, rhs):
    """The tridiagonal solve of (A + diag(shift)) x = rhs with the diagonals taken from scratch."""
    return fraxolve.pde._ShiftedTridiag.of(A).solve(shift, rhs, 1, 0.0)[0]


def _rel_err(x, want):
    return float(np.max(np.abs(x - want)) / np.max(np.abs(want)))


def _robin_bc():
    return BoundarySpec(
        {"x-": BoundaryCondition("dirichlet", 0.0), "x+": BoundaryCondition("robin", 1.5)}, 1
    )


def _short_periodic(N):
    # n = N unknowns: the neighbours of node 0 are 1 and N - 1, the same node for N = 2
    return lambda: assemble(Grid(1, N, 2.0 * math.pi), CoefficientField(a=(1.0,), b=(0.3,), c=0.1),
                            0.0, BoundarySpec.all_periodic(1))


LU_OPERATORS = {
    "1d-dirichlet": lambda: assemble(Grid(1, 32, 1.0), CoefficientField(a=(1.0,)), 0.0,
                                     BoundarySpec.dirichlet0(1)),
    "1d-dirichlet-one-unknown": lambda: assemble(Grid(1, 2, 1.0), CoefficientField(a=(1.0,)), 0.0,
                                                 BoundarySpec.dirichlet0(1)),
    "1d-periodic": lambda: assemble(Grid(1, 32, 2.0 * math.pi),
                                    CoefficientField(a=(lambda x, t: 1.0 + 0.5 * np.sin(x[:, 0]),)),
                                    0.0, BoundarySpec.all_periodic(1)),
    "1d-robin": lambda: assemble(Grid(1, 32, 1.0), CoefficientField(a=(1.0,), c=0.3), 0.0, _robin_bc()),
    **{f"1d-periodic-convection-N{N}": _short_periodic(N) for N in (2, 3, 4, 5)},
    "2d-variable-a": lambda: assemble(Grid(2, 12, math.pi),
                                      CoefficientField(a=(lambda x, t: 1.0 + 0.3 * np.sin(x[:, 0]), 2.0)),
                                      0.0, BoundarySpec.dirichlet0(2)),
}


SWEEP_OPERATORS = {  # 1D operators on N intervals, for the tridiagonal solver
    "dirichlet": lambda N: assemble(Grid(1, N, 1.0), CoefficientField(a=(1.0,)), 0.0,
                                    BoundarySpec.dirichlet0(1)),
    "robin-convection": lambda N: assemble(
        Grid(1, N, 1.0), CoefficientField(a=(lambda x, t: 1.0 + 0.5 * x[:, 0],), b=(0.7,), c=0.3),
        0.0, _robin_bc()),
    "periodic-convection": lambda N: assemble(
        Grid(1, N, 2.0 * math.pi), CoefficientField(a=(lambda x, t: 1.0 + 0.5 * np.sin(x[:, 0]),), b=(0.3,)),
        0.0, BoundarySpec.all_periodic(1)),
}


T_DEPENDENT_A = "1 + 0.5*t*sin(x)"  # march1d's a made t-dependent, so L_h is assembled every level


def _shifts(rng, n):
    # successive shifts on one set-up: vector (Newton), scalar (Picard),
    # vector again; no diagonal from an earlier call may survive
    return (4.0 + rng.uniform(-1, 1, n), 3.7, 60.0 + rng.uniform(-5, 5, n), 0.25)


class _SetUpPerCall:
    """Stands in for the per-operator set-up: every product and solve sets ``cls.of(A)`` up anew."""

    def __init__(self, cls, A):
        self.cls = cls
        self.A = A

    def solve(self, shift, rhs, m, tol, eta):
        return self.cls.of(self.A).solve(shift, rhs, m, tol, eta)

    def matvec(self, u):
        return self.cls.of(self.A).matvec(u)


def _solve_fresh(monkeypatch, args, cls):
    # each 1D operator gets the level's own matrix, set up by cls from scratch at every call
    with monkeypatch.context() as mp:
        mp.setattr(fraxolve.pde, "_ShiftedTridiag",
                   types.SimpleNamespace(of=functools.partial(_SetUpPerCall, cls)))
        return solve_pde(*args)


def _same_counts(a, b):
    return (a.newton_iters, a.lin_iters, a.picard_steps) == (b.newton_iters, b.lin_iters, b.picard_steps)


class TestLUPattern:
    """The direct solves, set up once per assembled operator, against a set-up taken afresh.

    The name is older than the 1D tridiagonal solver; it is kept, with the
    test ids under it.
    """

    @pytest.mark.parametrize("case", LU_OPERATORS)
    def test_bitwise_equal_to_fresh_lu(self, case):
        # a 1D operator is solved on its diagonals: bitwise equal to
        # diagonals taken for each shift, and within 1e-13 of SuperLU (a
        # different pivot order rounds differently); a 2D one is bitwise SuperLU
        op = LU_OPERATORS[case]()
        A = op.matrix
        banded = op.grid.d == 1
        solver = (fraxolve.pde._ShiftedTridiag if banded else fraxolve.pde._ShiftedMatrix).of(A)
        rng = np.random.default_rng(5)
        n = A.shape[0]
        for shift in _shifts(rng, n):
            rhs = rng.standard_normal(n)
            x, n_lin = solver.solve(shift, rhs, 1, 1e-10)
            assert n_lin == 1
            if banded:
                assert np.array_equal(x, _fresh_tridiag(A, shift, rhs))
                assert _rel_err(x, _fresh_lu(A, shift, rhs)) <= 1e-13
            else:
                assert np.array_equal(x, _fresh_lu(A, shift, rhs))

    def test_superlu_matrix_is_built_on_first_use(self, monkeypatch):
        # the fast path's CG never builds the CSC matrix of SuperLU; a solver
        # without a fast inverse builds it at its first solve and keeps it
        made = []
        of = fraxolve.pde._ShiftedMatrix.of

        def recording_of(A, fast=None):
            made.append(of(A, fast))
            return made[-1]

        monkeypatch.setattr(fraxolve.pde._ShiftedMatrix, "of", recording_of)
        sol = solve_pde(allen_cahn_problem(0.5), build_graded(12, 1.0, 3.0), Grid(2, 16, math.pi))
        assert len(made) == 1 and made[0].fast is not None and sum(sol.newton_iters) > 0
        assert "_J" not in vars(made[0])
        A = LU_OPERATORS["2d-variable-a"]().matrix
        solver = of(A)
        assert "_J" not in vars(solver)
        rng = np.random.default_rng(5)
        J = None
        for shift in _shifts(rng, A.shape[0]):
            rhs = rng.standard_normal(A.shape[0])
            assert np.array_equal(solver.solve(shift, rhs, 1, 1e-10)[0], _fresh_lu(A, shift, rhs))
            J = solver._J if J is None else J
            assert solver._J is J

    @pytest.mark.parametrize("case", LU_OPERATORS)
    def test_passes_the_max_principle_check(self, case):
        # valid operators whose row sums round below zero (1d-periodic to
        # -2.0e-16 diag, 2d-variable-a to -1.5e-16 diag) must pass
        check_max_principle(LU_OPERATORS[case](), 1)

    def test_reassembled_operator_matches_fresh_lu_every_step(self, monkeypatch):
        # a t-dependent coefficient reassembles L_h every level; each level
        # must solve with its own operator, not the diagonals of an earlier
        # one: bitwise equal to diagonals taken at every product and solve,
        # within 1e-13 of SuperLU
        rc = fisher_1d(30, N=32, a=T_DEPENDENT_A)
        assert rc.problem.coeffs.time_dependent
        args = (rc.problem, rc.mesh, rc.grid, rc.solver)
        sol = solve_pde(*args)
        fresh = _solve_fresh(monkeypatch, args, fraxolve.pde._ShiftedTridiag)
        assert np.array_equal(sol.fields, fresh.fields)
        assert _same_counts(sol, fresh)
        lu = _solve_fresh(monkeypatch, args, fraxolve.pde._ShiftedMatrix)
        assert _same_counts(sol, lu)
        np.testing.assert_allclose(sol.fields, lu.fields, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("t_dependent", [True, False])
    def test_operator_assembled_once_per_level(self, monkeypatch, t_dependent):
        # a t-dependent L_h is assembled once per level; a constant one once
        # per solve, at t_1
        rc = fisher_1d(10, N=32, a=T_DEPENDENT_A)
        if not t_dependent:
            rc = dataclasses.replace(
                rc, problem=dataclasses.replace(rc.problem, coeffs=CoefficientField(a=(1.0,)))
            )
        assert rc.problem.coeffs.time_dependent is t_dependent
        times = []

        def counting_assemble(grid, coeffs, t, bc):
            times.append(t)
            return assemble(grid, coeffs, t, bc)

        monkeypatch.setattr(fraxolve.pde, "assemble", counting_assemble)
        solve_pde(rc.problem, rc.mesh, rc.grid, rc.solver)
        if t_dependent:
            assert times == [float(t) for t in rc.mesh.nodes[1:]]
        else:
            assert times == [float(rc.mesh.nodes[1])]


class TestBandedLU:
    """The 1D solver: one tridiagonal ``dgtsv`` solve per step, periodic corners by
    Sherman-Morrison.  1D has no banded LU any more; the name is kept with its test ids."""

    def test_1d_solve_makes_no_superlu_call(self, monkeypatch):
        calls = []
        splu = spla.splu

        def counting_splu(*args, **kwargs):
            calls.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(fraxolve.pde.spla, "splu", counting_splu)
        rc = fisher_1d(10, N=32, a=T_DEPENDENT_A)
        sol = solve_pde(rc.problem, rc.mesh, rc.grid, rc.solver)
        assert calls == []
        assert sum(sol.lin_iters) > 0

    def test_march1d_matches_superlu(self, monkeypatch):
        # the same run with every 1D operator sent back to SuperLU
        rc = fisher_1d(200, N=256, a="1 + 0.5*sin(x)")
        args = (rc.problem, rc.mesh, rc.grid, rc.solver)
        sol = solve_pde(*args)
        with monkeypatch.context() as mp:
            mp.setattr(fraxolve.pde, "_ShiftedTridiag", fraxolve.pde._ShiftedMatrix)
            lu = solve_pde(*args)
        assert _same_counts(sol, lu)
        np.testing.assert_allclose(sol.fields, lu.fields, rtol=0, atol=1e-12)

    def test_level_slab_history_sums_match_one_product(self, monkeypatch):
        # 32 values a level against up to 600 settled levels: march sums the
        # settled history in slabs of whole levels.  At the default budget
        # this size needs one product; 50 levels a slab (B = 8) splits the
        # later blocks into up to 12 slabs, which only reorder the sums
        rc = fisher_1d(600, N=32, a="1 + 0.5*sin(x)")
        problem, mesh, cfg = rc.problem, rc.mesh, rc.solver
        args = (problem, mesh, rc.grid, cfg)
        assert fraxolve.caputo._block_rows(mesh.M, 32) == 8
        sol = solve_pde(*args)

        def sums(U):
            return np.array([F for _, _, F in fraxolve.caputo.march(mesh, problem.alpha, U)])

        with monkeypatch.context() as mp:
            mp.setattr(fraxolve.caputo, "_SLAB_MADDS", 10**9)
            one, F_one = solve_pde(*args), sums(sol.fields)
            mp.setattr(fraxolve.caputo, "_SLAB_MADDS", 8 * 32 * 50)
            split, F_split = solve_pde(*args), sums(sol.fields)
        assert np.array_equal(sol.fields, one.fields) and _same_counts(sol, one)
        # the sums of one fixed history; the solves themselves may differ,
        # since rounding in F^m can move a start that meets the tolerance
        # just so between 0 and 1 Newton steps
        assert np.array_equal(sums(sol.fields), F_one)
        np.testing.assert_allclose(F_split, F_one, rtol=1e-13, atol=0)
        for run in (one, split):  # a = 1 + 0.5 sin x is sampled as assemble samples it
            assert level_residuals(problem, mesh, rc.grid, run, cfg, assembled_operator) == []
        np.testing.assert_allclose(split.fields, one.fields, rtol=0, atol=10 * cfg.nonlin_tol)

    @pytest.mark.parametrize("N", [2, 3, 64])
    @pytest.mark.parametrize("kind", SWEEP_OPERATORS)
    def test_solve_and_product_match_dense(self, kind, N):
        # random positive Newton shifts and a scalar Picard shift: each solve
        # backward stable (residual <= 4 eps |D| |x|; 0.62 eps measured) and
        # within 1e-13 of a dense one; each product bitwise A @ u but in a
        # periodic last row, which adds its corner last
        A = SWEEP_OPERATORS[kind](N).matrix
        n = A.shape[0]
        solver = fraxolve.pde._ShiftedTridiag.of(A)
        rng = np.random.default_rng(N)
        eps = np.finfo(float).eps
        for shift in (rng.uniform(0.5, 50.0, n), 3.7):
            rhs = rng.standard_normal(n)
            x, n_lin = solver.solve(shift, rhs, 1, 1e-10)
            D = A.toarray() + np.diag(np.broadcast_to(shift, n))
            assert n_lin == 1
            assert np.max(np.abs(D @ x - rhs)) <= 4 * eps * np.max(np.abs(D) @ np.abs(x) + np.abs(rhs))
            assert _rel_err(x, np.linalg.solve(D, rhs)) <= 1e-13
            u = rng.standard_normal(n)
            Au, y = A @ u, solver.matvec(u)
            assert np.array_equal(y[:-1], Au[:-1])
            assert abs(y[-1] - Au[-1]) <= 4 * eps * (abs(A) @ abs(u))[-1]

    def test_singular_periodic_system_raises(self):
        # the periodic Laplacian annihilates constants; unshifted, the
        # Sherman-Morrison denominator cancels to rounding and a solve
        # would return |x| ~ 3e14
        op = assemble(Grid(1, 64, 2.0 * math.pi), CoefficientField(a=(1.0,)), 0.0,
                      BoundarySpec.all_periodic(1))
        solver = fraxolve.pde._ShiftedTridiag.of(op.matrix)
        with pytest.raises(NonconvergenceError, match="singular linear system at level 3") as exc:
            solver.solve(0.0, np.full(64, 0.5), 3, 1e-10)
        assert exc.value.level == 3 and exc.value.residual == np.inf

    def test_zero_first_diagonal_on_a_periodic_axis(self):
        # gamma = -d_0 cannot serve when the shifted d_0 is 0: the matrix is
        # still nonsingular, and the solve must not divide by gamma = 0
        A = SWEEP_OPERATORS["periodic-convection"](8).matrix
        shift = np.full(8, 5.0)
        shift[0] = -A[0, 0]
        rhs = np.ones(8)
        x, _ = fraxolve.pde._ShiftedTridiag.of(A).solve(shift, rhs, 1, 1e-10)
        assert _rel_err(x, np.linalg.solve(A.toarray() + np.diag(shift), rhs)) <= 1e-13

    def test_corner_denominator_stays_away_from_zero_on_march1d(self, monkeypatch):
        # every Sherman-Morrison denominator 1 + v.z of the march1d solve,
        # under its step restriction: the smallest measured is 0.024, against
        # the rounding threshold _SM_EPS ~ 1.4e-14
        rc = fisher_1d(2000, N=256, a="1 + 0.5*sin(x)")
        A = assemble(rc.grid, rc.problem.coeffs, 0.0, rc.problem.bc).matrix
        c_hi = fraxolve.pde._ShiftedTridiag.of(A).corners[1]
        dgtsv = fraxolve.pde.dgtsv
        denoms = []

        def spy(dl, d, du, b, **kwargs):
            gamma = b[0, 1]  # read before dgtsv overwrites b
            out = dgtsv(dl, d, du, b, **kwargs)
            z = out[3][:, 1]
            denoms.append(1.0 + z[0] + c_hi / gamma * z[-1])
            return out

        monkeypatch.setattr(fraxolve.pde, "dgtsv", spy)
        sol = solve_pde(rc.problem, rc.mesh, rc.grid, rc.solver)
        assert len(denoms) == sum(sol.lin_iters) > 0
        assert min(denoms) >= 0.01

    def test_dgtsv_swapped_before_scipy_loads_is_kept(self):
        # a fresh interpreter: fraxolve.pde.dgtsv is set before any operator
        # exists, so scipy is not loaded yet; the first 1D operator keeps the
        # swapped name, which every solve calls, and binds no SuperLU
        code = """
import json, sys
import fraxolve.pde
from fraxolve.config import parse_config
calls = []
def spy(*args, **kwargs):
    from scipy.linalg.lapack import dgtsv
    calls.append(1)
    return dgtsv(*args, **kwargs)
fraxolve.pde.dgtsv = spy
loaded_before = any(m.split(".")[0] == "scipy" for m in sys.modules)
rc = parse_config(json.dumps({
    "mesh": {"M": 8, "T": 1.0, "r": 2.0}, "grid": {"d": 1, "N": 16},
    "problem": {"alpha": 0.4, "f": {"kind": "fisher"}, "u0": "0.5 + 0.3*cos(2*x)",
                "coefficients": {"a": ["1"]}, "bc": {"all": "periodic"}},
}))
sol = fraxolve.pde.solve_pde(rc.problem, rc.mesh, rc.grid, rc.solver)
# vars(), not the attribute: a read of fraxolve.pde.spla would itself bind it
print(json.dumps([loaded_before, len(calls), sum(sol.lin_iters), "spla" in vars(fraxolve.pde)]))
"""
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        loaded_before, calls, lin_iters, spla_bound = json.loads(out.stdout.strip().splitlines()[-1])
        assert not loaded_before
        assert calls == lin_iters > 0
        assert not spla_bound

    @pytest.mark.parametrize("d", [1, 2])
    def test_singular_matrix_is_typed(self, d):
        # shift = -diag(A) leaves A's off-diagonal part, which is exactly
        # singular on these grids: both direct paths raise the level's
        # NonconvergenceError instead of LAPACK's or SuperLU's own failure
        op = assemble(Grid(d, 8, 1.0), CoefficientField(a=(1.0,) * d), 0.0, BoundarySpec.dirichlet0(d))
        A = op.matrix
        solver = (fraxolve.pde._ShiftedTridiag if d == 1 else fraxolve.pde._ShiftedMatrix).of(A)
        with pytest.raises(NonconvergenceError, match="singular") as exc:
            solver.solve(-A.diagonal(), np.ones(A.shape[0]), 7, 1e-10)
        assert exc.value.level == 7
        if d == 2:
            assert isinstance(exc.value.__cause__, RuntimeError)


def _fisher_jump():
    # Dirichlet data 1 and 0 against u0 = 1/2: the first levels move fast near the faces
    bc = BoundarySpec({"x-": BoundaryCondition("dirichlet", 1.0),
                       "x+": BoundaryCondition("dirichlet", 0.0)}, 1)
    return _problem(builtin("fisher"), lambda pts: np.full(pts.shape[0], 0.5), bc=bc)


def _lagrange(s_nodes, rows, s_at):
    """The Lagrange interpolant of (s_nodes[i], rows[i]) evaluated at s_at, term by term."""
    out = np.zeros_like(rows[0])
    for i, s_i in enumerate(s_nodes):
        li = math.prod((s_at - s_j) / (s_i - s_j) for j, s_j in enumerate(s_nodes) if j != i)
        out = out + li * rows[i]
    return out


def _reference_start(s, U, m, solved):
    """Level m's unclipped start from the solved levels j < m (``solved[j]``),
    recomputed term by term (pde module docstring)."""
    nodes = [j for j in range(m) if solved[j]]
    if len(nodes) == 1:
        return U[0]
    p = 1 if 0 in nodes[-4:] else 3  # a line while level 0 is one of the four latest nodes
    idx = nodes[-1 - p:]
    return _lagrange([s[j] for j in idx], [U[j] for j in idx], s[m])


def _solve_recording_starts(monkeypatch, problem, mesh, grid, cfg=None):
    starts = []
    newton_level = fraxolve.pde._newton_level

    def spy(f, t, kmm, Fm, g_dir, u_start, *rest):
        starts.append(u_start.copy())
        return newton_level(f, t, kmm, Fm, g_dir, u_start, *rest)

    with monkeypatch.context() as mp:
        mp.setattr(fraxolve.pde, "_newton_level", spy)
        return solve_pde(problem, mesh, grid, cfg), np.array(starts)


def _zero_step_fisher():
    # march1d's shape at M = 1000, N = 64: many levels start within tolerance and take no step
    rc = fisher_1d(1000, N=64, a="1 + 0.5*sin(x)")
    return rc.problem, rc.mesh, rc.grid, rc.solver


class TestPredictedStart:
    """Levels m >= 2 start Newton from the clipped extrapolation in t^alpha of solved levels."""

    # Allen-Cahn on Grid(2, 16, pi): (alpha, r, M); s = t^alpha is graded with r alpha
    ALLEN_CAHN = {
        "allen-cahn-2d": (0.5, 3.0, 16),
        "allen-cahn-2d-alpha-0.3": (0.3, 1.0, 48),
        "allen-cahn-2d-alpha-0.5": (0.5, 3.0, 48),
        "allen-cahn-2d-alpha-0.7": (0.7, 1.86, 48),
    }

    @pytest.mark.parametrize("case", ["fisher-1d-periodic", *ALLEN_CAHN])
    def test_every_level_meets_its_tolerance(self, case):
        if case == "fisher-1d-periodic":
            rc = fisher_1d(200, N=64, a="1 + 0.5*sin(x)")
            problem, mesh, grid, cfg = rc.problem, rc.mesh, rc.grid, rc.solver
        else:
            alpha, r, M = self.ALLEN_CAHN[case]
            problem, mesh, grid = allen_cahn_problem(alpha), build_graded(M, 1.0, r), Grid(2, 16, math.pi)
            cfg = SolverConfig()
        sol = solve_pde(problem, mesh, grid, cfg)
        # march1d's a = 1 + 0.5 sin x is sampled as assemble samples it (the xfail of
        # tests/test_contracts.py::test_every_level_meets_its_tolerance)
        operator = assembled_operator if case == "fisher-1d-periodic" else dense_operator
        assert level_residuals(problem, mesh, grid, sol, cfg, operator) == []
        tight = solve_pde(problem, mesh, grid, dataclasses.replace(cfg, nonlin_tol=1e-13))
        np.testing.assert_allclose(sol.fields, tight.fields, rtol=0, atol=1e-9)

    def test_newton_step_count_guard(self):
        # 260 Newton steps (686 CG iterations) from the linear extrapolation
        # in t, 141 (458) from the extrapolation in t^alpha
        sol = solve_pde(allen_cahn_problem(0.5), build_graded(128, 1.0, 3.0), Grid(2, 64, math.pi))
        assert sum(sol.newton_iters) <= 160
        assert sum(sol.lin_iters) <= 520

    def test_newton_step_count_guard_with_zero_step_levels(self):
        # 815 Newton steps when 0-step levels were nodes too, 580 from solved levels only
        sol = solve_pde(*_zero_step_fisher())
        assert sol.newton_iters.count(0) > 300
        assert sum(sol.newton_iters) <= 650

    def test_about_one_newton_step_per_level(self):
        # from U^{m-1} this run took 797 Newton steps, two per level but for three
        M = 400
        problem = _problem(builtin("allen_cahn", alpha=0.5), lambda pts: 0.9 * np.sin(pts[:, 0]))
        sol = solve_pde(problem, build_graded(M, 1.0, 3.0), Grid(1, 64, math.pi))
        assert sum(sol.newton_iters) <= 1.1 * M

    def test_start_is_the_extrapolation_clipped_to_the_range(self, monkeypatch):
        # a jump run, whose level 2 overshoots, and a run with 0-step levels,
        # whose nodes have gaps; both reactions are Fisher's, range [0, 1]
        jump = (_fisher_jump(), build_graded(16, 1.0, 5.67), Grid(1, 64, 1.0), None)
        for problem, mesh, grid, cfg in (jump, _zero_step_fisher()):
            sol, starts = _solve_recording_starts(monkeypatch, problem, mesh, grid, cfg)
            unk = assemble(grid, problem.coeffs, 0.0, problem.bc).unknown_flat
            s = mesh.nodes**problem.alpha
            solved = [True] + [n > 0 for n in sol.newton_iters]
            pred = np.array([_reference_start(s, sol.fields, m, solved)[unk] for m in range(2, mesh.M + 1)])
            np.testing.assert_array_equal(starts[0], sol.fields[0, unk])
            np.testing.assert_allclose(starts[1:], np.clip(pred, 0.0, 1.0), rtol=0, atol=1e-13)
            assert range_check(sol.fields, 0.0, 1.0, 1e-10)
            if cfg is None:  # unclipped, level 2 leaves [0, 1]
                assert pred[0].min() < -0.1 and pred[0].max() > 1.1
            else:
                assert not all(solved)


class TestNewtonExits:
    """The Newton loop's exits that the solves above never take: the step cap,
    the acceptance after the last step, and the Picard-only reaction."""

    MESH, GRID = build_graded(16, 1.0, 2.0), Grid(1, 32, math.pi)

    @staticmethod
    def _problem(f):
        return _problem(f, lambda pts: 0.9 * np.sin(pts[:, 0]))

    def test_step_cap_raises_at_the_first_level(self):
        problem = self._problem(builtin("allen_cahn", alpha=0.5))
        with pytest.raises(NonconvergenceError) as exc:
            solve_pde(problem, self.MESH, self.GRID, SolverConfig(max_newton=1))
        assert exc.value.level == 1

    def test_linear_level_is_accepted_after_its_only_step(self):
        # one Newton step solves a linear level; the loop ends before the
        # residual test, which the acceptance after the loop makes
        problem = self._problem(builtin("linear", cstar=1.0))
        sol = solve_pde(problem, self.MESH, self.GRID, SolverConfig(max_newton=1))
        assert sol.newton_iters == [1] * self.MESH.M

    def test_reaction_without_derivative_takes_picard_steps(self):
        f = builtin("allen_cahn", alpha=0.5)
        newton = solve_pde(self._problem(f), self.MESH, self.GRID)
        picard = solve_pde(self._problem(dataclasses.replace(f, deriv_s=None)), self.MESH, self.GRID)
        np.testing.assert_allclose(picard.fields, newton.fields, rtol=0, atol=1e-9)
        assert sum(picard.newton_iters) > 2 * sum(newton.newton_iters)  # 211 against 36


@pytest.mark.parametrize("t_dependent", [False, True])
def test_constant_dirichlet_data_once_per_operator(monkeypatch, t_dependent):
    # constant data on every Dirichlet face: the values and the data vector
    # are taken when an operator is assembled, once per solve for a constant
    # L_h and once per level for a t-dependent one, bitwise as per level
    bc = _mixed_allen_cahn().bc
    problem = dataclasses.replace(
        _mixed_allen_cahn(),
        coeffs=CoefficientField(a=(1.0, 2.0), c=0.5, time_dependent=t_dependent),
        bc=BoundarySpec({**bc.faces, "y+": BoundaryCondition("dirichlet", 0.3)}, 2),
    )
    assert not problem.bc.dirichlet_data_varies
    M = 12
    args = (problem, build_graded(M, 1.0, 2.0), Grid(2, 8, 2.0 * math.pi))
    calls = {"dirichlet_values": 0, "data_vector": 0}
    with monkeypatch.context() as mp:
        for name in calls:
            def wrapped(*a, _fn=getattr(DiscreteOperator, name), _name=name, **kw):
                calls[_name] += 1
                return _fn(*a, **kw)

            mp.setattr(DiscreteOperator, name, wrapped)
        sol = solve_pde(*args)
    n_ops = M if t_dependent else 1
    assert calls == {"dirichlet_values": n_ops, "data_vector": n_ops}
    with monkeypatch.context() as mp:
        mp.setattr(BoundarySpec, "dirichlet_data_varies", property(lambda self: True))
        per_level = solve_pde(*args)
    assert np.array_equal(sol.fields, per_level.fields) and _same_counts(sol, per_level)
    assert np.all(sol.fields.reshape(M + 1, *sol.grid.shape)[1:, :, -1] == 0.3)


def test_node_coordinates_once_per_operator_dirichlet_data_once_per_level(monkeypatch):
    # time-dependent Dirichlet data on a constant operator: the data vector and
    # the scatter share one evaluation per level, and no level rebuilds Grid.points
    calls = {"points": 0, "dirichlet_values": 0}

    def counting(cls, name):
        fn = getattr(cls, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapped)

    counting(Grid, "points")
    counting(DiscreteOperator, "dirichlet_values")
    M = 12
    sol = solve_pde(_mixed_allen_cahn(), build_graded(M, 1.0, 2.0), Grid(2, 8, 2.0 * math.pi))
    assert calls == {"points": 2, "dirichlet_values": M}  # initial_field and assemble
    y_top = sol.fields[-1].reshape(sol.grid.shape)[:, -1]
    np.testing.assert_array_equal(y_top, 0.5 * np.cos(np.linspace(0.0, 2.0 * math.pi, 9)))
