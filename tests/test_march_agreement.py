"""End to end: the blocked ``caputo.march`` against a row-by-row reference march.

The reference sums each level's whole weight row from ``l1_weights``, as the
march did before it ran levels in blocks.  Every solver takes its history sums
from ``march``, so swapping the reference in for one run and comparing the two
runs checks the blocking through the solvers' own Newton and linear iterations.
A PDE level may start within its tolerance and take no Newton step, so there
the sums are compared on one fixed history and each run is held to its
tolerance at every level.
"""

import math

import numpy as np
import pytest

import fraxolve.caputo
import fraxolve.pde
import fraxolve.scalar
import fraxolve.stability
from fraxolve.caputo import l1_weights, march
from fraxolve.harness import allen_cahn_problem
from fraxolve.mesh import build_graded
from fraxolve.nonlinearity import builtin
from fraxolve.pde import solve_pde
from fraxolve.scalar import SolverConfig, solve_scalar
from fraxolve.spatial import Grid
from fraxolve.stability import solve_resolvent
from reference import assembled_operator, fisher_1d, level_residuals

REL_TOL = 1e-12


def row_by_row_march(mesh, alpha, U):
    """Yield (m, kappa_{m,m}, kappa_{m,0..m-1} @ U[:m]), one whole weight row per level."""
    for m in range(1, mesh.M + 1):
        w = l1_weights(mesh, alpha, m)
        yield m, w.diag, w.kappa[:m] @ U[:m]


def reference_run(monkeypatch, module, solve, *args):
    with monkeypatch.context() as mp:
        mp.setattr(module, "march", row_by_row_march)
        return solve(*args)


def assert_close(got, want):
    assert np.max(np.abs(got - want)) <= REL_TOL * np.max(np.abs(want))


def _fisher_1d(M=300):
    rc = fisher_1d(M)  # march1d's input, which runs at M = 2000
    return rc.problem, rc.mesh, rc.grid, rc.solver


def _allen_cahn_2d():
    return allen_cahn_problem(0.5), build_graded(64, 1.0, 3.0), Grid(2, 16, math.pi), None


@pytest.mark.parametrize("case", [_fisher_1d, _allen_cahn_2d], ids=["fisher-1d", "allen-cahn-2d"])
def test_solve_pde_matches_row_by_row_march(monkeypatch, case):
    problem, mesh, grid, cfg = case()
    sol = solve_pde(problem, mesh, grid, cfg)
    # one fixed history through both marches
    pairs = zip(march(mesh, problem.alpha, sol.fields), row_by_row_march(mesh, problem.alpha, sol.fields))
    for (m, kmm, F), (m_ref, kmm_ref, F_ref) in pairs:
        assert (m, kmm) == (m_ref, kmm_ref)
        assert_close(F, F_ref)
    # the solves: a start extrapolated from the history can meet the Newton
    # tolerance as it is, so rounding in F^m can move a level between 0 and 1
    # Newton steps; each run must meet the tolerance at every level
    ref = reference_run(monkeypatch, fraxolve.pde, solve_pde, problem, mesh, grid, cfg)
    cfg = cfg or SolverConfig()
    for run in (sol, ref):  # against the L_h the runs solve with (march1d's a_k as assemble samples it)
        assert level_residuals(problem, mesh, grid, run, cfg, assembled_operator) == []
    np.testing.assert_allclose(sol.fields, ref.fields, rtol=0, atol=10 * cfg.nonlin_tol)


def test_solve_scalar_matches_row_by_row_march(monkeypatch):
    alpha = 0.5
    args = (builtin("allen_cahn", alpha=alpha), 0.3, build_graded(500, 1.0, 3.0), alpha)
    traj = solve_scalar(*args)
    ref = reference_run(monkeypatch, fraxolve.scalar, solve_scalar, *args)
    assert_close(traj.values, ref.values)
    assert traj.newton_iters == ref.newton_iters


def test_solve_resolvent_matches_row_by_row_march(monkeypatch):
    mesh = build_graded(500, 1.0, 1.5)
    g = np.cos(3.0 * mesh.nodes[1:])
    args = (mesh, 0.5, 1.0, g)
    V = solve_resolvent(*args)
    assert_close(V, reference_run(monkeypatch, fraxolve.stability, solve_resolvent, *args))


def eighth_of_history_rows(M, n):
    """The block length march used before isqrt(M) levels were allowed: the most
    levels whose work arrays take an eighth of the history, at least 8, at most M."""
    return min(M, max(8, (M + 1) * n // (8 * (2 * M + n))))


def test_march1d_agrees_with_eighth_of_history_blocks(monkeypatch):
    # the block length only changes the summation order of F^m; which levels
    # meet the Newton tolerance at their start, and so take 0 steps, may move
    problem, mesh, grid, cfg = _fisher_1d(2000)
    n = grid.n_nodes
    assert (fraxolve.caputo._block_rows(mesh.M, n), eighth_of_history_rows(mesh.M, n)) == (44, 15)
    sol = solve_pde(problem, mesh, grid, cfg)
    with monkeypatch.context() as mp:
        mp.setattr(fraxolve.caputo, "_block_rows", eighth_of_history_rows)
        ref = solve_pde(problem, mesh, grid, cfg)
    assert np.max(np.abs(sol.fields - ref.fields)) <= 1e-9
    new, old = sum(sol.newton_iters), sum(ref.newton_iters)
    assert abs(new - old) <= 0.03 * old


@pytest.mark.parametrize("M, N", [(16, 32), (32, 32), (32, 64), (64, 64)])
def test_table_slice_blocks_keep_their_length(M, N):
    # the benchmark's table_slice solves: (M, N = 2M) and its fine run (2M, N), M = 16 and 32
    n = (N + 1) ** 2
    assert fraxolve.caputo._block_rows(M, n) == eighth_of_history_rows(M, n) == 8
