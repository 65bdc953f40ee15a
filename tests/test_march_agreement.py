"""End to end: the blocked ``caputo.march`` against a row-by-row reference march.

The reference sums each level's whole weight row from ``l1_weights``, as the
march did before it ran levels in blocks.  Every solver takes its history sums
from ``march``, so swapping the reference in for one run and comparing the two
runs checks the blocking through the solvers' own Newton and linear iterations.
"""

import json
import math

import numpy as np
import pytest

import fraxolve.pde
import fraxolve.scalar
import fraxolve.stability
from fraxolve.caputo import l1_weights
from fraxolve.config import parse_config
from fraxolve.harness import allen_cahn_problem
from fraxolve.mesh import build_graded
from fraxolve.nonlinearity import builtin
from fraxolve.pde import solve_pde
from fraxolve.scalar import solve_scalar
from fraxolve.spatial import Grid
from fraxolve.stability import solve_resolvent

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


def _fisher_1d():
    # the shape of perfbench's march1d input at M = 300
    rc = parse_config(json.dumps({
        "mesh": {"M": 300, "T": 1.0, "r": 2.0},
        "grid": {"d": 1, "N": 256},
        "problem": {
            "alpha": 0.4,
            "f": {"kind": "fisher"},
            "u0": "0.5 + 0.3*cos(2*x)",
            "coefficients": {"a": ["1 + 0.5*sin(x)"]},
            "bc": {"all": "periodic"},
        },
    }))
    return rc.problem, rc.mesh, rc.grid, rc.solver


def _allen_cahn_2d():
    return allen_cahn_problem(0.5), build_graded(64, 1.0, 3.0), Grid(2, 16, math.pi), None


@pytest.mark.parametrize("case", [_fisher_1d, _allen_cahn_2d], ids=["fisher-1d", "allen-cahn-2d"])
def test_solve_pde_matches_row_by_row_march(monkeypatch, case):
    args = case()
    sol = solve_pde(*args)
    ref = reference_run(monkeypatch, fraxolve.pde, solve_pde, *args)
    assert_close(sol.fields, ref.fields)
    assert sol.newton_iters == ref.newton_iters
    assert sol.lin_iters == ref.lin_iters


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
