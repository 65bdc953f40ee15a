import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fraxolve.caputo import l1_weights
from fraxolve.config import parse_config
from fraxolve.harness import allen_cahn_problem
from fraxolve.mesh import build_graded
from fraxolve.nonlinearity import builtin
import fraxolve.pde
from fraxolve.pde import Problem, range_check_pde, solve_pde
from fraxolve.scalar import NonconvergenceError, SolverConfig
from fraxolve.spatial import (
    BoundaryCondition,
    BoundarySpec,
    CoefficientField,
    Grid,
    assemble,
    fast_inverse,
)
from fraxolve.special import mittag_leffler


def dense_monolithic_oracle(problem, mesh, grid, cstar):
    """All-at-once dense solve of the linear problem
    kappa_mm U^m + A U^m + cstar U^m = F^m, level by level with dense algebra.

    Independent implementation: dense matrices, explicit history sums,
    numpy.linalg.solve.  Only valid for linear f and homogeneous Dirichlet.
    """
    op = assemble(grid, problem.coeffs, 0.0, problem.bc)
    A = op.matrix.toarray() + cstar * np.eye(op.n_unknown)
    u0 = problem.initial_field(grid)[op.unknown_flat]
    M = mesh.M
    hist = [u0]
    for m in range(1, M + 1):
        w = l1_weights(mesh, problem.alpha, m)
        F = sum(w.kappa[j] * hist[j] for j in range(m))
        lhs = w.diag * np.eye(op.n_unknown) + A
        hist.append(np.linalg.solve(lhs, F))
    return np.array(hist), op


class TestLinearOracle:
    def test_matches_dense_monolithic(self):
        # d=1, N=8, M=4, f = 0.7 u: production path vs dense oracle to 1e-10
        cstar = 0.7
        problem = Problem(
            coeffs=CoefficientField(a=(1.0,)),
            bc=BoundarySpec.dirichlet0(1),
            f=builtin("linear", cstar=cstar),
            u0=lambda pts: np.sin(math.pi * pts[:, 0]),
            alpha=0.4,
        )
        mesh = build_graded(4, 1.0, 2.0)
        grid = Grid(1, 8, 1.0)
        sol = solve_pde(problem, mesh, grid)
        want, op = dense_monolithic_oracle(problem, mesh, grid, cstar)
        got = sol.fields[:, op.unknown_flat]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_matches_dense_monolithic_2d(self):
        cstar = -0.3
        problem = Problem(
            coeffs=CoefficientField(a=(1.0, 1.0)),
            bc=BoundarySpec.dirichlet0(2),
            f=builtin("linear", cstar=cstar),
            u0=lambda pts: np.sin(pts[:, 0]) * np.sin(pts[:, 1]),
            alpha=0.6,
        )
        mesh = build_graded(4, 1.0, 2.0)
        grid = Grid(2, 6, math.pi)
        sol = solve_pde(problem, mesh, grid)
        want, op = dense_monolithic_oracle(problem, mesh, grid, cstar)
        got = sol.fields[:, op.unknown_flat]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_semidiscrete_eigenmode_decay(self):
        # f = 0, u0 = sin(x): the spatially-discrete solution is exactly
        # E_alpha(-lam_h t^alpha) sin(x) with the discrete eigenvalue lam_h,
        # so only the temporal error remains; M = 1024 optimal grading
        # brings it below 2e-5
        alpha = 0.5
        grid = Grid(1, 8, math.pi)
        lam_h = (2.0 - 2.0 * math.cos(grid.h)) / grid.h**2
        problem = Problem(
            coeffs=CoefficientField(a=(1.0,)),
            bc=BoundarySpec.dirichlet0(1),
            f=builtin("linear", cstar=0.0),
            u0=lambda pts: np.sin(pts[:, 0]),
            alpha=alpha,
        )
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
        problem = Problem(
            coeffs=CoefficientField(a=(1.0, 1.0)),
            bc=BoundarySpec.dirichlet0(2),
            f=builtin("linear", cstar=1.0),
            u0=lambda pts: np.zeros(pts.shape[0]),
            alpha=0.5,
        )
        sol = solve_pde(problem, build_graded(4, 1.0, 1.0), Grid(2, 6, 1.0))
        np.testing.assert_allclose(sol.fields, 0.0, atol=1e-13)

    def test_linear_converges_in_one_newton_step(self):
        problem = Problem(
            coeffs=CoefficientField(a=(1.0,)),
            bc=BoundarySpec.dirichlet0(1),
            f=builtin("linear", cstar=2.0),
            u0=lambda pts: np.sin(math.pi * pts[:, 0]),
            alpha=0.5,
        )
        sol = solve_pde(problem, build_graded(8, 1.0, 2.0), Grid(1, 16, 1.0))
        assert max(sol.newton_iters) == 1

    def test_allen_cahn_newton_count_small(self):
        sol = solve_pde(allen_cahn_problem(0.5), build_graded(8, 1.0, 2.0), Grid(2, 8, math.pi))
        assert max(sol.newton_iters) <= 6

    def test_allen_cahn_symmetry(self):
        # u0 = 0.4 sin x sin y is symmetric under x <-> y; the isotropic
        # operator and the cubic preserve that symmetry at every level
        alpha = 0.5
        problem = Problem(
            coeffs=CoefficientField(a=(1.0, 1.0)),
            bc=BoundarySpec.dirichlet0(2),
            f=builtin("allen_cahn", alpha=alpha),
            u0=lambda pts: 0.4 * np.sin(pts[:, 0]) * np.sin(pts[:, 1]),
            alpha=alpha,
        )
        grid = Grid(2, 10, math.pi)
        sol = solve_pde(problem, build_graded(6, 1.0, 2.0), grid)
        for m in range(7):
            f2d = sol.fields[m].reshape(grid.shape)
            np.testing.assert_allclose(f2d, f2d.T, rtol=0, atol=1e-12)

    def test_range_preservation_allen_cahn(self):
        sol = solve_pde(allen_cahn_problem(0.5), build_graded(16, 1.0, 3.0), Grid(2, 12, math.pi))
        assert range_check_pde(sol, -1.0, 1.0)

    def test_max_principle_violation_raises(self):
        problem = Problem(
            coeffs=CoefficientField(a=(0.01,), b=(5.0,)),
            bc=BoundarySpec.dirichlet0(1),
            f=builtin("linear", cstar=0.0),
            u0=lambda pts: np.zeros(pts.shape[0]),
            alpha=0.5,
        )
        # required h = 2 a / |b| = 0.004; h = 0.125 violates it
        with pytest.raises(ValueError):
            solve_pde(problem, build_graded(4, 1.0, 1.0), Grid(1, 8, 1.0))

    def test_periodic_requires_strict_restriction(self):
        # periodic faces enforce the strict step restriction: violation raises
        problem = Problem(
            coeffs=CoefficientField(a=(1.0,)),
            bc=BoundarySpec.all_periodic(1),
            f=builtin("allen_cahn", alpha=0.1),  # lam = 10
            u0=lambda pts: 0.5 * np.ones(pts.shape[0]),
            alpha=0.5,
        )
        with pytest.raises(ValueError, match=r"step restriction violated: .* >= .*worst j = 1\)"):
            solve_pde(problem, build_graded(4, 1.0, 1.0), Grid(1, 8, 1.0))

    def test_periodic_constant_equilibrium(self):
        # with periodic BC and f(1) = 0 the constant state persists
        problem = Problem(
            coeffs=CoefficientField(a=(1.0,)),
            bc=BoundarySpec.all_periodic(1),
            f=builtin("allen_cahn", alpha=0.5),
            u0=lambda pts: np.ones(pts.shape[0]),
            alpha=0.5,
        )
        sol = solve_pde(problem, build_graded(8, 1.0, 2.0), Grid(1, 8, 1.0))
        np.testing.assert_allclose(sol.fields, 1.0, atol=1e-10)

    def test_time_dependent_dirichlet_data(self):
        # ramped boundary data enters through the data vector each level
        problem = Problem(
            coeffs=CoefficientField(a=(1.0,)),
            bc=BoundarySpec(
                {
                    "x-": BoundaryCondition("dirichlet", 0.0),
                    "x+": BoundaryCondition(
                        "dirichlet", lambda pts, t: t * np.ones(pts.shape[0])
                    ),
                },
                1,
            ),
            f=builtin("linear", cstar=0.0),
            u0=lambda pts: np.zeros(pts.shape[0]),
            alpha=0.5,
        )
        sol = solve_pde(problem, build_graded(8, 1.0, 1.0), Grid(1, 8, 1.0))
        # the solution follows the data: final boundary value is 1, interior
        # lags strictly between 0 and 1
        assert sol.fields[-1, -1] == pytest.approx(1.0)
        inner = sol.fields[-1, 1:-1]
        assert np.all(inner > 0.0) and np.all(inner < 1.0)

    def test_history_stored_once(self):
        # the nodal fields are the only (M+1)-level array a solve allocates
        problem = Problem(
            coeffs=CoefficientField(a=(1.0,)),
            bc=BoundarySpec.all_periodic(1),
            f=builtin("fisher"),
            u0=lambda pts: 0.5 + 0.3 * np.cos(2.0 * pts[:, 0]),
            alpha=0.4,
        )
        mesh, grid = build_graded(300, 1.0, 2.0), Grid(1, 512, 2.0 * math.pi)
        tracemalloc.start()
        try:
            sol = solve_pde(problem, mesh, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * sol.fields.nbytes


def _periodic_fisher():
    return Problem(
        coeffs=CoefficientField(a=(1.0, 1.0)),
        bc=BoundarySpec.all_periodic(2),
        f=builtin("fisher"),
        u0=lambda pts: 0.5 + 0.3 * np.cos(pts[:, 0]) * np.cos(2.0 * pts[:, 1]),
        alpha=0.4,
    )


def _mixed_allen_cahn():
    # periodic x, Dirichlet y with nonzero, time-dependent data on y+
    periodic = BoundaryCondition("periodic")
    return Problem(
        coeffs=CoefficientField(a=(1.0, 2.0), c=0.5),
        bc=BoundarySpec(
            {
                "x-": periodic,
                "x+": periodic,
                "y-": BoundaryCondition("dirichlet", 0.0),
                "y+": BoundaryCondition("dirichlet", lambda pts, t: 0.5 * t * np.cos(pts[:, 0])),
            },
            2,
        ),
        f=builtin("allen_cahn", alpha=0.5),
        u0=lambda pts: 0.4 * np.sin(pts[:, 1]) * np.cos(pts[:, 0]),
        alpha=0.5,
    )


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
        assert fast.newton_iters == lu.newton_iters
        np.testing.assert_allclose(fast.fields, lu.fields, rtol=0, atol=1e-10)
        # CG needs several iterations per Newton step; each LU solve counts 1
        assert lu.lin_iters == lu.newton_iters
        assert all(n_lin >= n for n_lin, n in zip(fast.lin_iters, fast.newton_iters))
        assert sum(fast.lin_iters) > sum(fast.newton_iters)

    def test_cg_failure_is_loud(self, monkeypatch):
        def stalled_cg(A, b, **kwargs):
            return np.zeros_like(b), 200

        monkeypatch.setattr(fraxolve.pde.spla, "cg", stalled_cg)
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
        # each step is one LU solve (the matrix is not SPD), each Picard step one direct solve
        assert sol.lin_iters == [n + p for n, p in zip(sol.newton_iters, sol.picard_steps)]
        np.testing.assert_allclose(sol.fields, good.fields, rtol=0, atol=1e-9)


def _fresh_lu(A, shift, rhs):
    """The LU solve of (A + diag(shift)) x = rhs with the matrix built from scratch."""
    return spla.splu((A + sp.diags(np.broadcast_to(shift, rhs.shape))).tocsc()).solve(rhs)


def _robin_bc():
    return BoundarySpec(
        {"x-": BoundaryCondition("dirichlet", 0.0), "x+": BoundaryCondition("robin", 1.5)}, 1
    )


LU_OPERATORS = {
    "1d-dirichlet": lambda: assemble(Grid(1, 32, 1.0), CoefficientField(a=(1.0,)), 0.0,
                                     BoundarySpec.dirichlet0(1)),
    "1d-periodic": lambda: assemble(Grid(1, 32, 2.0 * math.pi),
                                    CoefficientField(a=(lambda x, t: 1.0 + 0.5 * np.sin(x[:, 0]),)),
                                    0.0, BoundarySpec.all_periodic(1)),
    "1d-robin": lambda: assemble(Grid(1, 32, 1.0), CoefficientField(a=(1.0,), c=0.3), 0.0, _robin_bc()),
    "2d-variable-a": lambda: assemble(Grid(2, 12, math.pi),
                                      CoefficientField(a=(lambda x, t: 1.0 + 0.3 * np.sin(x[:, 0]), 2.0)),
                                      0.0, BoundarySpec.dirichlet0(2)),
}


def _t_dependent_config(M):
    return parse_config(json.dumps({
        "mesh": {"M": M, "T": 1.0, "r": 2.0},
        "grid": {"d": 1, "N": 32},
        "problem": {
            "alpha": 0.4,
            "f": {"kind": "fisher"},
            "u0": "0.5 + 0.3*cos(2*x)",
            "coefficients": {"a": ["1 + 0.5*t*sin(x)"]},
            "bc": {"all": "periodic"},
        },
    }))


class _FreshMatrix:
    """Stands in for ``_ShiftedMatrix``: builds A + diag(shift) anew at every call."""

    def __init__(self, A):
        self.A = A

    def with_shift(self, shift):
        return (self.A + sp.diags(np.broadcast_to(shift, self.A.shape[0]))).tocsc()


class TestLUPattern:
    @pytest.mark.parametrize("case", LU_OPERATORS)
    def test_bitwise_equal_to_fresh_lu(self, case):
        # successive shifts on one pattern: vector (Newton), scalar (Picard),
        # vector again; no diagonal from an earlier call may survive
        A = LU_OPERATORS[case]().matrix
        shifted = fraxolve.pde._ShiftedMatrix.of(A)
        rng = np.random.default_rng(5)
        n = A.shape[0]
        for shift in (4.0 + rng.uniform(-1, 1, n), 3.7, 60.0 + rng.uniform(-5, 5, n), 0.25):
            rhs = rng.standard_normal(n)
            x, n_lin = fraxolve.pde._linear_solve(shifted, shift, rhs, None, 1)
            assert n_lin == 1
            assert np.array_equal(x, _fresh_lu(A, shift, rhs))

    def test_reassembled_operator_matches_fresh_lu_every_step(self, monkeypatch):
        # a t-dependent coefficient reassembles L_h every level; each level
        # must factor its own operator, not the pattern of an earlier one
        rc = _t_dependent_config(30)
        assert rc.problem.coeffs.time_dependent
        args = (rc.problem, rc.mesh, rc.grid, rc.solver)
        sol = solve_pde(*args)
        newton_level = fraxolve.pde._newton_level

        def fresh_level(op, *rest):
            # the level's own operator, A + diag(shift) built from scratch at every solve
            return newton_level(op, *rest[:-1], _FreshMatrix(op.matrix))

        with monkeypatch.context() as mp:
            mp.setattr(fraxolve.pde, "_newton_level", fresh_level)
            fresh = solve_pde(*args)
        assert np.array_equal(sol.fields, fresh.fields)
        assert sol.newton_iters == fresh.newton_iters
        assert sol.lin_iters == fresh.lin_iters
        assert sol.picard_steps == fresh.picard_steps

    @pytest.mark.parametrize("t_dependent", [True, False])
    def test_operator_assembled_once_per_level(self, monkeypatch, t_dependent):
        # a t-dependent L_h is assembled once per level (the one at t_1 before
        # the loop serves m = 1); a constant one once per solve
        rc = _t_dependent_config(10)
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
