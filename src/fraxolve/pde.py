"""Full discretization: per-level semilinear elliptic solves

    kappa_{m,m} U^m + L_h U^m + f(z, t_m, U^m) = F^m

with damped Newton, an M-matrix Jacobian under the step restriction, and
range preservation for invariant-range reactions.  The operator picks the
linear solver: when a 2D L_h has a fast inverse (``spatial.fast_inverse``),
a Picard matrix L_h + kappa_mm I is inverted directly and an SPD Newton
matrix is solved by CG preconditioned with that inverse; every other
system is solved by one sparse LU factorization.  Both CG and LU take
L_h + diag(shift) from one CSC matrix built once per assembled operator; a
solve only rewrites its diagonal.  A ``t``-dependent L_h is assembled once
per level, at t_m.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# l1_weights and check_step_restriction are unused here: perfbench/tracing.py wraps them
from .caputo import l1_weights, march
from .mesh import TemporalMesh, check_step_restriction
from .nonlinearity import Nonlinearity
from .scalar import NonconvergenceError, SolverConfig, _gate_step_restriction
from .spatial import (
    BoundarySpec,
    CoefficientField,
    DiscreteOperator,
    FastInverse,
    Grid,
    assemble,
    check_max_principle,
    fast_inverse,
)

__all__ = ["Problem", "SolverConfig", "SolutionHistory", "solve_pde", "range_check_pde"]

@dataclass
class Problem:
    """Problem data for D_t^alpha u + L u + f(x, t, u) = 0."""

    coeffs: CoefficientField
    bc: BoundarySpec
    f: Nonlinearity
    u0: Callable | np.ndarray  # u0(points) -> values, or nodal array
    alpha: float = 0.5

    def initial_field(self, grid: Grid) -> np.ndarray:
        if callable(self.u0):
            return np.asarray(self.u0(grid.points()), dtype=float)
        u0 = np.asarray(self.u0, dtype=float).ravel()
        if u0.size != grid.n_nodes:
            raise ValueError("u0 array does not match grid")
        return u0


@dataclass
class SolutionHistory:
    mesh: TemporalMesh
    grid: Grid
    fields: np.ndarray  # (M+1, n_nodes) full nodal fields
    newton_iters: list[int] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    lin_iters: list[int] = field(default_factory=list)  # CG iterations; 1 per direct solve
    picard_steps: list[int] = field(default_factory=list)  # after a stalled line search
    range_ok: bool | None = None

    def field_at(self, m: int) -> np.ndarray:
        return self.fields[m].reshape(self.grid.shape)


_CG_RTOL = 1e-13
_CG_MAXITER = 200


def _pcg(J: sp.spmatrix, rhs: np.ndarray, fast: FastInverse, s: float, m: int):
    """CG on the SPD J, preconditioned by (L_h + s I)^{-1}; returns x and its iterations."""
    iters = 0

    def count(_):
        nonlocal iters
        iters += 1

    pre = spla.LinearOperator(J.shape, matvec=lambda r: fast(r, s), dtype=float)
    x, info = spla.cg(J, rhs, rtol=_CG_RTOL, atol=0.0, maxiter=_CG_MAXITER, M=pre, callback=count)
    if info != 0:
        lin_res = float(np.linalg.norm(rhs - J @ x) / np.linalg.norm(rhs))
        raise NonconvergenceError(
            m, lin_res,
            f"CG did not reach relative residual {_CG_RTOL:g} in {_CG_MAXITER} "
            f"iterations at level {m} (reached {lin_res:.3e})",
        )
    return x, iters


@dataclass
class _ShiftedMatrix:
    """A + diag(shift) as one CSC matrix, set up once per assembled A.

    ``J`` has the off-diagonal entries of A and a full diagonal; ``with_shift``
    only rewrites the diagonal entries (positions ``diag_pos`` in J.data)
    with A's diagonal plus the shift, so the sparsity never changes.
    """

    J: sp.csc_matrix
    diag_pos: np.ndarray
    a_diag: np.ndarray

    @classmethod
    def of(cls, A: sp.spmatrix) -> "_ShiftedMatrix":
        n = A.shape[0]
        a_diag = A.diagonal()
        # drop A's diagonal before adding I, so no a_ii + 1 can cancel to a missing entry
        J = (A - sp.diags(a_diag) + sp.eye(n)).tocsc()
        cols = np.repeat(np.arange(n), np.diff(J.indptr))
        return cls(J, np.flatnonzero(J.indices == cols), a_diag)

    def with_shift(self, shift) -> sp.csc_matrix:
        """J rewritten in place to A + diag(shift); valid until the next call."""
        self.J.data[self.diag_pos] = self.a_diag + shift
        return self.J


def _linear_solve(
    shifted: _ShiftedMatrix, shift, rhs: np.ndarray, fast: FastInverse | None, m: int
) -> tuple[np.ndarray, int]:
    """Solve (A + diag(shift)) x = rhs; returns x and the linear iterations.

    With a fast inverse of A and a provably SPD matrix, min(shift) >
    -lambda_min(A): a constant shift is inverted directly, any other runs
    CG.  Everything else is one sparse LU solve.  CG and LU both take the
    matrix from ``shifted``, built once per assembled operator.  Direct
    solves count 1.
    """
    if fast is not None:
        lo, hi = float(np.min(shift)), float(np.max(shift))
        if lo > -fast.lam_min:
            if lo == hi:
                return fast(rhs, lo), 1
            return _pcg(shifted.with_shift(shift), rhs, fast, 0.5 * (lo + hi), m)
    return spla.splu(shifted.with_shift(shift)).solve(rhs), 1


def _newton_level(
    op: DiscreteOperator,
    f: Nonlinearity,
    t: float,
    kmm: float,
    Fm: np.ndarray,
    g_dir: np.ndarray,
    u_start: np.ndarray,
    pts: np.ndarray,
    cfg: SolverConfig,
    m: int,
    fast: FastInverse | None,
    shifted: _ShiftedMatrix,
):
    A = op.matrix

    def residual(u):
        return kmm * u + A @ u + g_dir + np.asarray(f.eval(pts, t, u)) - Fm

    tol = cfg.nonlin_tol * max(1.0, float(np.max(np.abs(Fm))))
    u = u_start.copy()
    res = residual(u)
    rnorm = float(np.max(np.abs(res)))
    lin_total = picard = 0
    for it in range(1, cfg.max_newton + 1):
        if not np.isfinite(rnorm):
            raise NonconvergenceError(m, rnorm, f"non-finite residual at level {m}")
        if rnorm <= tol:
            return u, it - 1, rnorm, lin_total, picard
        if f.deriv_s is not None:
            dvals = kmm + np.asarray(f.deriv_s(pts, t, u))
        else:
            dvals = kmm  # Picard: frozen nonlinearity
        step, n_lin = _linear_solve(shifted, dvals, -res, fast, m)
        lin_total += n_lin
        # residual-norm line search, shrink by cfg.damping down to 2^-20
        damp = 1.0
        while damp >= 2.0**-20:
            u_new = u + damp * step
            res_new = residual(u_new)
            rnorm_new = float(np.max(np.abs(res_new)))
            if rnorm_new < rnorm or rnorm_new <= tol:
                u, res, rnorm = u_new, res_new, rnorm_new
                break
            damp *= cfg.damping
        else:
            # line search stalled; Picard step (monotone at small tau)
            step, n_lin = _linear_solve(shifted, kmm, -residual(u), fast, m)
            lin_total += n_lin
            picard += 1
            u = u + step
            res = residual(u)
            rnorm = float(np.max(np.abs(res)))
    if rnorm <= tol:
        return u, cfg.max_newton, rnorm, lin_total, picard
    raise NonconvergenceError(m, rnorm)


def solve_pde(
    problem: Problem,
    mesh: TemporalMesh,
    grid: Grid,
    cfg: SolverConfig | None = None,
) -> SolutionHistory:
    """March the L1 scheme over ``mesh``; ``fields`` is the only history store."""
    cfg = cfg or SolverConfig()
    alpha = problem.alpha
    mp = check_max_principle(grid, problem.coeffs, t_samples=tuple(mesh.nodes[:: max(1, mesh.M // 8)]))
    if not mp.passed:
        raise ValueError(
            f"discrete maximum principle violated: need h <= {mp.required_h:.4g}, "
            f"have h = {mp.h:.4g}"
        )
    periodic = any(problem.bc.axis_periodic(k) for k in range(grid.d))  # needs the strict form
    _gate_step_restriction(mesh, alpha, problem.f.lam, cfg.strict_restriction or periodic)

    op = assemble(grid, problem.coeffs, float(mesh.nodes[1]), problem.bc)
    shifted = _ShiftedMatrix.of(op.matrix)
    # in 1D the matrices are (cyclic) tridiagonal: their LU has no fill and
    # costs less than the per-call overhead of the transforms and of CG
    fast = fast_inverse(grid, problem.coeffs, problem.bc) if grid.d == 2 else None
    pts_unknown = grid.points()[op.unknown_flat]

    fields = np.empty((mesh.M + 1, grid.n_nodes))
    fields[0] = problem.initial_field(grid)

    out = SolutionHistory(mesh=mesh, grid=grid, fields=fields)
    for m, kmm, F in march(mesh, alpha, fields):
        t_m = float(mesh.nodes[m])
        if problem.coeffs.time_dependent and m > 1:  # the operator at t_1 is built above
            op = assemble(grid, problem.coeffs, t_m, problem.bc)
            shifted = _ShiftedMatrix.of(op.matrix)
        # F sums whole rows; keep the unknowns (a column-indexed slice would copy m rows)
        Fm = F[op.unknown_flat]
        g_dir = op.data_vector(t_m)
        u, iters, rnorm, lin_it, picard = _newton_level(
            op, problem.f, t_m, kmm, Fm, g_dir, fields[m - 1][op.unknown_flat],
            pts_unknown, cfg, m, fast, shifted,
        )
        fields[m] = op.scatter(u, t_m)
        out.newton_iters.append(iters)
        out.residuals.append(rnorm)
        out.lin_iters.append(lin_it)
        out.picard_steps.append(picard)
    return out


def range_check_pde(
    hist: SolutionHistory, sigma1: float, sigma2: float, slack: float | None = None
) -> bool:
    """True iff all nodal values lie in [sigma1 - slack, sigma2 + slack]."""
    if slack is None:
        slack = SolverConfig().nonlin_tol
    ok = bool(
        np.all(hist.fields >= sigma1 - slack) and np.all(hist.fields <= sigma2 + slack)
    )
    hist.range_ok = ok
    return ok
