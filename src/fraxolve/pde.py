"""Full discretization: per-level semilinear elliptic solves

    kappa_{m,m} U^m + L_h U^m + f(z, t_m, U^m) = F^m

with damped Newton, an M-matrix Jacobian under the step restriction, and
range preservation for invariant-range reactions.  Level 1 starts Newton
from U^0; level m >= 2 from the step-ratio extrapolation

    U^{m-1} + (tau_m / tau_{m-1}) (U^{m-1} - U^{m-2}),

the standard starting value of implicit integrators (Hairer-Wanner, Solving
ODEs II, IV.8): away from t = 0 the solution is smooth in t, so one Newton
step usually suffices where U^{m-1} needs two.  Near t = 0 a graded mesh has
tau_m / tau_{m-1} up to 2^r - 1 and the extrapolation overshoots, so it is
clipped to the reaction's invariant range when there is one, where the
solution lies and a truncated reaction has its derivative.

Each assembled L_h passes ``spatial.check_max_principle`` (an M-matrix)
and gets one solver object whose ``solve(shift, rhs, m, tol, eta)`` makes the
whole linear-solve choice for (L_h + diag(shift)) x = rhs:

* 1D (``_ShiftedBand``): one banded LU (LAPACK ``dgbsv``) per solve;
  renumbering the unknowns 0, n-1, 1, n-2, ... makes every 1D L_h,
  periodic or not, a band of half-width 2.
* 2D (``_ShiftedMatrix``): CG preconditioned with the fast inverse
  (``spatial.fast_inverse``: four small GEMMs with dense eigenbases on
  grids with N <= 128, sine/Fourier transforms above) when there is one
  and the matrix is provably SPD; the preconditioner inverts L_h + s I
  exactly, so the CG carries (L_h + s I) p through its recurrence and
  applies the matrix without a sparse product.  Otherwise (variable
  coefficients, convection, Robin faces, or a matrix not provably SPD)
  one SuperLU factorization per solve.

CG is inexact Newton with a forcing term that shrinks with the Newton
residual r_k (Dembo-Eisenstat-Steihaug, SIAM J. Numer. Anal. 1982): CG
stops at relative residual max(eta_k, 0.1 tol / ||r_k||_2), kept within
[1e-13, 1e-2], where eta_k = ||r_k||_inf / max(1, ||F^m||_inf) is the
Newton residual scaled as the tolerance tol is.  The early steps of a
level, far from U^m, are solved loosely instead of to the final accuracy
(no "oversolving", Eisenstat-Walker, SISC 1996), and since eta_k ||r_k|| =
O(||r_k||^2) Newton stays q-quadratic.  Once eta_k ||r_k||_2 <= 0.1 tol the
second term takes over: the step's linear residual is then at most a tenth
of the tolerance, as with the fixed forcing term 0.1 tol / ||r_k||_2 alone.
The Newton loop tests the true residual against tol at every step, so a
loose step that falls short costs one more Newton step, not accuracy.

The band, and the CSC matrix of SuperLU, are built once per assembled
operator; a solve only rewrites the diagonal (of a copy of the band,
which LAPACK factors in place).  A ``t``-dependent L_h is assembled and
checked once per level, at t_m; a constant one once, at t_1.  The
Dirichlet data is evaluated once per level, for the data vector and the
scatter.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbsv

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
    u0: Callable  # u0(points) -> values at the nodes
    alpha: float = 0.5

    def initial_field(self, grid: Grid) -> np.ndarray:
        return np.asarray(self.u0(grid.points()), dtype=float)


@dataclass
class SolutionHistory:
    mesh: TemporalMesh
    grid: Grid
    fields: np.ndarray  # (M+1, n_nodes) full nodal fields
    newton_iters: list[int] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    lin_iters: list[int] = field(default_factory=list)  # CG iterations; 1 per direct solve
    picard_steps: list[int] = field(default_factory=list)  # after a stalled line search


_CG_RTOL = 1e-13  # the floor of the CG forcing term
_CG_MAXITER = 200
_DAMPING = 0.5  # line-search shrink factor


@dataclass
class _ShiftedMatrix:
    """The solver of a 2D operator A: one CSC matrix, set up once per assembled A.

    ``J`` has the off-diagonal entries of A and a full diagonal; a solve
    only rewrites the diagonal entries (positions ``diag_pos`` in J.data)
    with A's diagonal plus the shift, so the sparsity never changes.
    ``fast`` is the fast inverse of A, or None.  The CG of the fast path
    never multiplies by J (``_pcg``): J serves the SuperLU solve and the
    residual a CG failure reports.
    """

    J: sp.csc_matrix
    diag_pos: np.ndarray
    a_diag: np.ndarray
    fast: FastInverse | None

    @classmethod
    def of(cls, A: sp.spmatrix, fast: FastInverse | None = None) -> "_ShiftedMatrix":
        n = A.shape[0]
        a_diag = A.diagonal()
        # drop A's diagonal before adding I, so no a_ii + 1 can cancel to a missing entry
        J = (A - sp.diags(a_diag) + sp.eye(n)).tocsc()
        cols = np.repeat(np.arange(n), np.diff(J.indptr))
        return cls(J, np.flatnonzero(J.indices == cols), a_diag, fast)

    def solve(
        self, shift, rhs: np.ndarray, m: int, tol: float, eta: float = 0.0
    ) -> tuple[np.ndarray, int]:
        """Solve (A + diag(shift)) x = rhs, rhs != 0; returns x and the linear iterations.

        With a fast inverse and a provably SPD matrix, min(shift) >
        -lambda_min(A), CG preconditioned by (A + s I)^{-1} at the mean
        shift s (exact for a constant shift: 1 iteration), to the
        inexact-Newton forcing term

            rtol = max(1e-13, min(1e-2, max(eta, 0.1 tol / ||rhs||_2))),

        with ``tol`` the Newton tolerance on the residual's inf-norm and, in
        a Newton step, ``eta = ||rhs||_inf / max(1, ||F^m||_inf)``: the
        residual scaled as ``tol`` is (Dembo-Eisenstat-Steihaug 1982,
        Eisenstat-Walker 1996; module docstring).  The linear residual then
        has inf-norm <= max(eta ||rhs||_2, 0.1 tol) (or relative 2-norm <=
        1e-13): once eta ||rhs||_2 <= 0.1 tol, and always with eta = 0, a
        tenth of the Newton tolerance for any rhs.  Otherwise one SuperLU
        solve, counted 1, that ignores ``tol`` and ``eta``; an exactly
        singular matrix raises ``NonconvergenceError(m)``.
        """
        if self.fast is not None:
            lo, hi = float(np.min(shift)), float(np.max(shift))
            if lo > -self.fast.lam_min:
                rtol = max(eta, 0.1 * tol / float(np.linalg.norm(rhs)))
                rtol = max(_CG_RTOL, min(1e-2, rtol))
                return self._pcg(shift, rhs, 0.5 * (lo + hi), m, rtol)
        try:
            lu = spla.splu(self._with_shift(shift))
        except RuntimeError as err:  # "Factor is exactly singular"
            msg = f"singular linear system at level {m}: {err}"
            raise NonconvergenceError(m, np.inf, msg) from err
        return lu.solve(rhs), 1

    def _with_shift(self, shift) -> sp.csc_matrix:
        """J rewritten in place to A + diag(shift); valid until the next call."""
        self.J.data[self.diag_pos] = self.a_diag + shift
        return self.J

    def _pcg(self, shift, rhs: np.ndarray, s: float, m: int, rtol: float) -> tuple[np.ndarray, int]:
        """CG on A + diag(shift), preconditioned by (A + s I)^{-1}, to relative residual rtol.

        ``fast`` exists only where it inverts A + s I exactly, so with
        z = (A + s I)^{-1} r the search direction p = z + beta p carries
        w = (A + s I) p along as w = r + beta w, and the product with the
        matrix is q = w + (shift - s) p: no matrix-vector product at all
        (Eisenstat, SISC 1981).  The update order is scipy's ``cg``: the
        stopping test on the recursive residual, then rho, beta, alpha, x, r.
        """
        apply = self.fast.at(s)
        extra = shift - s
        x = np.zeros_like(rhs)
        r = rhs.copy()
        atol = rtol * float(np.linalg.norm(rhs))
        for k in range(_CG_MAXITER):
            if np.linalg.norm(r) < atol:
                return x, k
            z = apply(r)
            rho = np.dot(r, z)
            if k:
                beta = rho / rho_prev
                p *= beta
                p += z
                w *= beta
                w += r
            else:
                p, w = z, r.copy()
            q = w + extra * p
            alpha = rho / np.dot(p, q)
            x += alpha * p
            r -= alpha * q
            rho_prev = rho
        lin_res = float(np.linalg.norm(rhs - self._with_shift(shift) @ x) / np.linalg.norm(rhs))
        raise NonconvergenceError(
            m, lin_res,
            f"CG did not reach relative residual {rtol:.3g} in {_CG_MAXITER} "
            f"iterations at level {m} (reached {lin_res:.3e})",
        )


@dataclass
class _ShiftedBand:
    """The solver of a 1D operator A: one LAPACK band, set up once per assembled A.

    The unknowns are renumbered 0, n-1, 1, n-2, 2, ... (``perm``): every
    coupling of neighbours, the periodic one of 0 and n-1 included, is then
    at most two places off the diagonal, so each solve is one banded LU with
    partial pivoting (``dgbsv``).  ``band`` holds the permuted A in the
    (2 kl + ku + 1, n) layout dgbsv factors in place, diagonal row left
    zero; ``a_diag`` is the permuted diagonal of A.
    """

    perm: np.ndarray
    band: np.ndarray
    a_diag: np.ndarray
    kl: int
    ku: int

    @classmethod
    def of(cls, A: sp.spmatrix) -> "_ShiftedBand":
        n = A.shape[0]
        perm = np.empty(n, dtype=np.intp)
        perm[0::2] = np.arange((n + 1) // 2)
        perm[1::2] = np.arange(n - 1, (n - 1) // 2, -1)
        P = A.tocsr()[perm][:, perm].tocoo()
        off = P.row != P.col
        row, col = P.row[off], P.col[off]
        kl = int(np.max(row - col, initial=0))
        ku = int(np.max(col - row, initial=0))
        band = np.zeros((2 * kl + ku + 1, n), order="F")
        band[kl + ku + row - col, col] = P.data[off]
        return cls(perm, band, P.diagonal(), kl, ku)

    def solve(
        self, shift, rhs: np.ndarray, m: int, tol: float, eta: float = 0.0
    ) -> tuple[np.ndarray, int]:
        """(A + diag(shift))^{-1} rhs by one banded LU, counted 1; ``tol`` and ``eta`` are unused."""
        p = self.perm
        ab = self.band.copy(order="F")
        ab[self.kl + self.ku] = self.a_diag + (shift[p] if np.ndim(shift) else shift)
        _, _, x, info = dgbsv(self.kl, self.ku, ab, rhs[p], overwrite_ab=1, overwrite_b=1)
        if info != 0:
            msg = f"singular linear system at level {m} (dgbsv info {info})"
            raise NonconvergenceError(m, np.inf, msg)
        out = np.empty_like(x)
        out[p] = x
        return out, 1


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
    solver: _ShiftedMatrix | _ShiftedBand,
):
    """U^m by damped Newton on the level's residual, from ``u_start``.

    ``u_start`` is U^0 at level 1 and, after it, the step-ratio
    extrapolation clipped to ``f.range``: the clip undoes the overshoot of
    the strongly graded first steps (module docstring).  Returns U^m, the
    Newton steps, the final residual inf-norm (<= the tolerance
    ``cfg.nonlin_tol * max(1, max|Fm|)``), the linear iterations and the
    Picard steps.
    """
    A = op.matrix

    def residual(u):
        return kmm * u + A @ u + g_dir + np.asarray(f.eval(pts, t, u)) - Fm

    scale = max(1.0, float(np.max(np.abs(Fm))))
    tol = cfg.nonlin_tol * scale
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
        # the CG forcing term's eta_k: the residual scaled as tol is (module docstring)
        step, n_lin = solver.solve(dvals, -res, m, tol, rnorm / scale)
        lin_total += n_lin
        # residual-norm line search, shrink by _DAMPING down to 2^-20
        damp = 1.0
        while damp >= 2.0**-20:
            u_new = u + damp * step
            res_new = residual(u_new)
            rnorm_new = float(np.max(np.abs(res_new)))
            if rnorm_new < rnorm or rnorm_new <= tol:
                u, res, rnorm = u_new, res_new, rnorm_new
                break
            damp *= _DAMPING
        else:
            # line search stalled; Picard step (monotone at small tau)
            step, n_lin = solver.solve(kmm, -residual(u), m, tol, rnorm / scale)
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
    periodic = any(problem.bc.axis_periodic(k) for k in range(grid.d))  # needs the strict form
    _gate_step_restriction(mesh, alpha, problem.f.lam, cfg.strict_restriction or periodic)

    # a 1D L_h is (cyclic) tridiagonal: one banded LU per solve costs less than
    # the set-up of SuperLU and the per-call overhead of the transforms and of CG
    if grid.d == 1:
        solver_of = _ShiftedBand.of
    else:
        fast = fast_inverse(grid, problem.coeffs, problem.bc)
        solver_of = functools.partial(_ShiftedMatrix.of, fast=fast)

    fields = np.empty((mesh.M + 1, grid.n_nodes))
    fields[0] = problem.initial_field(grid)
    tau = mesh.steps  # tau[m - 1] = t_m - t_{m-1}; the property recomputes it per access
    s_range = problem.f.range

    out = SolutionHistory(mesh=mesh, grid=grid, fields=fields)
    for m, kmm, F in march(mesh, alpha, fields):
        t_m = float(mesh.nodes[m])
        if m == 1 or problem.coeffs.time_dependent:
            op = assemble(grid, problem.coeffs, t_m, problem.bc)
            check_max_principle(op, m)
            solver = solver_of(op.matrix)
        unk = op.unknown_flat
        # F sums whole rows; keep the unknowns (a column-indexed slice would copy m rows)
        Fm = F[unk]
        g = op.dirichlet_values(t_m)
        u_start = fields[m - 1][unk]
        if m >= 2:  # step-ratio extrapolation through U^{m-2}, U^{m-1}
            u_start += (tau[m - 1] / tau[m - 2]) * (u_start - fields[m - 2][unk])
            if s_range is not None:
                np.clip(u_start, *s_range, out=u_start)
        u, iters, rnorm, lin_it, picard = _newton_level(
            op, problem.f, t_m, kmm, Fm, op.data_vector(g), u_start,
            op.unknown_points, cfg, m, solver,
        )
        fields[m] = op.scatter(u, g)
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
    return bool(
        np.all(hist.fields >= sigma1 - slack) and np.all(hist.fields <= sigma2 + slack)
    )
