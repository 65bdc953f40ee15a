"""Full discretization: per-level semilinear elliptic solves

    kappa_{m,m} U^m + L_h U^m + f(z, t_m, U^m) = F^m

with damped Newton, an M-matrix Jacobian under the step restriction, and
range preservation for invariant-range reactions.  Each level starts
Newton from a Lagrange extrapolation, in the variable s = t^alpha, of
*solved* levels only: level 0 and each level whose Newton loop took a step.
A start accurate to the Newton tolerance takes no step, and that level's
U^m is its start, an extrapolation itself; extrapolating again from it
would multiply its error by the Lebesgue constant (up to 15 for a cubic),
so such a level enters the history sum but is never a node.  A predictor
extrapolates only from converged corrector values (Brenan-Campbell-Petzold,
1996).  Near t = 0 the solution behaves like u(0) + c t^alpha + O(t^{2
alpha}) (Stynes-O'Riordan-Gracia, SIAM J. Numer. Anal. 2017), smooth in s
where it is singular in t, and on a graded mesh the s-steps grow far less
than the t-steps, so an extrapolation in s overshoots far less than one in
t.  The nodes are the four latest solved levels.  While level 0 is the
only node a level starts from U^0, while it is among the nodes from the
line in s through the two latest, and after that from the cubic in s
through all four.  When every level takes a step, the nodes are
consecutive levels and their rows a view.  The start is clipped to the
reaction's invariant range when there is one, where the solution lies and
a truncated reaction has its derivative.

Each assembled L_h passes ``spatial.check_max_principle`` (an M-matrix)
and gets one solver object whose ``solve(shift, rhs, m, tol, eta)`` makes the
whole linear-solve choice for (L_h + diag(shift)) x = rhs:

* 1D (``_ShiftedTridiag``): one tridiagonal LU (LAPACK ``dgtsv``) per
  solve.  A periodic L_h is tridiagonal plus two corners; the corners are
  one Sherman-Morrison correction, whose second right-hand side goes into
  the same ``dgtsv`` call (Temperton, J. Comput. Phys. 1975).
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

The three diagonals and corners of a 1D L_h are taken once per assembled
operator, and the CSC matrix of SuperLU at its first SuperLU solve (the CG
of the fast path never needs it); a solve only rewrites the diagonal (of a
copy, which LAPACK factors in place).  The same diagonals
give the residual's product L_h U in 1D.  A ``t``-dependent L_h is
assembled and checked once per level, at t_m; a constant one once, at
t_1.  Dirichlet data given by a callable phi(x, t) is evaluated once per
level, for the data vector and the scatter; constant data once per
assembled operator.

scipy is not imported with this module: ``sp`` (``scipy.sparse``), ``spla``
(``scipy.sparse.linalg``) and ``dgtsv`` (``scipy.linalg.lapack.dgtsv``)
each bind at their first use, as ``spatial._lazy_imports`` lists, and
reading one from outside (``fraxolve.pde.spla``) binds it too (PEP 562).
The solves call ``spla.splu`` and ``dgtsv`` through these globals, so
``fraxolve.pde.spla`` and ``fraxolve.pde.dgtsv`` are the attributes to swap
to trace or spy on them; a name swapped in before its first use is kept.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # bound at run time by _load_scipy (module docstring)
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    from scipy.linalg.lapack import dgtsv

# l1_weights and check_step_restriction are unused here: perfbench/tracing.py wraps them
from .caputo import l1_weights, march
from .mesh import TemporalMesh, check_step_restriction
from .nonlinearity import Nonlinearity
from .scalar import NonconvergenceError, SolverConfig, _gate_step_restriction
from .spatial import (
    BoundarySpec,
    CoefficientField,
    FastInverse,
    Grid,
    _lazy_imports,
    assemble,
    check_max_principle,
    fast_inverse,
)

__all__ = ["Problem", "SolverConfig", "SolutionHistory", "solve_pde"]

_load_scipy, __getattr__ = _lazy_imports(globals(), {
    "sp": "scipy.sparse", "spla": "scipy.sparse.linalg", "dgtsv": "scipy.linalg.lapack:dgtsv",
})


@dataclass
class Problem:
    """Problem data for D_t^alpha u + L u + f(x, t, u) = 0."""

    coeffs: CoefficientField
    bc: BoundarySpec
    f: Nonlinearity
    u0: Callable  # u0(points) -> values at the nodes
    alpha: float

    def initial_field(self, grid: Grid) -> np.ndarray:
        return np.asarray(self.u0(grid.points()), dtype=float)


@dataclass
class SolutionHistory:
    mesh: TemporalMesh
    grid: Grid
    fields: np.ndarray  # (M+1, n_nodes) full nodal fields
    # 0: the level kept its extrapolated start and is no extrapolation node (module docstring)
    newton_iters: list[int] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    lin_iters: list[int] = field(default_factory=list)  # CG iterations; 1 per direct solve
    picard_steps: list[int] = field(default_factory=list)  # after a stalled line search


_CG_RTOL = 1e-13  # the floor of the CG forcing term
_CG_MAXITER = 200
_DAMPING = 0.5  # line-search shrink factor
# a Sherman-Morrison denominator 1 + v.z at most this times max(1, |v.z|) is rounding of 0
_SM_EPS = 64 * np.finfo(float).eps


@dataclass
class _ShiftedMatrix:
    """The solver of a 2D operator A, set up once per assembled A.

    ``matvec`` is the residual's product with A itself.  ``fast`` is the
    fast inverse of A, or None.  The CG of the fast path never multiplies by
    a shifted matrix (``_pcg``), not even for the residual a CG failure
    reports; the SuperLU solve takes ``_with_shift``, whose CSC matrix
    ``_J`` is built on first use.  It has the off-diagonal entries of A and
    a full diagonal; a solve only rewrites the diagonal entries (the
    positions ``_J`` also returns) with A's diagonal plus the shift, so the
    sparsity never changes.
    """

    A: sp.spmatrix
    a_diag: np.ndarray
    fast: FastInverse | None

    @classmethod
    def of(cls, A: sp.spmatrix, fast: FastInverse | None = None) -> "_ShiftedMatrix":
        return cls(A, A.diagonal(), fast)

    @functools.cached_property
    def _J(self) -> tuple[sp.csc_matrix, np.ndarray]:
        """The CSC matrix of A's off-diagonal entries plus I, and the positions of its diagonal."""
        _load_scipy("sp")
        n = self.A.shape[0]
        # drop A's diagonal before adding I, so no a_ii + 1 can cancel to a missing entry
        J = (self.A - sp.diags(self.a_diag) + sp.eye(n)).tocsc()
        cols = np.repeat(np.arange(n), np.diff(J.indptr))
        return J, np.flatnonzero(J.indices == cols)

    def matvec(self, u: np.ndarray) -> np.ndarray:
        return self.A @ u

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
                rhs_norm = math.sqrt(rhs.dot(rhs))  # as in _pcg
                rtol = max(_CG_RTOL, min(1e-2, max(eta, 0.1 * tol / rhs_norm)))
                return self._pcg(shift, rhs, 0.5 * (lo + hi), m, rtol, rhs_norm)
        _load_scipy("spla")
        try:
            lu = spla.splu(self._with_shift(shift))
        except RuntimeError as err:  # "Factor is exactly singular"
            msg = f"singular linear system at level {m}: {err}"
            raise NonconvergenceError(m, np.inf, msg) from err
        return lu.solve(rhs), 1

    def _with_shift(self, shift) -> sp.csc_matrix:
        """``_J`` rewritten in place to A + diag(shift); valid until the next call."""
        J, diag_pos = self._J
        J.data[diag_pos] = self.a_diag + shift
        return J

    def _pcg(
        self, shift, rhs: np.ndarray, s: float, m: int, rtol: float, rhs_norm: float
    ) -> tuple[np.ndarray, int]:
        """CG on A + diag(shift), preconditioned by (A + s I)^{-1}, to relative residual rtol.

        ``fast`` exists only where it inverts A + s I exactly, so with
        z = (A + s I)^{-1} r the search direction p = z + beta p carries
        w = (A + s I) p along as w = r + beta w, and the product with the
        matrix is q = w + (shift - s) p: no matrix-vector product at all
        (Eisenstat, SISC 1981).  The update order is scipy's ``cg``: the
        stopping test on the recursive residual, then rho, beta, alpha, x, r.
        ``rhs_norm`` is ||rhs||_2; the 2-norms are sqrt(r.r), the value
        ``np.linalg.norm`` returns for a real vector, at half its cost.
        """
        apply = self.fast.at(s)
        extra = shift - s
        x = np.zeros_like(rhs)
        r = rhs.copy()
        atol = rtol * rhs_norm
        for k in range(_CG_MAXITER):
            if math.sqrt(r.dot(r)) < atol:
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
        lin_res = float(np.linalg.norm(rhs - (self.A @ x + shift * x))) / rhs_norm
        raise NonconvergenceError(
            m, lin_res,
            f"CG did not reach relative residual {rtol:.3g} in {_CG_MAXITER} "
            f"iterations at level {m} (reached {lin_res:.3e})",
        )


@dataclass
class _ShiftedTridiag:
    """The solver of a 1D operator A: its three diagonals and periodic corners.

    ``lower[i] = A[i+1, i]``, ``diag[i] = A[i, i]``, ``upper[i] = A[i, i+1]``;
    ``corners = (A[n-1, 0], A[0, n-1])`` on a periodic axis with n >= 3,
    else None (at n = 2 the off-diagonals already hold both neighbours).
    The same arrays give the residual's product A u (``matvec``) and each
    shifted solve (``solve``).
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    corners: tuple[float, float] | None

    @classmethod
    def of(cls, A: sp.csr_matrix) -> "_ShiftedTridiag":
        _load_scipy("dgtsv")
        n = A.shape[0]
        if n == 1:  # scipy's dgtsv takes a length-1 off-diagonal at n = 1
            return cls(np.zeros(1), A.diagonal(), np.zeros(1), None)
        corners = None
        if n >= 3 and (A[n - 1, 0] or A[0, n - 1]):
            corners = (float(A[n - 1, 0]), float(A[0, n - 1]))
        return cls(A.diagonal(-1), A.diagonal(), A.diagonal(1), corners)

    def __post_init__(self):
        # Sherman-Morrison's u, whose zero interior every periodic solve keeps
        self._u = None if self.corners is None else np.zeros(self.diag.size)

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """A u; each row but a periodic last one sums as A's CSR product does, bitwise equal to it."""
        y = self.diag * u
        y[1:] += self.lower * u[:-1]
        y[:-1] += self.upper * u[1:]
        if self.corners is not None:
            y[0] += self.corners[1] * u[-1]
            y[-1] += self.corners[0] * u[0]
        return y

    def solve(
        self, shift, rhs: np.ndarray, m: int, tol: float, eta: float = 0.0
    ) -> tuple[np.ndarray, int]:
        """(A + diag(shift))^{-1} rhs by one tridiagonal LU, counted 1; ``tol`` and ``eta`` are unused.

        With corners, A + diag(shift) = T + u v^T for the tridiagonal T that
        has d_0 - gamma and d_{n-1} - A[n-1,0] A[0,n-1] / gamma,
        u = (gamma, 0, ..., 0, A[n-1,0]) and v = (1, 0, ..., 0, A[0,n-1] /
        gamma).  With gamma = -d_0, T >= A + diag(shift) entrywise when the
        latter is an M-matrix, so T is one too; at d_0 = 0 gamma is minus
        the corners' absolute sum.  One ``dgtsv`` call solves T [y z] = [rhs u], and
        x = y - (v.y) / (1 + v.z) z (Sherman-Morrison; Temperton, J. Comput.
        Phys. 1975).  An exactly singular T, or a denominator 1 + v.z within
        rounding of 0 (then A + diag(shift) is singular to working
        precision), raises ``NonconvergenceError(m)``.
        """
        d = self.diag + shift
        if self.corners is None:
            b = rhs
        else:
            c_lo, c_hi = self.corners
            gamma = -d[0] or -abs(c_lo) - abs(c_hi)
            d[0] -= gamma
            d[-1] -= c_lo * c_hi / gamma
            u = self._u
            u[0], u[-1] = gamma, c_lo
            b = np.array((rhs, u)).T  # Fortran order, as dgtsv takes it
        _, _, _, x, info = dgtsv(self.lower, d, self.upper, b, overwrite_d=1, overwrite_b=b is not rhs)
        if info != 0:
            raise NonconvergenceError(m, np.inf, f"singular linear system at level {m} (dgtsv info {info})")
        if self.corners is None:
            return x, 1
        y, z = x[:, 0], x[:, 1]
        vz = z[0] + c_hi / gamma * z[-1]
        denom = 1.0 + vz
        if abs(denom) <= _SM_EPS * max(1.0, abs(vz)):
            msg = f"singular linear system at level {m} (Sherman-Morrison denominator {denom:.3e})"
            raise NonconvergenceError(m, np.inf, msg)
        return y - (y[0] + c_hi / gamma * y[-1]) / denom * z, 1


def _newton_level(
    f: Nonlinearity,
    t: float,
    kmm: float,
    Fm: np.ndarray,
    g_dir: np.ndarray,
    u: np.ndarray,
    pts: np.ndarray,
    cfg: SolverConfig,
    m: int,
    solver: _ShiftedMatrix | _ShiftedTridiag,
):
    """U^m by damped Newton on the level's residual, from the start ``u``.

    ``solver`` serves both products of a step: L_h u in the residual
    (``matvec``; in 1D from the tridiagonal solver's own diagonals) and the
    solve with L_h + diag(kmm + f_s).  ``u`` is ``_start``'s, which each
    step replaces, never writes; a start that already meets the tolerance
    is returned after 0 steps.  ``g_dir`` is the Dirichlet data's
    contribution to L_h u.  Returns U^m, the Newton steps, the final
    residual inf-norm (<= the tolerance ``cfg.nonlin_tol * max(1,
    max|Fm|)``), the linear iterations and the Picard steps.
    """
    def residual(u):
        return kmm * u + solver.matvec(u) + g_dir + np.asarray(f.eval(pts, t, u)) - Fm

    scale = max(1.0, float(np.abs(Fm).max()))
    tol = cfg.nonlin_tol * scale
    res = residual(u)
    rnorm = float(np.abs(res).max())
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
            rnorm_new = float(np.abs(res_new).max())
            if rnorm_new < rnorm or rnorm_new <= tol:
                u, res, rnorm = u_new, res_new, rnorm_new
                break
            damp *= _DAMPING
        else:
            # line search stalled; Picard step (monotone at small tau)
            step, n_lin = solver.solve(kmm, -res, m, tol, rnorm / scale)
            lin_total += n_lin
            picard += 1
            u = u + step
            res = residual(u)
            rnorm = float(np.abs(res).max())
    if rnorm <= tol:
        return u, cfg.max_newton, rnorm, lin_total, picard
    raise NonconvergenceError(m, rnorm)


def _lagrange_weights(xs: list[float], x: float) -> list[float]:
    """The Lagrange basis polynomials of the 2 or 4 distinct nodes ``xs``, evaluated at x.

    Closed forms in Python floats, with d_i = x - x_i and h_ij = x_i - x_j:
    a level's weights cost less than one array operation.
    """
    if len(xs) == 2:
        x0, x1 = xs
        h01 = x0 - x1
        return [(x - x1) / h01, (x0 - x) / h01]
    x0, x1, x2, x3 = xs
    d0, d1, d2, d3 = x - x0, x - x1, x - x2, x - x3
    h01, h02, h03, h12, h13, h23 = x0 - x1, x0 - x2, x0 - x3, x1 - x2, x1 - x3, x2 - x3
    return [
        d1 * d2 * d3 / (h01 * h02 * h03),
        -d0 * d2 * d3 / (h01 * h12 * h13),
        d0 * d1 * d3 / (h02 * h12 * h23),
        -d0 * d1 * d2 / (h03 * h13 * h23),
    ]


def _rows(fields: np.ndarray, levels: list[int]) -> np.ndarray:
    """``fields[levels]`` for increasing levels: a view when they are consecutive, else a gather."""
    if levels[-1] - levels[0] == len(levels) - 1:
        return fields[levels[0]:levels[-1] + 1]
    return fields[levels]


def _start(
    fields: np.ndarray,
    s: list[float],
    nodes: list[int],
    m: int,
    unk: np.ndarray,
    bounds: tuple[float, float] | None,
) -> np.ndarray:
    """Level m's start at the unknowns from the <= 4 latest solved levels ``nodes``
    (module docstring); ``s`` is t^alpha at the mesh nodes as Python floats, and
    ``bounds`` the reaction's invariant range or None."""
    if len(nodes) == 1:
        return fields[0][unk]
    q = nodes[-2:] if nodes[0] == 0 else nodes
    # whole rows: a view, where a slice of the unknowns would copy them
    u = np.dot(_lagrange_weights([s[j] for j in q], s[m]), _rows(fields, q))[unk]
    if bounds is not None:  # the ufunc pair costs less than np.clip's wrappers
        np.maximum(u, bounds[0], out=u)
        np.minimum(u, bounds[1], out=u)
    return u


def solve_pde(
    problem: Problem,
    mesh: TemporalMesh,
    grid: Grid,
    cfg: SolverConfig | None = None,
) -> SolutionHistory:
    """March the L1 scheme over ``mesh``; ``fields`` is the only history store."""
    cfg = cfg or SolverConfig()
    alpha = problem.alpha
    # constants span a periodic L_h's kernel: the strict form keeps kappa_mm + f_s > 0
    periodic = any(problem.bc.axis_periodic(k) for k in range(grid.d))
    _gate_step_restriction(mesh, alpha, problem.f.lam, strict=periodic)

    # a 1D L_h is (cyclic) tridiagonal: one tridiagonal LU per solve costs less
    # than the set-up of SuperLU and the per-call overhead of the transforms and of CG
    if grid.d == 1:
        solver_of = _ShiftedTridiag.of
    else:
        fast = fast_inverse(grid, problem.coeffs, problem.bc)
        solver_of = functools.partial(_ShiftedMatrix.of, fast=fast)

    fields = np.empty((mesh.M + 1, grid.n_nodes))
    fields[0] = problem.initial_field(grid)
    s = (mesh.nodes**alpha).tolist()
    nodes = [0]  # the <= 4 latest solved levels
    data_varies = problem.bc.dirichlet_data_varies

    out = SolutionHistory(mesh=mesh, grid=grid, fields=fields)
    for m, kmm, F in march(mesh, alpha, fields):
        t_m = float(mesh.nodes[m])
        new_op = m == 1 or problem.coeffs.time_dependent
        if new_op:
            op = assemble(grid, problem.coeffs, t_m, problem.bc)
            check_max_principle(op, m)
            solver = solver_of(op.matrix)
        if new_op or data_varies:
            g = op.dirichlet_values(t_m)
            g_dir = op.data_vector(g)
        unk = op.unknown_flat
        # F sums whole rows; keep the unknowns (a column-indexed slice would copy m rows)
        Fm = F[unk]
        u, iters, rnorm, lin_it, picard = _newton_level(
            problem.f, t_m, kmm, Fm, g_dir, _start(fields, s, nodes, m, unk, problem.f.range),
            op.unknown_points, cfg, m, solver,
        )
        op.scatter(u, g, out=fields[m])
        if iters:
            nodes = nodes[-3:] + [m]
        out.newton_iters.append(iters)
        out.residuals.append(rnorm)
        out.lin_iters.append(lin_it)
        out.picard_steps.append(picard)
    return out
