"""A dense reference for the scheme, built from its formulas alone.

Nothing here but ``assembled_operator`` calls ``spatial.assemble``, and nothing
calls ``caputo`` or the solvers:

* ``dense_operator``: L_h at time t from the stencil formula, one dense row
  per unknown node acting on the whole nodal field.  a_k is sampled at the
  midpoints z +/- h e_k / 2, wrapped into [0, X] on a periodic axis; b_k
  enters by centred differences and c on the diagonal.  A Robin face
  du/dn + mu u = 0 reflects the ghost onto the inner neighbour and adds
  -2 h mu w to the diagonal for the ghost's weight w; there a_k at the
  outer midpoint is the in-domain extrapolation 2 a(z) - a(z - h e_k / 2).
* ``l1_increments`` and ``kappa_rows``: every level's L1 weights as dense
  rows, from d_{m,j} = [(t_m - t_{j-1})^beta - (t_m - t_j)^beta] /
  (tau_j Gamma(2 - alpha)); ``mpmath_weights`` gives one row at 40 digits.
* ``level_residuals``: every level's residual kappa_mm U^m + L_h U^m +
  f(t_m, U^m) - F^m, recomputed in float64 and held to the Newton tolerance
  nonlin_tol max(1, ||F^m||_inf) plus 64 eps times the size of its terms,
  the limit ``perfbench/verify.py`` sets.  The residual the solver reports
  must meet the tolerance itself and be the recomputed one up to that rounding.

The paper's guarantees and the solver's promises, each with the tests that
fail when it breaks:

* kappa > 0 and the row-sum identity kappa_mm = sum_{j<m} kappa_mj:
  tests/test_caputo.py::TestMarch::test_weights_against_mpmath,
  ::TestWeights::test_rounded_increment_floored_at_zero.
* F^m is the kappa row times the history, on the narrow (differenced) and
  the wide march: tests/test_contracts.py::test_history_sum_is_the_dense_kappa_row.
* L_h is an M-matrix, and one that is not, or has a non-finite entry, is a
  typed error: tests/test_spatial.py::TestMaxPrinciple,
  tests/test_contracts.py::test_non_finite_coefficient_is_a_max_principle_error,
  tests/test_pde.py::TestBasics::test_every_assembled_operator_is_checked.
* Every level meets its Newton tolerance, on the tridiagonal, fast-inverse
  CG and SuperLU paths: tests/test_contracts.py::test_every_level_meets_its_tolerance
  (its strict xfail case is the open periodic a_k defect in ``assemble``).
* Range preservation under A2: tests/test_pde.py::TestBasics::test_range_preservation_allen_cahn,
  tests/test_scalar.py::TestSolveScalar::test_allen_cahn_range_preserved,
  ::test_fisher_range_preserved.
* The step restriction: tests/test_mesh.py::TestStepRestriction,
  tests/test_scalar.py::TestSolveScalar::test_strict_restriction_raises,
  tests/test_pde.py::TestBasics::test_periodic_requires_strict_restriction.
* Error rates min(r, 2 - alpha) at t = T and min(alpha r, 2 - alpha) over
  all levels: tests/test_harness.py::TestTheoryRates.
* Newton and CG counts: tests/test_pde.py::TestPredictedStart::test_newton_step_count_guard,
  ::test_newton_step_count_guard_with_zero_step_levels, ::test_about_one_newton_step_per_level.
* Bitwise promises: wide marches equal the kappa-panel march
  (tests/test_caputo.py::TestWideHistory), march's weights equal
  ``l1_weights`` (tests/test_caputo.py::TestPanel::test_kappa_rows_bitwise),
  constant Dirichlet data taken once per operator
  (tests/test_pde.py::test_constant_dirichlet_data_once_per_operator), and the
  1D solver equals diagonals taken afresh
  (tests/test_pde.py::TestLUPattern::test_bitwise_equal_to_fresh_lu).
"""

from __future__ import annotations

import json
import math

import numpy as np

from fraxolve.config import parse_config
from fraxolve.scalar import SolverConfig
from fraxolve.spatial import assemble

EPS = np.finfo(float).eps


def _at(coef, x: np.ndarray, t: float) -> np.ndarray:
    """A float or (points, t) callable coefficient at the points ``x``."""
    value = coef(x, t) if callable(coef) else float(coef)
    return np.broadcast_to(np.asarray(value, dtype=float), (x.shape[0],)).copy()


def _unknown_nodes(grid, bc) -> np.ndarray:
    """The flat indices of the nodes on no Dirichlet face and not at index N of a periodic axis."""
    idx = grid.multi_indices()
    keep = np.ones(grid.n_nodes, dtype=bool)
    for k in range(grid.d):
        for side, i in ((-1, 0), (1, grid.N)):
            kind = bc.face(k, side).kind
            if kind == "dirichlet" or (kind == "periodic" and side > 0):
                keep &= idx[:, k] != i
    return np.flatnonzero(keep)


def dense_operator(grid, coeffs, bc, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(L, unk): L_h at time t as the rows ``L[unk]`` of an (n_nodes, n_nodes) matrix
    on the whole nodal field, from the stencil formula (module docstring)."""
    N, h, d = grid.N, grid.h, grid.d
    unk = _unknown_nodes(grid, bc)
    z, iz = grid.points()[unk], grid.multi_indices()[unk]
    L = np.zeros((grid.n_nodes, grid.n_nodes))
    diag = _at(coeffs.c if coeffs.c is not None else 0.0, z, t)
    for k in range(d):
        half = np.eye(d)[k] * (h / 2)
        periodic = bc.axis_periodic(k)
        b = _at(coeffs.b[k], z, t) if coeffs.b is not None else np.zeros(unk.size)
        for side in (-1, 1):
            ghost = np.zeros(unk.size, dtype=bool) if periodic else iz[:, k] == (N if side > 0 else 0)
            mid = z + side * half
            if periodic:
                mid[:, k] %= grid.X
            a = _at(coeffs.a[k], mid, t)
            if ghost.any():
                zg = z[ghost]
                a[ghost] = 2 * _at(coeffs.a[k], zg, t) - _at(coeffs.a[k], zg - side * half, t)
            w = -a / h**2 + side * b / (2 * h)
            diag += a / h**2
            nb = iz.copy()
            if periodic:
                nb[:, k] = (iz[:, k] + side) % N
            else:
                nb[:, k] = np.where(ghost, iz[:, k] - side, iz[:, k] + side)
                diag[ghost] -= 2 * h * _at(bc.face(k, side).value, z[ghost], t) * w[ghost]
            np.add.at(L, (unk, np.ravel_multi_index(nb.T, grid.shape)), w)
    L[unk, unk] += diag
    return L, unk


def assembled_operator(grid, coeffs, bc, t: float) -> tuple[np.ndarray, np.ndarray]:
    """``assemble``'s L_h in ``dense_operator``'s layout, for the runs whose a_k is
    sampled where the two differ (the open periodic a_k defect in ``assemble``)."""
    op = assemble(grid, coeffs, t, bc)
    L = np.zeros((grid.n_nodes, grid.n_nodes))
    L[np.ix_(op.unknown_flat, op.unknown_flat)] = op.matrix.toarray()
    L[np.ix_(op.unknown_flat, op.dirichlet_flat)] = op.dirichlet_coupling.toarray()
    return L, op.unknown_flat


def l1_increments(mesh, alpha: float) -> np.ndarray:
    """D with D[m, j - 1] = d_{m,j} for 1 <= j <= m and 0 for j > m, shape (M + 1, M).

    (t_m - t_{j-1})^beta - (t_m - t_j)^beta is taken as s^beta expm1(beta
    log1p(tau_j / s)), s = t_m - t_j, which does not cancel when tau_j << s.
    """
    t, beta = mesh.nodes, 1.0 - alpha
    tau = np.diff(t)
    s = t[:, None] - t[None, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        lift = np.where(s > 0, s**beta * np.expm1(beta * np.log1p(tau / s)), tau**beta)
    return np.where(s >= 0, lift, 0.0) / (tau * math.gamma(2.0 - alpha))


def kappa_rows(mesh, alpha: float) -> np.ndarray:
    """K with K[m, j] = kappa_{m,j} for j <= m and 0 above the diagonal, shape (M + 1, M + 1):
    kappa_{m,0} = d_{m,1}, kappa_{m,j} = d_{m,j+1} - d_{m,j} for 0 < j < m, kappa_mm = d_{m,m}."""
    D, M = l1_increments(mesh, alpha), mesh.M
    K = np.zeros((M + 1, M + 1))
    K[:, 0] = D[:, 0]
    K[:, 1:M] = np.diff(D, axis=1)
    K = np.tril(K, -1)
    K[np.arange(1, M + 1), np.arange(1, M + 1)] = D[np.arange(1, M + 1), np.arange(M)]
    return K


def dot_bound(kappa, U):
    """2 gamma_m (|kappa| @ |U|), gamma_m = m eps / (1 - m eps): two evaluations of
    the m-term sum kappa @ U in any order differ by at most this."""
    m = len(kappa)
    gam = m * EPS / (1 - m * EPS)
    return 2 * gam * np.tensordot(np.abs(kappa), np.abs(U), axes=1)


def mpmath_weights(mesh, alpha: float, m: int, dps: int = 40):
    """(kappa_{m,0..m}, d_{m,1..m}) as mpmath numbers at ``dps`` digits, on the float nodes."""
    import mpmath

    with mpmath.workdps(dps):
        t = [mpmath.mpf(float(x)) for x in mesh.nodes[: m + 1]]
        beta = 1 - mpmath.mpf(alpha)
        g = mpmath.gamma(2 - mpmath.mpf(alpha))
        p = [(t[m] - tj) ** beta for tj in t]
        d = [(p[j - 1] - p[j]) / ((t[j] - t[j - 1]) * g) for j in range(1, m + 1)]
        return [d[0]] + [d[j] - d[j - 1] for j in range(1, m)] + [d[m - 1]], d


def level_residuals(problem, mesh, grid, sol, cfg=None, operator=dense_operator) -> list[str]:
    """The levels whose recomputed residual exceeds its limit (module docstring), or
    whose residual in ``sol.residuals`` exceeds the Newton tolerance or is not the
    recomputed one up to rounding, one message each; empty when every level meets all three."""
    cfg = cfg or SolverConfig()
    fields = sol.fields
    K = kappa_rows(mesh, problem.alpha)
    F_all = np.tril(K, -1) @ fields
    pts = grid.points()
    bad = []
    for m in range(1, mesh.M + 1):
        t = float(mesh.nodes[m])
        if m == 1 or problem.coeffs.time_dependent:
            L, unk = operator(grid, problem.coeffs, problem.bc, t)
            row_sum = float(np.abs(L[unk]).sum(axis=1).max())
        u, F = fields[m, unk], F_all[m, unk]
        Lu = L[unk] @ fields[m]
        fu = np.asarray(problem.f.eval(pts[unk], t, u), dtype=float)
        res = float(np.max(np.abs(K[m, m] * u + Lu + fu - F)))
        F_max = float(np.max(np.abs(F)))
        scale = (K[m, m] + row_sum) * float(np.max(np.abs(fields[m]))) + F_max + float(np.max(np.abs(fu)))
        tol = cfg.nonlin_tol * max(1.0, F_max)
        if not res <= tol + 64 * EPS * scale:
            bad.append(f"level {m}: residual {res:.3e} > {tol + 64 * EPS * scale:.3e}")
        reported = sol.residuals[m - 1]
        if not (reported <= tol and abs(reported - res) <= 64 * EPS * scale):
            bad.append(f"level {m}: reported residual {reported:.3e}, recomputed {res:.3e}, tolerance {tol:.3e}")
    return bad


def config(d, f, u0, bc="dirichlet0", coefficients=None, N=12, X=math.pi, M=16, alpha=0.5) -> dict:
    """A run configuration for ``parse_config`` on a mesh graded with r = 2 over (0, 1];
    ``f`` is a reaction kind or its dict, ``bc`` a shorthand such as "periodic" or a dict of faces."""
    return {
        "mesh": {"M": M, "T": 1.0, "r": 2.0},
        "grid": {"d": d, "N": N, "X": X},
        "problem": {"alpha": alpha, "f": {"kind": f} if isinstance(f, str) else f, "u0": u0,
                    "coefficients": coefficients or {}, "bc": {"all": bc} if isinstance(bc, str) else bc},
    }


def fisher_1d(M: int, N: int = 256, a: str = "1 + 0.5*sin(x)"):
    """The march1d benchmark's input (1D periodic Fisher on (0, pi), alpha 0.4), at M levels."""
    return parse_config(json.dumps(config(1, "fisher", "0.5 + 0.3*cos(2*x)", "periodic", {"a": [a]},
                                          N=N, M=M, alpha=0.4)))
