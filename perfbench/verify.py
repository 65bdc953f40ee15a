"""Correctness checks on the solver outputs the benchmark times.

Every check returns a list of problems; an empty list means the output
passed.  Residuals are recomputed level by level from the public
``caputo.l1_weights`` and ``spatial.assemble``, independently of the
solver's own bookkeeping, and held to the solver's tolerance plus a
rounding allowance for summing the same terms in another order.
"""

from __future__ import annotations

import numpy as np

from fraxolve import caputo, spatial
from fraxolve.scalar import SolverConfig

# recomputing the same sums in another order may differ by a few ulps of
# the largest term
ROUNDING = 64 * np.finfo(float).eps
MAX_REPORTED = 3


def _report(what: str, bad: list[str]) -> list[str]:
    if len(bad) > MAX_REPORTED:
        return [f"{what}: {len(bad)} failures, first: " + "; ".join(bad[:MAX_REPORTED])]
    return [f"{what}: {b}" for b in bad]


def range_problems(values: np.ndarray, bounds, slack: float) -> list[str]:
    """The A2 invariant range [sigma1, sigma2] must hold at every node and level."""
    if bounds is None:
        return []
    lo, hi = bounds
    vmin, vmax = float(np.min(values)), float(np.max(values))
    if vmin >= lo - slack and vmax <= hi + slack:
        return []
    return [f"range: values span [{vmin:.6g}, {vmax:.6g}] outside [{lo}, {hi}]"]


def pde_problems(sol, problem, cfg: SolverConfig | None) -> list[str]:
    """Residual kappa_mm U^m + L_h U^m + f(U^m) - F^m at every level, and the range."""
    cfg = cfg or SolverConfig()
    mesh, grid = sol.mesh, sol.grid
    fields = np.asarray(sol.fields)
    if fields.shape != (mesh.M + 1, grid.n_nodes):
        return [f"shape: fields {fields.shape}, expected {(mesh.M + 1, grid.n_nodes)}"]
    if not np.all(np.isfinite(fields)):
        return ["fields: non-finite values"]
    pts = grid.points()
    op = None
    bad = []
    for m in range(1, mesh.M + 1):
        t = float(mesh.nodes[m])
        if op is None or problem.coeffs.time_dependent:
            op = spatial.assemble(grid, problem.coeffs, t, problem.bc)
            row_sum = float(np.abs(op.matrix).sum(axis=1).max())
        if m == 1:  # the unknown nodes depend on the grid and faces only
            unk = op.unknown_flat
            hist = fields[:, unk]
        w = caputo.l1_weights(mesh, problem.alpha, m)
        F = w.kappa[:m] @ hist[:m]
        u = hist[m]
        Lu = op.apply(fields[m])[unk]
        fu = np.asarray(problem.f.eval(pts[unk], t, u), dtype=float)
        res = w.diag * u + Lu + fu - F
        u_max = float(np.max(np.abs(u)))
        F_max = float(np.max(np.abs(F)))
        scale = (w.diag + row_sum) * u_max + F_max + float(np.max(np.abs(fu)))
        limit = cfg.nonlin_tol * max(1.0, F_max) + ROUNDING * scale
        r = float(np.max(np.abs(res)))
        if not r <= limit:
            bad.append(f"level {m} residual {r:.3e} > {limit:.3e}")
    return _report("residual", bad) + range_problems(fields, problem.f.range, cfg.nonlin_tol)


def scalar_problems(traj, f, alpha: float, cfg: SolverConfig) -> list[str]:
    """Residual kappa_mm U^m + f(t_m, U^m) - F^m at every level, and the range."""
    v = np.asarray(traj.values, dtype=float)
    mesh = traj.mesh
    if v.shape != (mesh.M + 1,) or not np.all(np.isfinite(v)):
        return ["values: wrong shape or non-finite"]
    bad = []
    for m in range(1, mesh.M + 1):
        w = caputo.l1_weights(mesh, alpha, m)
        F = float(np.dot(w.kappa[:m], v[:m]))
        fu = float(f.eval(None, float(mesh.nodes[m]), v[m]))
        r = abs(w.diag * v[m] + fu - F)
        limit = cfg.nonlin_tol * max(1.0, abs(F)) + ROUNDING * (
            w.diag * abs(v[m]) + abs(F) + abs(fu)
        )
        if not r <= limit:
            bad.append(f"level {m} residual {r:.3e} > {limit:.3e}")
    return _report("residual", bad) + range_problems(v, f.range, cfg.nonlin_tol)


def resolvent_problems(V, mesh, alpha: float, lam: float, g) -> list[str]:
    """(kappa_mm - lambda) V^m - sum_{j<m} kappa_mj V^j - g^m = 0 up to rounding."""
    V = np.asarray(V, dtype=float)
    g = np.asarray(g, dtype=float)
    if V.shape != (mesh.M + 1,) or not np.all(np.isfinite(V)) or V[0] != 0.0:
        return ["V: wrong shape, non-finite, or V^0 != 0"]
    bad = []
    for m in range(1, mesh.M + 1):
        w = caputo.l1_weights(mesh, alpha, m)
        hist = float(np.dot(w.kappa[:m], V[:m]))
        r = abs((w.diag - lam) * V[m] - hist - g[m - 1])
        limit = ROUNDING * ((w.diag + lam) * abs(V[m]) + abs(hist) + abs(g[m - 1]))
        if not r <= limit:
            bad.append(f"level {m} residual {r:.3e} > {limit:.3e}")
    return _report("resolvent residual", bad)


def compare(summary: dict, reference: dict, tolerances: dict) -> list[str]:
    """Agreement with values recorded at the benchmark's first commit (seed 0 only).

    ``tolerances`` maps each key to ``(atol, rtol)``.
    """
    problems = []
    for key, (atol, rtol) in tolerances.items():
        got = np.asarray(summary[key], dtype=float)
        want = np.asarray(reference[key], dtype=float)
        if got.shape != want.shape:
            problems.append(f"reference {key}: shape {got.shape} != {want.shape}")
            continue
        err = np.abs(got - want)
        lim = atol + rtol * np.abs(want)
        if not np.all(err <= lim):
            k = int(np.argmax(err - lim))
            problems.append(
                f"reference {key}[{k}]: {got.flat[k]!r} vs recorded {want.flat[k]!r}"
            )
    return problems
