"""The scalar problem D_t^alpha u + f(t, u) = 0 discretized level by level.

Each level solves g(U) = kappa_{m,m} U + f(t_m, U) - F^m = 0.  Under the
step restriction lam <= kappa_{m,m} (lam tau_m^alpha <= 1/Gamma(2-alpha)
for the L1 scheme) g is nondecreasing by A1, so the sign of g at any U
says on which side of U the root lies.  The level's Newton iterates thus
bracket the root themselves; a step that would leave that bracket bisects
it instead or, while one side is still open, doubles toward the root.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .caputo import history_load, l1_weights, march  # perfbench/tracing.py wraps the unused two
from .mesh import FracParams, TemporalMesh, check_step_restriction
from .nonlinearity import Nonlinearity

__all__ = [
    "SolverConfig",
    "ScalarTrajectory",
    "solve_scalar",
    "range_check",
    "error_envelope",
    "StepRestrictionWarning",
    "NonconvergenceError",
]


class StepRestrictionWarning(UserWarning):
    pass


class NonconvergenceError(RuntimeError):
    def __init__(self, level: int, residual: float, msg: str = ""):
        self.level = level
        self.residual = residual
        super().__init__(
            msg or f"nonlinear solve failed at level {level} (residual {residual:.3e})"
        )


@dataclass(frozen=True)
class SolverConfig:
    """Per-level nonlinear solver knobs (shared by scalar and PDE paths).

    The PDE path has no linear-solver knobs: each assembled operator gets one
    solver object (see :mod:`fraxolve.pde`), a tridiagonal LU in 1D and, in 2D,
    CG preconditioned by the fast inverse when the matrix is SPD and there is
    one, else sparse LU.  That CG's stopping rule is an inexact-Newton
    forcing term derived from ``nonlin_tol`` and the current Newton residual,
    not a knob of its own.
    """

    nonlin_tol: float = 1e-10
    max_newton: int = 30
    strict_restriction: bool = False

    def __post_init__(self):
        if not self.nonlin_tol > 0:
            raise ValueError("nonlin_tol must be positive")


_SCALAR_CFG = SolverConfig(nonlin_tol=1e-12, max_newton=50)


@dataclass
class ScalarTrajectory:
    mesh: TemporalMesh
    values: np.ndarray
    newton_iters: list[int] = field(default_factory=list)

    def __post_init__(self):
        if self.values.shape[0] != self.mesh.M + 1:
            raise ValueError("trajectory must hold M + 1 values")


def _gate_step_restriction(mesh: TemporalMesh, alpha: float, lam: float, strict: bool) -> None:
    """Raise ValueError (strict) or warn StepRestrictionWarning on a violated step restriction."""
    restr = check_step_restriction(mesh, FracParams(alpha, lam), strict=strict)
    if restr.passed:
        return
    msg = (
        f"step restriction violated: max_j lambda tau_j^alpha = {restr.lhs:.4g} "
        f"{'>=' if strict else '>'} 1/Gamma(2-alpha) = {restr.rhs:.4g} "
        f"(worst j = {restr.worst_j})"
    )
    if strict:
        raise ValueError(msg)
    warnings.warn(msg, StepRestrictionWarning)


def _solve_step(f: Nonlinearity, t: float, kmm: float, F: float, u_prev: float,
                cfg: SolverConfig, m: int):
    """Root of g(U) = kmm U + f(t, U) - F by Newton from ``u_prev``, one g per step.

    Without ``f.deriv_s`` the slope is the secant one through the last two
    iterates, none at the first.  g is nondecreasing (module docstring), so
    each iterate bounds the root: g > 0 makes it the upper bound ``hi``, else
    the lower bound ``lo``.  A step that would not land strictly inside
    (lo, hi), or has no positive slope, is replaced by bisection once both
    bounds are finite, before that by a step toward the root of length 1,
    2, 4, ...

    On a convex stretch of g a Newton or secant step from one side falls
    short of the root; from a far start it falls short by a fixed fraction
    of the distance at every step (Allen-Cahn from 1e10, level 1: Newton
    leaves 2/3 of it, 40 steps, and the secant 3/4, 58 steps; Newton from
    1e14 ran out of 50).  So from the second step on (the second secant
    step), while a side of the bracket is open, a step at least a quarter as
    long as the step before it goes twice as far (from 1e10: Newton 26
    steps, the secant 37; from 1e20 Newton takes 46); an overshoot then
    closes the bracket.  Steps that shrink faster are near the root and go
    as they are.
    """

    def g(u):
        val = kmm * u + float(f.eval(None, t, u)) - F
        if not math.isfinite(val):
            raise NonconvergenceError(m, np.inf, f"level {m}: f produced non-finite value at U={u}")
        return val

    tol = cfg.nonlin_tol * max(1.0, abs(F))
    u, lo, hi, reach = u_prev, -np.inf, np.inf, 1.0
    u_last = g_last = np.nan  # the previous iterate: no secant at the first
    stretch_from = 2 if f.deriv_s is not None else 3  # the first step with a step before it
    for it in range(1, cfg.max_newton + 1):
        gu = g(u)
        if abs(gu) <= tol:
            return u, it
        if gu > 0:
            hi = u
        else:
            lo = u
        if f.deriv_s is not None:
            dg = kmm + float(f.deriv_s(None, t, u))
        else:
            dg = (gu - g_last) / (u - u_last) if u != u_last else 0.0
        stretch = 1.0
        open_side = lo == -np.inf or hi == np.inf
        if it >= stretch_from and open_side and 4.0 * abs(gu) >= dg * abs(u - u_last):
            stretch = 2.0
        u_last, g_last = u, gu
        cand = u - stretch * gu / dg if dg > 0 else np.nan
        if lo < cand < hi:
            u = cand
        elif lo > -np.inf and hi < np.inf:
            u = 0.5 * (lo + hi)
        else:
            u -= np.copysign(reach, gu)
            reach *= 2.0
    gu = g(u)
    if abs(gu) <= tol:
        return u, cfg.max_newton
    raise NonconvergenceError(m, abs(gu))


def solve_scalar(
    f: Nonlinearity,
    u0: float,
    mesh: TemporalMesh,
    alpha: float,
    cfg: SolverConfig | None = None,
) -> ScalarTrajectory:
    cfg = cfg or _SCALAR_CFG
    _gate_step_restriction(mesh, alpha, f.lam, cfg.strict_restriction)
    values = np.empty(mesh.M + 1)
    values[0] = u0
    iters = []
    for m, kmm, F in march(mesh, alpha, values):
        values[m], it = _solve_step(f, float(mesh.nodes[m]), kmm, float(F), values[m - 1], cfg, m)
        iters.append(it)
    return ScalarTrajectory(mesh=mesh, values=values, newton_iters=iters)


def range_check(
    traj: ScalarTrajectory, sigma1: float, sigma2: float, slack: float | None = None
) -> bool:
    """True iff sigma1 - slack <= U^m <= sigma2 + slack for all m."""
    if slack is None:
        slack = _SCALAR_CFG.nonlin_tol
    return bool(
        np.all(traj.values >= sigma1 - slack) and np.all(traj.values <= sigma2 + slack)
    )


def error_envelope(
    mesh: TemporalMesh, alpha: float, r: float, eps: float = 1e-2, log_variant: bool = False
) -> np.ndarray:
    """Pointwise-in-time error envelope E^m, m = 1..M, three branches in r vs 2-alpha.

    ``log_variant`` gives the sharper log-form envelope available for
    r = 2-alpha with lam = 0.
    """
    if r < 1.0:
        raise ValueError("r must be >= 1")
    M = mesh.M
    t = mesh.nodes[1:]
    crit = 2.0 - alpha
    if abs(r - crit) < 1e-12:
        if log_variant:
            return M ** (alpha - 2.0) * t ** (alpha - 1.0) * (1.0 + np.log(t / mesh.tau))
        if not 0.0 < eps < 1.0:
            raise ValueError("eps must be in (0, 1)")
        return M ** (-r * (1.0 - eps)) * t ** (alpha - (1.0 - eps))
    if r < crit:
        return float(M) ** (-r) * t ** (alpha - 1.0)
    return float(M) ** (alpha - 2.0) * t ** (alpha - crit / r)
