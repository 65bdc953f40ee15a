"""The scalar problem D_t^alpha u + f(t, u) = 0 discretized level by level.

Each level solves kappa_{m,m} U + f(t_m, U) = F^m.  Under the step
restriction lam <= kappa_{m,m} the scalar map is nondecreasing, so a
bracketing bisection is a guaranteed fallback for Newton.
"""

from __future__ import annotations

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

    The PDE path picks its linear solver from the operator (fast-diagonalization
    preconditioned CG or sparse LU, see :mod:`fraxolve.pde`), so there are no
    linear-solver knobs.
    """

    nonlin_tol: float = 1e-10
    max_newton: int = 30
    damping: float = 0.5
    strict_restriction: bool = False

    def __post_init__(self):
        for name in ("nonlin_tol", "damping"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


_SCALAR_CFG = SolverConfig(nonlin_tol=1e-12, max_newton=50)


@dataclass
class ScalarTrajectory:
    mesh: TemporalMesh
    values: np.ndarray
    newton_iters: list[int] = field(default_factory=list)
    range_ok: bool | None = None

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
    """Root of g(U) = kmm U + f(t, U) - F, via safeguarded Newton."""

    def g(u):
        val = kmm * u + float(f.eval(None, t, u)) - F
        if not np.isfinite(val):
            raise NonconvergenceError(m, np.inf, f"level {m}: f produced non-finite value at U={u}")
        return val

    tol = cfg.nonlin_tol * max(1.0, abs(F))
    # bracket around an affine estimate of the root, grown geometrically
    center = (F - float(f.eval(None, t, u_prev))) / kmm
    width = max(abs(f.eval(None, t, u_prev)) / kmm, abs(u_prev - center), 1.0)
    lo, hi = center - width, center + width
    for _ in range(200):
        if g(lo) <= 0.0 <= g(hi):
            break
        width *= 2.0
        lo, hi = center - width, center + width
    else:
        raise NonconvergenceError(m, np.inf, f"level {m}: failed to bracket the per-step root")

    u = min(max(u_prev, lo), hi)
    for it in range(1, cfg.max_newton + 1):
        gu = g(u)
        if abs(gu) <= tol:
            return u, it
        if gu > 0:
            hi = u
        else:
            lo = u
        step_taken = False
        if f.deriv_s is not None:
            dg = kmm + float(f.deriv_s(None, t, u))
            if dg > 0:
                cand = u - gu / dg
                if lo < cand < hi:
                    u = cand
                    step_taken = True
        if not step_taken:
            u = 0.5 * (lo + hi)
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
    ok = bool(
        np.all(traj.values >= sigma1 - slack) and np.all(traj.values <= sigma2 + slack)
    )
    traj.range_ok = ok
    return ok


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
