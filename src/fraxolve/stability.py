"""Numerical verification of the stability machinery for delta_t^alpha - lambda.

The discrete resolvent is realized by exact forward substitution:
V^0 = 0, (kappa_{m,m} - lambda) V^m = g^m + sum_{j<m} kappa_{m,j} V^j,
which needs the strict step restriction so every pivot is positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .caputo import l1_weights, march  # l1_weights is unused: perfbench/tracing.py wraps it
from .mesh import TemporalMesh, build_graded
from .special import mittag_leffler

__all__ = [
    "solve_resolvent",
    "envelope_values",
    "envelope_ratio",
    "long_time_check",
    "EnvelopeReport",
    "LongTimeReport",
]

_GROWTH_TOL = 0.05  # long_time_check: allowed growth of the sup from [0, T/2] to [0, T]


def solve_resolvent(mesh: TemporalMesh, alpha: float, lam: float, g) -> np.ndarray:
    """V with V^0 = 0 and (delta_t^alpha - lambda) V^m = g^m, m = 1..M."""
    g = np.asarray(g, dtype=float)
    if g.shape[0] != mesh.M:
        raise ValueError(f"g must have M = {mesh.M} entries")
    V = np.zeros(mesh.M + 1)
    for m, kmm, F in march(mesh, alpha, V):
        pivot = kmm - lam
        if pivot <= 0.0:
            raise ValueError(
                f"strict step restriction violated at level {m}: "
                f"kappa_mm = {kmm:.4g} <= lambda = {lam:.4g}"
            )
        V[m] = (g[m - 1] + float(F)) / pivot
    return V


def envelope_values(mesh: TemporalMesh, alpha: float, gamma_exp: float) -> np.ndarray:
    """Stability envelope values at t_1..t_M:
    tau t_j^{alpha-1} * {1, 1+ln(t_j/tau), (tau/t_j)^gamma} for gamma >,=,< 0."""
    t = mesh.nodes[1:]
    tau = mesh.tau
    base = tau * t ** (alpha - 1.0)
    if gamma_exp > 0:
        return base
    if gamma_exp == 0:
        return base * (1.0 + np.log(t / tau))
    return base * (tau / t) ** gamma_exp


@dataclass(frozen=True)
class EnvelopeReport:
    alpha: float
    lam: float
    M: int
    max_ratio: float
    gated: bool
    profile: np.ndarray = field(repr=False, default=None)


def envelope_ratio(
    mesh: TemporalMesh,
    alpha: float,
    lam: float,
    gamma_exp: float,
    enforce_gate: bool = True,
) -> EnvelopeReport:
    """max_j |V^j| / V_gamma^j with V the resolvent of data g^m = (tau/t_m)^{gamma+1}.

    The theorem behind the envelope needs gamma != 0 when lam > 0, and
    either 1 <= r <= (2-alpha)/alpha or gamma <= alpha-1 (any mesh).
    Outside those gates the report is computed but flagged ungated.
    """
    gated = True
    if lam > 0 and gamma_exp == 0:
        gated = False
    if gamma_exp > alpha - 1.0:
        if mesh.r is None or not (1.0 <= mesh.r <= (2.0 - alpha) / alpha):
            gated = False
    if not gated and enforce_gate:
        raise ValueError(
            "parameters fall outside the stability theorem's gate; "
            "pass enforce_gate=False for a report-only run"
        )
    t = mesh.nodes[1:]
    g = (mesh.tau / t) ** (gamma_exp + 1.0)
    V = solve_resolvent(mesh, alpha, lam, g)
    env = envelope_values(mesh, alpha, gamma_exp)
    profile = np.abs(V[1:]) / env
    return EnvelopeReport(
        alpha=alpha,
        lam=lam,
        M=mesh.M,
        max_ratio=float(profile.max()),
        gated=gated,
        profile=profile,
    )


@dataclass(frozen=True)
class LongTimeReport:
    alpha: float
    lam: float
    tau: float
    T: float
    sup_ratio: float
    sup_ratio_half: float
    stable: bool
    ratios: np.ndarray = field(repr=False, default=None)


def long_time_check(
    alpha: float,
    lam: float,
    lam_prime: float,
    tau: float,
    T: float = 50.0,
) -> LongTimeReport:
    """Long-horizon bound |V^j| <= C tau^alpha E_alpha(lambda' t_j^alpha).

    Uses a uniform mesh of round(T / tau) steps tau, so the horizon, reported
    as ``T``, is round(T / tau) * tau (T = 1, tau = 0.4 reports T = 0.8), with
    data g^j = (tau/t_j)^alpha; "stable" means the normalized sup over [0, T]
    exceeds the sup over [0, T/2] by at most 5%.  Raises ValueError unless
    the mesh has at least 2 levels, so that [0, T/2] holds one.
    The denominators E_alpha(lambda' t_j^alpha) come from one array call to
    ``mittag_leffler``, which sums the series entries as one batch.
    """
    if lam > 0 and not lam_prime > lam:
        raise ValueError("need lambda' > lambda")
    M = int(round(T / tau))
    if M < 2:
        raise ValueError(f"tau = {tau:g} and T = {T:g} give round(T / tau) = {M} levels; need at least 2")
    mesh = build_graded(M, M * tau, 1.0)
    t = mesh.nodes[1:]
    g = (tau / t) ** alpha
    V = solve_resolvent(mesh, alpha, lam, g)
    denom = tau**alpha * mittag_leffler(alpha, lam_prime * t**alpha)
    ratios = np.abs(V[1:]) / denom
    sup_full = float(ratios.max())
    sup_half = float(ratios[: M // 2].max())
    stable = sup_full <= sup_half * (1.0 + _GROWTH_TOL)
    return LongTimeReport(alpha, lam, tau, mesh.T, sup_full, sup_half, stable, ratios)
