"""Numerical verification of the stability machinery for delta_t^alpha - lambda.

The discrete resolvent is realized by exact forward substitution:
V^0 = 0, (kappa_{m,m} - lambda) V^m = g^m + sum_{j<m} kappa_{m,j} V^j,
which needs the strict step restriction so every pivot is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .caputo import l1_weights, march  # l1_weights is unused: perfbench/tracing.py wraps it
from .mesh import TemporalMesh, build_graded
from .special import gamma, mittag_leffler

__all__ = [
    "solve_resolvent",
    "envelope_values",
    "envelope_ratio",
    "build_barrier",
    "long_time_check",
    "EnvelopeReport",
    "BarrierB",
    "LongTimeReport",
]


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
    gamma_exp: float
    M: int
    max_ratio: float
    gated: bool
    profile: np.ndarray = field(repr=False, default=None)


def envelope_ratio(
    mesh: TemporalMesh,
    alpha: float,
    lam: float,
    gamma_exp: float,
    r: float | None = None,
    enforce_gate: bool = True,
) -> EnvelopeReport:
    """max_j |V^j| / V_gamma^j with V the resolvent of data g^m = (tau/t_m)^{gamma+1}.

    The theorem behind the envelope needs gamma != 0 when lam > 0, and
    either 1 <= r <= (2-alpha)/alpha or gamma <= alpha-1 (any mesh).
    Outside those gates the report is computed but flagged ungated.
    """
    r = mesh.r if r is None else r
    gated = True
    if lam > 0 and gamma_exp == 0:
        gated = False
    if gamma_exp > alpha - 1.0:
        if r is None or not (1.0 <= r <= (2.0 - alpha) / alpha):
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
        gamma_exp=gamma_exp,
        M=mesh.M,
        max_ratio=float(profile.max()),
        gated=gated,
        profile=profile,
    )


@dataclass(frozen=True)
class BarrierB:
    kinks: np.ndarray  # q_0..q_K (mesh points)
    cbar: float
    c0: float
    anchor_index: int
    values: np.ndarray
    delta_values: np.ndarray  # (delta_t^alpha - lambda) B^j, j = 1..M
    c_pos: float
    verified: bool


def _barrier_values(mesh: TemporalMesh, kinks: np.ndarray, cbar: float) -> np.ndarray:
    t = mesh.nodes
    B = np.zeros_like(t)
    for k, q in enumerate(kinks):
        B += cbar**k * np.maximum(0.0, t - q)
    return B


def build_barrier(
    mesh: TemporalMesh,
    alpha: float,
    lam: float,
    c0: float,
    anchor_index: int = 0,
    cbar: float | None = None,
    tol: float = 1e-10,
) -> BarrierB:
    """Piecewise-linear barrier B with kinks on mesh points.

    B^j = 0 up to the anchor node, 0 <= B^j bounded, and
    (delta_t^alpha - lambda) B^j >= 0 before t_anchor + c0 and >= c_pos > 0
    after.  The growth base cbar is found by doubling search (the theory
    only asserts "sufficiently large").
    """
    if lam > 0:
        c0_max = 0.5 * (lam * gamma(2.0 - alpha)) ** (-1.0 / alpha)
        if not c0 < c0_max:
            raise ValueError(f"need c0 < {c0_max:.6g} for lambda = {lam}")
    tau_bar = float(mesh.steps.max())
    if tau_bar > 0.5 * c0:
        raise ValueError(f"need max step {tau_bar:.4g} <= c0/2 = {0.5 * c0:.4g}")
    if not 0 <= anchor_index <= mesh.M:
        raise ValueError("anchor index out of range")

    t_anchor = float(mesh.nodes[anchor_index])
    span = mesh.T - t_anchor
    if c0 >= span:
        K = 0
    else:
        K = max(0, math.ceil(span / c0) - 2)
    kinks = [t_anchor]
    for k in range(1, K + 1):
        window = (mesh.nodes >= t_anchor + c0 * k - tau_bar) & (
            mesh.nodes <= t_anchor + c0 * k
        )
        if not np.any(window):
            raise ValueError(f"no mesh point in the kink window for k = {k}")
        kinks.append(float(mesh.nodes[np.nonzero(window)[0][-1]]))
    kinks = np.asarray(kinks)

    def verify(c: float):
        B = _barrier_values(mesh, kinks, c)
        dB = np.array([float(kmm * B[m] - F) - lam * B[m] for m, kmm, F in march(mesh, alpha, B)])
        t = mesh.nodes[1:]
        scale = max(1.0, float(np.abs(B).max()))
        early = t < t_anchor + c0
        ok_early = bool(np.all(dB[early] >= -tol * scale)) if early.any() else True
        late = ~early
        c_pos = float(dB[late].min()) if late.any() else math.inf
        ok_late = c_pos > 0 if late.any() else True
        return B, dB, c_pos, ok_early and ok_late

    if cbar is not None:
        B, dB, c_pos, ok = verify(cbar)
        return BarrierB(kinks, cbar, c0, anchor_index, B, dB, c_pos, ok)

    c = 2.0
    while c <= 2.0**20:
        B, dB, c_pos, ok = verify(c)
        if ok:
            return BarrierB(kinks, c, c0, anchor_index, B, dB, c_pos, True)
        c *= 2.0
    return BarrierB(kinks, c / 2.0, c0, anchor_index, B, dB, c_pos, False)


@dataclass(frozen=True)
class LongTimeReport:
    alpha: float
    lam: float
    lam_prime: float
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
    growth_tol: float = 0.05,
) -> LongTimeReport:
    """Long-horizon bound |V^j| <= C tau^alpha E_alpha(lambda' t_j^alpha).

    Uses a uniform mesh with data g^j = (tau/t_j)^alpha; "stable" means the
    normalized sup over [0, T] exceeds the sup over [0, T/2] by < growth_tol.
    """
    if lam > 0 and not lam_prime > lam:
        raise ValueError("need lambda' > lambda")
    M = int(round(T / tau))
    mesh = build_graded(M, M * tau, 1.0)
    t = mesh.nodes[1:]
    g = (tau / t) ** alpha
    V = solve_resolvent(mesh, alpha, lam, g)
    denom = tau**alpha * np.array([mittag_leffler(alpha, lam_prime * tj**alpha) for tj in t])
    ratios = np.abs(V[1:]) / denom
    sup_full = float(ratios.max())
    sup_half = float(ratios[: M // 2].max())
    stable = sup_full <= sup_half * (1.0 + growth_tol)
    return LongTimeReport(alpha, lam, lam_prime, tau, mesh.T, sup_full, sup_half, stable, ratios)
