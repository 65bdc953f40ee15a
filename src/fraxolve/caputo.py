"""The L1 discrete Caputo operator in kappa-form.

At time level m the operator acts on a history U^0..U^m as

    delta_t^alpha U^m = kappa_{m,m} U^m - sum_{j<m} kappa_{m,j} U^j,

with all kappa positive and the row-sum identity
kappa_{m,m} = sum_{j<m} kappa_{m,j} (constants are annihilated).

``march`` is the one level loop: every solver and check takes kappa_{m,m} and
the history sum F^m = sum_{j<m} kappa_{m,j} U^j from it.  It sets up the
mesh's step arrays once and fills each level in place; ``l1_weights`` runs
the same level kernel, so there is one formula for the weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import TemporalMesh
from .special import gamma

__all__ = ["CaputoWeights", "l1_weights", "history_load", "apply_delta", "march"]


@dataclass(frozen=True)
class CaputoWeights:
    """Coefficients kappa_{m,0..m} of the L1 operator at level m."""

    m: int
    kappa: np.ndarray
    alpha: float

    def __post_init__(self):
        k = np.asarray(self.kappa, dtype=float)
        if k.size != self.m + 1:
            raise ValueError("kappa must have m + 1 entries")
        k = k.copy()
        k.flags.writeable = False
        object.__setattr__(self, "kappa", k)

    @property
    def diag(self) -> float:
        """kappa_{m,m} = tau_m^{-alpha} / Gamma(2-alpha)."""
        return float(self.kappa[self.m])


def _l1_level(
    nodes: np.ndarray, tau: np.ndarray, tau_g: np.ndarray, beta: float, m: int,
    d: np.ndarray, k: np.ndarray,
) -> float:
    """Write level m of the L1 operator in place and return kappa_{m,m}.

    ``tau`` holds the steps tau_j and ``tau_g`` = tau_j Gamma(2-alpha), beta = 1 - alpha;
    both and the buffers ``d``, ``k`` have at least m entries.  On return d[:m] holds

        d_j = [(t_m-t_{j-1})^beta - (t_m-t_j)^beta] / (tau_j Gamma(2-alpha)),  j = 1..m,

    and k[:m] holds kappa_{m,0..m-1}.
    """
    n = m - 1
    hi, z = d[:n], k[:n]
    np.subtract(nodes[m], nodes[1:m], out=hi)  # t_m - t_j, j < m
    # lo^beta - hi^beta (lo = hi + tau_j) cancels badly whenever tau_j << hi, which in
    # turn makes the second differences kappa_{m,j} = d_{j+1} - d_j come out
    # with the wrong sign on strongly graded meshes.  The expm1/log1p form
    # hi^beta * expm1(beta * log1p(tau/hi)) is accurate to full relative
    # precision, so use it for every j with hi > 0.
    np.divide(tau[:n], hi, out=z)
    np.log1p(z, out=z)
    np.multiply(z, beta, out=z)
    np.expm1(z, out=z)
    np.power(hi, beta, out=hi)
    np.multiply(hi, z, out=hi)
    # j = m has hi = 0 and lo = tau_m; an array power, as for the other j
    np.power(tau[n:m], beta, out=d[n:m])
    np.divide(d[:m], tau_g[:m], out=d[:m])
    k[0] = d[0]
    # the increments are provably nondecreasing in j; floor at zero so 1-ulp
    # rounding cannot produce a negative off-diagonal weight
    np.subtract(d[1:m], d[:n], out=k[1:m])
    np.maximum(k[1:m], 0.0, out=k[1:m])
    return float(d[n])


def l1_weights(mesh: TemporalMesh, alpha: float, m: int) -> CaputoWeights:
    """Weights of the L1 operator at level m, 1 <= m <= M."""
    if not 1 <= m <= mesh.M:
        raise ValueError(f"level m must be in [1, {mesh.M}], got {m}")
    tau = np.diff(mesh.nodes[: m + 1])
    kappa = np.empty(m + 1)
    kappa[m] = _l1_level(mesh.nodes, tau, tau * gamma(2.0 - alpha), 1.0 - alpha, m, np.empty(m), kappa)
    return CaputoWeights(m=m, kappa=kappa, alpha=alpha)


def march(mesh: TemporalMesh, alpha: float, U: np.ndarray):
    """Yield (m, kappa_{m,m}, F^m = kappa_{m,0..m-1} @ U[:m]) for m = 1..M; the
    caller owns the (M+1, ...) history U and writes U[m] before the next level.

    The steps, tau_j Gamma(2-alpha) and two length-M work buffers are set up
    once per call; each level is filled in place by the kernel ``l1_weights``
    uses, so both give the same weights bit for bit.  F^m never shares the buffers.
    """
    tau = mesh.steps
    tau_g = tau * gamma(2.0 - alpha)
    beta = 1.0 - alpha
    d, k = np.empty(mesh.M), np.empty(mesh.M)
    for m in range(1, mesh.M + 1):
        kmm = _l1_level(mesh.nodes, tau, tau_g, beta, m, d, k)
        yield m, kmm, k[:m] @ U[:m]


def history_load(weights: CaputoWeights, history) -> np.ndarray | float:
    """F^m = sum_{j<m} kappa_{m,j} U^j.

    ``history`` holds U^0..U^{m-1}; each U^j may be a scalar or a nodal array
    (history shaped (m,) or (m, n)).  np.dot uses blocked/pairwise accumulation,
    which keeps roundoff controlled on long histories.
    """
    hist = np.asarray(history, dtype=float)
    if hist.shape[0] != weights.m:
        raise ValueError(f"history must have {weights.m} levels, got {hist.shape[0]}")
    out = np.dot(weights.kappa[: weights.m], hist)
    return float(out) if np.ndim(out) == 0 else out


def apply_delta(mesh: TemporalMesh, alpha: float, values) -> np.ndarray | float:
    """delta_t^alpha U^m for the sequence U^0..U^m (length m + 1 >= 2)."""
    vals = np.asarray(values, dtype=float)
    if vals.shape[0] < 2:
        raise ValueError("need at least two values (U^0 and U^1)")
    m = vals.shape[0] - 1
    w = l1_weights(mesh, alpha, m)
    out = w.diag * vals[m] - history_load(w, vals[:m])
    return float(out) if np.ndim(out) == 0 else out
