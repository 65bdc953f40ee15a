"""The L1 discrete Caputo operator in kappa-form.

At time level m the operator acts on a history U^0..U^m as

    delta_t^alpha U^m = kappa_{m,m} U^m - sum_{j<m} kappa_{m,j} U^j,

with all kappa positive and the row-sum identity
kappa_{m,m} = sum_{j<m} kappa_{m,j} (constants are annihilated).

``march`` is the one level loop: every solver and check takes kappa_{m,m} and
the history sum F^m = sum_{j<m} kappa_{m,j} U^j from it.
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


def _kernel_increments(t: np.ndarray, alpha: float, m: int) -> np.ndarray:
    """d_j = [(t_m-t_{j-1})^{1-alpha} - (t_m-t_j)^{1-alpha}] / (tau_j Gamma(2-alpha)),
    for j = 1..m."""
    beta = 1.0 - alpha
    tm = t[m]
    lo = tm - t[:m]      # t_m - t_{j-1}
    hi = tm - t[1 : m + 1]  # t_m - t_j
    tau = t[1 : m + 1] - t[:m]
    # lo^beta - hi^beta cancels badly whenever tau_j << t_m - t_j, which in
    # turn makes the second differences kappa_{m,j} = d_{j+1} - d_j come out
    # with the wrong sign on strongly graded meshes.  The expm1/log1p form
    # hi^beta * expm1(beta * log1p(tau/hi)) is accurate to full relative
    # precision, so use it for every j with hi > 0 (j = m has hi = 0).
    interior = hi > 0
    safe_hi = np.where(interior, hi, 1.0)
    diff = np.where(
        interior,
        safe_hi**beta * np.expm1(beta * np.log1p(tau / safe_hi)),
        lo**beta,
    )
    return diff / (tau * gamma(2.0 - alpha))


def l1_weights(mesh: TemporalMesh, alpha: float, m: int) -> CaputoWeights:
    """Weights of the L1 operator at level m, 1 <= m <= M."""
    if not 1 <= m <= mesh.M:
        raise ValueError(f"level m must be in [1, {mesh.M}], got {m}")
    d = _kernel_increments(mesh.nodes, alpha, m)
    kappa = np.empty(m + 1)
    kappa[0] = d[0]
    # the increments are provably nondecreasing in j; floor at zero so 1-ulp
    # rounding cannot produce a negative off-diagonal weight
    kappa[1:m] = np.maximum(d[1:] - d[:-1], 0.0)
    kappa[m] = d[m - 1]
    return CaputoWeights(m=m, kappa=kappa, alpha=alpha)


def march(mesh: TemporalMesh, alpha: float, U: np.ndarray):
    """Yield (m, kappa_{m,m}, F^m = kappa_{m,0..m-1} @ U[:m]) for m = 1..M; the
    caller owns the (M+1, ...) history U and writes U[m] before the next level."""
    for m in range(1, mesh.M + 1):
        w = l1_weights(mesh, alpha, m)
        yield m, w.diag, w.kappa[:m] @ U[:m]


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
