"""The L1 discrete Caputo operator in kappa-form.

At time level m the operator acts on a history U^0..U^m as

    delta_t^alpha U^m = sum_{j=1..m} d_{m,j} (U^j - U^{j-1})
                      = kappa_{m,m} U^m - sum_{j<m} kappa_{m,j} U^j,

with increments d_{m,j} = [(t_m-t_{j-1})^beta - (t_m-t_j)^beta] / (tau_j Gamma(2-alpha)),
beta = 1 - alpha, nondecreasing in j, so all kappa positive and the row-sum
identity kappa_{m,m} = sum_{j<m} kappa_{m,j} holds (constants are annihilated).

``march`` is the one level loop: every solver and check takes kappa_{m,m} and
the history sum F^m = sum_{j<m} kappa_{m,j} U^j from it.  It runs the levels in
blocks of B levels, each of which reads the history settled before it once;
B is isqrt(M) on most 1D grids, which minimizes the history a march reads,
and is otherwise set by the memory a block's work arrays may take (see
``_block_rows``).  The weight kernel fills all of a block's levels at once in two
steps: ``_l1_increments`` computes the unscaled increments, ``_l1_kappa``
scales and differences them into kappa.  ``l1_weights`` runs both steps on a
one-row panel, so there is one formula for the weights.  ``march`` differences
whichever operand is smaller, the weights or the history (see there).  The
history settled before a block enters all of its levels through one matrix
product, cut into slabs along the longer of the history's two dimensions (see
``_settled_sums``); F^m equals the whole-row product kappa_{m,0..m-1} @
U^{0..m-1} up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .mesh import TemporalMesh
from .special import gamma

__all__ = ["CaputoWeights", "l1_weights", "history_load", "apply_delta", "march"]


@dataclass(frozen=True)
class CaputoWeights:
    """Coefficients kappa_{m,0..m} of the L1 operator at level m."""

    m: int
    kappa: np.ndarray

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


def _l1_increments(
    nodes: np.ndarray, tau: np.ndarray, beta: float, m0: int, B: int,
    d: np.ndarray, k: np.ndarray, lift: float,
) -> np.ndarray:
    """Write the unscaled L1 increments of levels m0..m0+B-1, one row per level,
    and return them as a (B, W) panel, W = m0 + B - 1, viewed from the flat buffer ``d``.

    ``tau`` holds the steps tau_j, beta = 1 - alpha, with at least W entries;
    ``d`` and ``k`` have at least B W entries (``k`` is scratch), and
    0 < ``lift`` <= min(tau[m0:W]).  On return row b (level m = m0 + b) holds,
    in its first m columns,

        d~_j = (t_m-t_{j-1})^beta - (t_m-t_j)^beta,  j = 1..m.

    Columns past a row's diagonal are scratch.  Every used entry goes through
    the same ufunc sequence whatever B is, so a level's increments do not
    depend on the block they were computed in.
    """
    W = m0 + B - 1
    hi, z = d[: B * W].reshape(B, W), k[: B * W].reshape(B, W)
    np.subtract(nodes[m0 : m0 + B, None], nodes[1 : W + 1], out=hi)  # t_m - t_j
    # in the trailing B x B square, from each row's diagonal on, hi <= 0; lift those
    # scratch entries to ``lift``, which no used entry there (hi[b, j] >= tau[j + 1])
    # lies below, so every entry stays finite and every used one unchanged
    square = hi[:, m0 - 1 :]
    np.maximum(square, lift, out=square)
    # lo^beta - hi^beta (lo = hi + tau_j) cancels badly whenever tau_j << hi, which in
    # turn makes the second differences kappa_{m,j} = d_{j+1} - d_j come out
    # with the wrong sign on strongly graded meshes.  The expm1/log1p form
    # hi^beta * expm1(beta * log1p(tau/hi)) is accurate to full relative
    # precision, so use it for every j with hi > 0.
    np.divide(tau[:W], hi, out=z)
    np.log1p(z, out=z)
    np.multiply(z, beta, out=z)
    np.expm1(z, out=z)
    np.power(hi, beta, out=hi)
    np.multiply(hi, z, out=hi)
    # the diagonal j = m has hi = 0 and lo = tau_m; an array power, as for the other j
    np.power(tau[m0 - 1 : W], beta, out=hi.reshape(-1)[m0 - 1 :: W + 1])
    return hi


def _l1_kappa(hi: np.ndarray, k: np.ndarray, tau_g: np.ndarray) -> np.ndarray:
    """Turn the (B, W) increment panel ``hi`` of ``_l1_increments`` into the weights
    and return the (B, W) kappa panel, viewed from the flat buffer ``k``.

    ``tau_g`` holds tau_j Gamma(2-alpha) with at least W entries.  On return
    row b (level m) of ``hi`` holds d_j = d~_j / (tau_j Gamma(2-alpha)) in its
    first m columns, so kappa_{m,m} = hi[b, m-1], and row b of the kappa panel
    holds kappa_{m,0..m-1}.
    """
    B, W = hi.shape
    np.divide(hi, tau_g[:W], out=hi)
    # kappa_{m,0} = d_1, kappa_{m,j} = d_{j+1} - d_j: differences along the flat panel,
    # whose first column (differences across rows) is then overwritten.  The
    # increments are provably nondecreasing in j; floor at zero so 1-ulp
    # rounding cannot produce a negative off-diagonal weight
    flat_d, flat_k = hi.reshape(-1), k[: B * W]
    np.subtract(flat_d[1:], flat_d[:-1], out=flat_k[1:])
    np.maximum(flat_k[1:], 0.0, out=flat_k[1:])
    z = flat_k.reshape(B, W)
    z[:, 0] = hi[:, 0]
    return z


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:  # the L1 weights are derived for this range only
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def l1_weights(mesh: TemporalMesh, alpha: float, m: int) -> CaputoWeights:
    """Weights of the L1 operator at level m, 1 <= m <= M, for 0 < alpha < 1."""
    _check_alpha(alpha)
    if not 1 <= m <= mesh.M:
        raise ValueError(f"level m must be in [1, {mesh.M}], got {m}")
    tau = np.diff(mesh.nodes[: m + 1])
    buf = np.empty(m)
    d = _l1_increments(mesh.nodes, tau, 1.0 - alpha, m, 1, np.empty(m), buf, tau[-1])
    k = _l1_kappa(d, buf, tau * gamma(2.0 - alpha))
    return CaputoWeights(m=m, kappa=np.append(k[0], d[0, m - 1]))


def _block_rows(M: int, n: int) -> int:
    """Levels per block for an M-level march over histories of n values a level.

    Each block reads the history settled before it once, and each of its
    levels adds its own newer terms, so a march reads about M^2 / (2B) settled
    rows plus M B / 2 newer ones, least at B = sqrt(M).  A block's work arrays
    are two (B, M) weight panels and the (B, n) settled-history sums.  B is the
    larger of two counts, and at least eight levels (at most M), so scalar
    histories still share the per-block set-up:

    * the most levels whose work arrays take an eighth of the (M + 1, n) history;
    * isqrt(M), cut to the most whose work arrays take half of it.

    The second wins where a level holds few values against the level count (1D
    grids; M = 2000, n = 257 gives 44 where the first gives 15) and is 0 for a
    scalar history.  On wide 2D grids the first is the larger, and a block of
    only isqrt(M) levels ran slower there (bare march, M = 128, n = 257^2, one
    BLAS thread, 2 x86 vCPUs: B = 11 took 90 ms, B = 16 81 ms).

    B also picks the operand ``march`` differences.  A march's panels hold about
    M^2 / 2 increments, each scaled, differenced and floored into kappa; the
    history holds (M + 1) n values.  With n < B the history is the smaller: it
    is differenced once into an (M + 1, n) buffer, below the size of one panel.
    Either count above 8 is at most (M + 1) n / (4 M) <= n / 2, so only a
    block at the floor, min(M, 8) levels, can be wider than the history.
    """
    half = (M + 1) * n // (2 * (2 * M + n))  # levels whose work arrays take half the history
    return min(M, max(8, half // 4, min(isqrt(M), half)))


# OpenBLAS (0.3.31, 2 x86 vCPUs, threads unpinned) runs a matrix product of at
# most 10^6 multiply-adds on the calling thread; a larger one wakes its thread
# pool, whose spinning threads then burn a second core through the solver's
# single-threaded work for no wall-time gain (1D periodic Fisher solve, M =
# 2000, N = 256: unsplit, CPU time twice the wall time, which is no shorter
# than with the products split).  Measured per product, with the pool idle
# first, at that solve's block of 44 levels: the level slab (44 x 88) @ (88 x
# 257), 9.95e5 multiply-adds, ran at cpu/wall 1.00 both as a strided view of
# march's panel and contiguous; (44 x 89) @ (89 x 257), 1.006e6, at 1.86-1.95,
# and as a strided view it took 3 ms a product, not 0.05, in two of three runs.
# At 15 levels the threshold sat at the same place: (15 x 259) @ (259 x 257)
# at 1.00, (15 x 260) @ (260 x 257) at 1.9.  The layout does not move it.
_SLAB_MADDS = 10**6


def _settled_sums(K: np.ndarray, H: np.ndarray, G: np.ndarray) -> None:
    """G = K @ H for a (B, k) panel K and a (k, n) settled history H (kappa and
    values, or increments and differences; see ``march``), in slabs of at most
    ``_SLAB_MADDS`` multiply-adds each.

    The slabs cut the longer of H's two dimensions.  With more settled levels
    than values a level (k > n) they are slabs of whole levels, summed into G
    through one (B, n) scratch: each reads its rows of H contiguously and its
    columns of K once.  Otherwise they are slabs of H's columns, each of which
    reads all of K; with k <= n that is the smaller operand.  A scalar history
    (n = 1) at k <= ``_SLAB_MADDS`` / B is one product either way.
    """
    if H.ndim == 1:
        H, G = H[:, None], G[:, None]
    B, k = K.shape
    n = H.shape[1]
    if k > n:
        rows = max(1, _SLAB_MADDS // (B * n))
        np.matmul(K[:, :rows], H[:rows], out=G)
        if rows < k:
            S = np.empty_like(G)
            for r in range(rows, k, rows):
                np.matmul(K[:, r : r + rows], H[r : r + rows], out=S)
                G += S
        return
    cols = max(1, _SLAB_MADDS // K.size)
    for c in range(0, n, cols):
        np.matmul(K, H[:, c : c + cols], out=G[:, c : c + cols])


def march(mesh: TemporalMesh, alpha: float, U: np.ndarray):
    """Yield (m, kappa_{m,m}, F^m = kappa_{m,0..m-1} @ U[:m]) for m = 1..M; the
    caller owns the (M+1,) or (M+1, n) history U and writes U[m] before the next level.

    Levels m0..m0+B-1 run as one block (B from ``_block_rows``: 44 levels for
    M = 2000 on a 257-node 1D grid, 8 for a scalar history).  Their
    increments only depend on the mesh, so the kernel ``l1_weights`` uses fills
    them as one (B, m0+B-1) panel; kappa_{m,m} is the same division of the same
    increment in both, so it is equal bit for bit.  The history settled before
    the block enters all its levels through one matrix product, which reads it
    once per block instead of once per level.  It runs in slabs only to keep
    BLAS on the calling thread: slabs of whole levels once there are more settled
    levels than values a level, else slabs of history columns (``_settled_sums``).
    Each level then adds its own at most B - 1 newer terms, so a longer block
    reads the settled history fewer times but adds more newer terms a level.

    One of the two operands is differenced, whichever is cheaper:

    * a history of at least B values a level (a PDE grid of B nodes or more)
      is multiplied by the weights, F^m = sum_j kappa_{m,j} U^j, and the panel
      is differenced into kappa as ``l1_weights`` does it, so the weights are
      the same bit for bit;
    * a narrower one (the scalar solvers, n = 1) is differenced instead: with
      w_j = (U^j - U^{j-1}) / (tau_j Gamma(2-alpha)), filled once at level j + 1,
      F^m = kappa_{m,m} U^{m-1} - sum_{j<m} d~_{m,j} w_j.  That costs M n
      differences over the whole march, not the B W of every panel, and skips
      the panel's scaling, difference and floor passes, about a fifth of the
      kernel (bare scalar march, M = 8000: 0.32 -> 0.27 s).  Against a 40-digit
      sum on random-sign histories (M = 120, r = 3, alpha = 0.4), the error is
      at most 1.11 eps S_m, S_m = sum_{j=1..m} d_{m,j} |U^{j-1}|, where the
      kappa rows' is at most 0.93 eps S_m.

    Either way F^m equals the whole-row product up to the rounding of another
    summation order, and never shares the work arrays.  Raises ValueError
    unless 0 < alpha < 1 and U has one or two dimensions.
    """
    _check_alpha(alpha)
    if U.ndim > 2:
        raise ValueError(f"history must be (M+1,) or (M+1, n), got shape {U.shape}")
    M = mesh.M
    n = U[0].size
    tau = mesh.steps
    tau_g = tau * gamma(2.0 - alpha)
    beta = 1.0 - alpha
    lift = tau.min()
    B = _block_rows(M, n)
    d, k, G = np.empty(B * M), np.empty(B * M), np.empty((B,) + U.shape[1:])
    if n < B:  # difference the history, not the panel
        w = np.empty(U.shape)  # w[j] for j = 1..m-1 at level m; w[0] is unused
        G[:] = 0.0  # the first block has no settled differences
        for m0 in range(1, M + 1, B):
            nb = min(B, M + 1 - m0)
            dp = _l1_increments(mesh.nodes, tau, beta, m0, nb, d, k, lift)
            for b in range(nb):
                m = m0 + b
                if m > 1:  # the caller has written U^{m-1}
                    w[m - 1] = (U[m - 1] - U[m - 2]) / tau_g[m - 2]
                    if b == 0:
                        _settled_sums(dp[:, : m0 - 1], w[1:m0], G[:nb])
                kmm = dp[b, m - 1] / tau_g[m - 1]
                F = dp[b, m0 - 1 : m - 1] @ w[m0:m]
                F += G[b]
                F = kmm * U[m - 1] - F
                yield m, float(kmm), F
        return
    for m0 in range(1, M + 1, B):
        nb = min(B, M + 1 - m0)
        dp = _l1_increments(mesh.nodes, tau, beta, m0, nb, d, k, lift)
        kp = _l1_kappa(dp, k, tau_g)
        _settled_sums(kp[:, :m0], U[:m0], G[:nb])
        for b in range(nb):
            m = m0 + b
            F = kp[b, m0:m] @ U[m0:m]
            F += G[b]
            yield m, float(dp[b, m - 1]), F


def history_load(weights: CaputoWeights, history) -> np.ndarray | float:
    """F^m = sum_{j<m} kappa_{m,j} U^j for the history U^0..U^{m-1}, shaped (m,) or (m, n).

    No solver calls it.  It stays only because ``perfbench/tracing.py`` patches
    ``fraxolve.scalar.history_load`` by name, and goes when the tracer stops that.
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
    out = w.diag * vals[m] - np.dot(w.kappa[:m], vals[:m])
    return float(out) if np.ndim(out) == 0 else out
