"""Gamma and Mittag-Leffler evaluation for real arguments.

Gamma, log Gamma and 1/Gamma all come from the standard library's ``math``
(``gamma``, ``_lgamma``, ``_rgamma``), so importing this module loads
numpy only; scipy is not imported here, apart from the quadrature below.

``mittag_leffler(alpha, s)`` takes a float (and returns a float) or an
array (and returns an array of the same shape).  Each entry of
E_alpha(s) = sum_k s^k / Gamma(k*alpha + 1) goes to one of four branches:

- the power series for moderate |s|, summed for the whole batch at once:
  the terms exp(k log|s| - lgamma(k alpha + 1)) share one lgamma table per
  call, sized by the extreme entries, and each entry stops where its own
  stopping rule says;
- the standard asymptotic expansion for large positive s;
- on the negative axis, where the series would cancel catastrophically,
  the completely monotone spectral representation

      E_alpha(-x) = int_0^inf e^{-r} rho_alpha(r, x) dr,   x > 0,
      rho_alpha(r, x) = (x r^{alpha-1} sin(alpha pi) / pi)
                        / (r^{2 alpha} + 2 x r^alpha cos(alpha pi) + x^2),

  which is well conditioned and is evaluated per entry by adaptive
  quadrature (``scipy.integrate`` is imported only when this branch runs);
- far out on the negative axis, the algebraic expansion
  -sum_k s^-k / Gamma(1 - alpha k).
"""

from __future__ import annotations

import math
import warnings

import numpy as np

__all__ = ["gamma", "mittag_leffler"]


def gamma(x: float) -> float:
    """Gamma function for positive real x (``math.gamma``)."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gamma requires x > 0, got {x}")
    return math.gamma(x)


def _lgamma(x: np.ndarray) -> np.ndarray:
    """log Gamma(x) per entry of a 1-D array of x > 0 (``math.lgamma``)."""
    return np.array([math.lgamma(v) for v in x.tolist()], dtype=float)


def _rgamma(x: np.ndarray) -> np.ndarray:
    """1/Gamma(x) per entry of a 1-D array (``1 / math.gamma``): exactly 0.0 at
    the poles 0, -1, -2, ..., where ``math.gamma`` raises."""
    return np.array([0.0 if v <= 0.0 and v == math.floor(v) else 1.0 / math.gamma(v)
                     for v in x.tolist()], dtype=float)


_SERIES_RADIUS = 12.0  # |s| beyond which the power series is not used
_SERIES_TOL = 1e-15  # relative size of the last series term kept
_SERIES_MAX_TERMS = 100_000  # the series never sums more terms than this
_SERIES_BLOCK = 1 << 15  # series terms per block (256 KB per float64 work array)
_ASYMPTOTIC_TERMS = 10  # at most this many terms of the large-|s| expansions
_FAR_RADIUS = 1e6  # -s beyond which the algebraic expansion replaces the quadrature
_EXP_MAX = 700.0  # exp(x) for x above this is reported as an overflow


def _log_peak_index(alpha: float, s_abs: np.ndarray) -> np.ndarray:
    """log of k = |s|^(1/alpha) / alpha, where the series terms peak (|s| > 1);
    in log space, so a huge |s| cannot overflow."""
    return np.log(np.maximum(s_abs, 1.0)) / alpha - math.log(alpha)


def _series_peak_log(alpha: float, s_abs: np.ndarray) -> np.ndarray:
    """log of the largest-magnitude power-series term, per entry (|s| <= _SERIES_RADIUS)."""
    log_k = _log_peak_index(alpha, s_abs)
    k = np.exp(np.minimum(log_k, 300.0))
    peak = k * np.log(s_abs) - _lgamma(k * alpha + 1.0)
    peak[log_k > 300.0] = math.inf  # beyond e^300 terms to the peak: far past any threshold
    peak[s_abs <= 1.0] = 0.0
    return peak


def _series_partials(s: np.ndarray, k: np.ndarray, lg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Terms s^k / Gamma(k alpha + 1) and partial sums 1 + sum_{j <= k} of
    them, shape (k.size, s.size), from the table lg = lgamma(k alpha + 1).

    A term is exp(k log|s| - lg).  log|s| is carried as hi + lo: near a peak
    term of e^600 the rounding of log|s| alone, times k, costs 1e-13 (lo is
    0 where longdouble is plain double).  The partial sums run in k order, so
    a column does not depend on the rest of the batch or on the table length.
    """
    log_ext = np.log(np.abs(s).astype(np.longdouble))
    log_hi = log_ext.astype(float)
    terms = np.multiply.outer(k, log_hi)
    terms -= lg[:, None]
    partial = np.multiply.outer(k, (log_ext - log_hi).astype(float))
    terms += partial
    np.exp(terms, out=terms)
    terms[::2, s < 0.0] *= -1.0  # odd powers of a negative s
    np.cumsum(terms, axis=0, out=partial)
    partial += 1.0
    return terms, partial


def _series_stops(alpha, s, k, terms, partial) -> np.ndarray:
    """Per column, the row of the last term the stopping rule keeps (-1 when
    the table is too short).  The rule: past the peak term, k alpha > 1, and
    the term below _SERIES_TOL * max(1, |partial sum|)."""
    stop = np.abs(partial)
    np.maximum(stop, 1.0, out=stop)
    stop *= _SERIES_TOL
    stop = np.abs(terms) < stop
    stop &= np.log(k)[:, None] >= _log_peak_index(alpha, np.abs(s))
    stop[k * alpha <= 1.0] = False
    first = stop.argmax(axis=0)
    return np.where(stop[first, np.arange(s.size)], first, -1)


def _series_table(alpha: float, refs: np.ndarray) -> np.ndarray:
    """lgamma(k alpha + 1) for k = 1..K, K the longest stopping index over refs."""
    lg: list[float] = []
    while True:
        n = min(max(256, 4 * len(lg)), _SERIES_MAX_TERMS)
        lg += [math.lgamma(j * alpha + 1.0) for j in range(len(lg) + 1, n + 1)]
        table = np.array(lg)
        k = np.arange(1.0, n + 1.0)
        stop = _series_stops(alpha, refs, k, *_series_partials(refs, k, table))
        if (stop >= 0).all():
            return table[: stop.max() + 1]
        if n == _SERIES_MAX_TERMS:
            return table


def _ml_series(alpha: float, s: np.ndarray) -> np.ndarray:
    """Power series at every (nonzero) entry of the 1-D array s, as one batch.

    One lgamma table serves the batch.  Its length is the longer stopping
    index of the two extreme entries, which covers every entry's own stop.
    Each entry then ends at its own stop (or, past _SERIES_MAX_TERMS, at the
    table's end), so it gets the value a one-entry batch would.  Rows go in
    blocks of about _SERIES_BLOCK terms.
    """
    lg = _series_table(alpha, np.array([s.min(), s.max()]))
    k = np.arange(1.0, lg.size + 1.0)
    out = np.empty(s.size)
    rows = max(1, _SERIES_BLOCK // lg.size)
    for lo in range(0, s.size, rows):
        blk = s[lo : lo + rows]
        terms, partial = _series_partials(blk, k, lg)
        out[lo : lo + rows] = partial[_series_stops(alpha, blk, k, terms, partial), np.arange(blk.size)]
    return out


def _ml_negative_quad(alpha: float, s: float) -> float:
    """Spectral-measure quadrature for E_alpha(s) with s < 0, 0 < alpha < 1."""
    from scipy.integrate import quad

    x = -s
    c = math.cos(alpha * math.pi)
    sn = math.sin(alpha * math.pi)

    def smooth(r):  # the integrand without its r^{alpha-1} factor
        ra = r**alpha
        return (x * sn / math.pi) * math.exp(-r) / (ra * ra + 2 * x * ra * c + x * x)

    # on [0, 1] the integrable r^{alpha-1} singularity goes into quad's algebraic weight
    v1, _ = quad(smooth, 0.0, 1.0, weight="alg", wvar=(alpha - 1.0, 0.0),
                 epsabs=1e-14, epsrel=1e-12, limit=200)
    v2, _ = quad(lambda r: r ** (alpha - 1.0) * smooth(r), 1.0, math.inf,
                 epsabs=1e-14, epsrel=1e-12, limit=200)
    return v1 + v2


def _asymptotic_tail(alpha: float, s: np.ndarray) -> np.ndarray:
    """sum_k s^-k / Gamma(1 - k alpha), optimally truncated per entry."""
    coef = _rgamma(1.0 - alpha * np.arange(1.0, _ASYMPTOTIC_TERMS + 1.0))
    u = 1.0 / s
    uk = np.ones_like(s)
    tail = np.zeros_like(s)
    prev = np.full_like(s, math.inf)
    live = np.ones(s.shape, dtype=bool)
    for c in coef:
        uk *= u
        t = c * uk
        live &= ~(np.abs(t) > prev)  # divergent asymptotic series: stop at smallest term
        tail += np.where(live, t, 0.0)
        prev = np.where(live & (t != 0.0), np.abs(t), prev)
    return tail


def _ml_asymptotic(alpha: float, s: np.ndarray) -> np.ndarray:
    """Standard large-s expansion for s > 0; inf where exp(s^(1/alpha)) overflows."""
    out = np.full_like(s, math.inf)
    ok = np.log(s) <= alpha * math.log(_EXP_MAX)  # s^(1/alpha) <= _EXP_MAX, without overflow
    out[ok] = np.exp(s[ok] ** (1.0 / alpha)) / alpha - _asymptotic_tail(alpha, s[ok])
    return out


def mittag_leffler(alpha: float, s: float | np.ndarray) -> float | np.ndarray:
    """One-parameter Mittag-Leffler function E_alpha(s), real s, alpha in (0, 1].

    s is a float or an array; a float (or 0-d array) gives a float, an array
    gives an array of the same shape.  Overflow to +inf warns once per call;
    NaN in s raises ValueError.
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    s_in = np.asarray(s, dtype=float)
    if np.isnan(s_in).any():
        raise ValueError("mittag_leffler is undefined at s = nan")
    s = s_in.reshape(-1)
    out = np.ones(s.size)
    if alpha == 1.0:
        out = np.exp(np.minimum(s, _EXP_MAX))
        out[s > _EXP_MAX] = math.inf
    else:
        series = (s != 0.0) & (np.abs(s) <= _SERIES_RADIUS)
        # alternating series: a peak term of e^7 already costs ~3 digits,
        # so hand anything worse to the well-conditioned quadrature
        peak = _series_peak_log(alpha, np.abs(s[series]))
        series[series] = peak <= np.where(s[series] < 0.0, 7.0, 600.0)
        if series.any():
            out[series] = _ml_series(alpha, s[series])
        positive = (s > 0.0) & ~series
        out[positive] = _ml_asymptotic(alpha, s[positive])
        far = s < -_FAR_RADIUS
        out[far] = 0.0 - _asymptotic_tail(alpha, s[far])  # 0.0 - keeps E(-inf) at +0.0
        for i in np.flatnonzero((s < 0.0) & ~series & ~far):
            out[i] = _ml_negative_quad(alpha, float(s[i]))
    over = out == math.inf
    if over.any():
        warnings.warn(
            f"mittag_leffler overflow for alpha={alpha} at {int(over.sum())} of {s.size} "
            f"entries (largest s = {s.max()}); returning inf",
            RuntimeWarning,
        )
    return float(out[0]) if s_in.ndim == 0 else out.reshape(s_in.shape)
