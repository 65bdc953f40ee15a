"""Gamma and Mittag-Leffler evaluation for real arguments.

Gamma is the standard library's ``math.gamma``; its reciprocal is
``scipy.special.rgamma``, which is zero at the poles.

The Mittag-Leffler function E_alpha(s) = sum_k s^k / Gamma(k*alpha + 1)
is evaluated by its power series for moderate |s| and by the standard
asymptotic expansion for large positive s.  The power series suffers
catastrophic cancellation for strongly negative s combined with small
alpha; on the negative axis the function instead has the completely
monotone spectral representation

    E_alpha(-x) = int_0^inf e^{-r} rho_alpha(r, x) dr,   x > 0,
    rho_alpha(r, x) = (x r^{alpha-1} sin(alpha pi) / pi)
                      / (r^{2 alpha} + 2 x r^alpha cos(alpha pi) + x^2),

which is well conditioned and is used whenever the series would cancel.
"""

from __future__ import annotations

import math
import warnings

from scipy.integrate import quad
from scipy.special import rgamma as _rgamma

__all__ = ["gamma", "rgamma", "mittag_leffler"]


def gamma(x: float) -> float:
    """Gamma function for positive real x (``math.gamma``)."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gamma requires x > 0, got {x}")
    return math.gamma(x)


def rgamma(x: float) -> float:
    """Reciprocal Gamma function for any real x (zero at the poles)."""
    return float(_rgamma(x))


_SERIES_RADIUS = 12.0  # |s| beyond which the power series is not used
_SERIES_TOL = 1e-15  # relative size of the last series term kept
_ASYMPTOTIC_TERMS = 10  # at most this many terms of the large-s expansion


def _series_peak_log(alpha: float, s_abs: float) -> float:
    """log of the largest-magnitude power-series term."""
    if s_abs <= 1.0:
        return 0.0
    k = max(1.0, s_abs ** (1.0 / alpha) / alpha)
    return k * math.log(s_abs) - math.lgamma(k * alpha + 1.0)


def _ml_series_float(alpha: float, s: float) -> float:
    """Plain float64 (Kahan-compensated) power series."""
    total = 1.0
    comp = 0.0  # Kahan compensation
    log_s = math.log(abs(s))
    k = 1
    while k < 100_000:
        # term = s^k / Gamma(k alpha + 1), magnitude via lgamma to avoid overflow
        sign = 1.0 if (s > 0 or k % 2 == 0) else -1.0
        t = sign * math.exp(k * log_s - math.lgamma(k * alpha + 1.0))
        y = t - comp
        new = total + y
        comp = (new - total) - y
        total = new
        if abs(t) < _SERIES_TOL * max(1.0, abs(total)) and k * alpha > 1.0:
            break
        k += 1
    return total


def _ml_negative_quad(alpha: float, s: float) -> float:
    """Spectral-measure quadrature for E_alpha(s) with s < 0, 0 < alpha < 1."""
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


def _ml_asymptotic(alpha: float, s: float) -> float:
    """Standard large-s expansion for s > 0, optimally truncated."""
    tail = 0.0
    prev = math.inf
    for k in range(1, _ASYMPTOTIC_TERMS + 1):
        t = rgamma(1.0 - k * alpha) / s**k
        if abs(t) > prev:
            break  # divergent asymptotic series: stop at smallest term
        tail += t
        if t != 0.0:
            prev = abs(t)
    arg = s ** (1.0 / alpha)
    if arg > 700.0:
        warnings.warn(
            f"mittag_leffler overflow for alpha={alpha}, s={s}; returning inf",
            RuntimeWarning,
        )
        return math.inf
    return math.exp(arg) / alpha - tail


def mittag_leffler(alpha: float, s: float) -> float:
    """One-parameter Mittag-Leffler function E_alpha(s), real s, alpha in (0, 1]."""
    alpha = float(alpha)
    s = float(s)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if s == 0.0:
        return 1.0
    if alpha == 1.0:
        if s > 700.0:
            warnings.warn(
                f"mittag_leffler overflow for alpha=1, s={s}; returning inf",
                RuntimeWarning,
            )
            return math.inf
        return math.exp(s)
    peak = _series_peak_log(alpha, abs(s))
    if s < 0.0:
        # alternating series: a peak term of e^7 already costs ~3 digits,
        # so hand anything worse to the well-conditioned quadrature
        if abs(s) <= _SERIES_RADIUS and peak <= 7.0:
            return _ml_series_float(alpha, s)
        return _ml_negative_quad(alpha, s)
    if s <= _SERIES_RADIUS and peak <= 600.0:
        return _ml_series_float(alpha, s)
    return _ml_asymptotic(alpha, s)
