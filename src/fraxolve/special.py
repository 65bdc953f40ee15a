"""Gamma and Mittag-Leffler evaluation for real arguments.

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
from dataclasses import dataclass

from scipy.integrate import quad

__all__ = ["gamma", "rgamma", "mittag_leffler", "MLParams"]

# Lanczos approximation, g = 7, 9 coefficients (~1e-15 relative accuracy).
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _lanczos_gamma(x: float) -> float:
    # valid for x >= 0.5
    z = x - 1.0
    a = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        a += _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * a


def gamma(x: float) -> float:
    """Gamma function for positive real x."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gamma requires x > 0, got {x}")
    if x >= 0.5:
        return _lanczos_gamma(x)
    # reflection: Gamma(x) = pi / (sin(pi x) * Gamma(1 - x))
    return math.pi / (math.sin(math.pi * x) * _lanczos_gamma(1.0 - x))


def rgamma(x: float) -> float:
    """Reciprocal Gamma function for any real x (zero at the poles)."""
    x = float(x)
    if x > 0.0:
        return 1.0 / gamma(x)
    if x == math.floor(x):
        return 0.0  # pole of Gamma at 0, -1, -2, ...
    # 1/Gamma(x) = Gamma(1-x) * sin(pi x) / pi
    return gamma(1.0 - x) * math.sin(math.pi * x) / math.pi


@dataclass(frozen=True)
class MLParams:
    """Tuning knobs for Mittag-Leffler evaluation."""

    series_radius: float = 12.0
    series_tol: float = 1e-15
    asymptotic_terms: int = 10

    def __post_init__(self):
        if not self.series_radius > 0:
            raise ValueError("series_radius must be positive")


_DEFAULT_ML = MLParams()


def _series_peak_log(alpha: float, s_abs: float) -> float:
    """log of the largest-magnitude power-series term."""
    if s_abs <= 1.0:
        return 0.0
    k = max(1.0, s_abs ** (1.0 / alpha) / alpha)
    return k * math.log(s_abs) - math.lgamma(k * alpha + 1.0)


def _ml_series_float(alpha: float, s: float, tol: float) -> tuple[float, float]:
    """Plain float64 series; returns (sum, max |term|)."""
    total = 1.0
    comp = 0.0  # Kahan compensation
    max_term = 1.0
    log_s = math.log(abs(s))
    k = 1
    while k < 100_000:
        # term = s^k / Gamma(k alpha + 1), magnitude via lgamma to avoid overflow
        sign = 1.0 if (s > 0 or k % 2 == 0) else -1.0
        t = sign * math.exp(k * log_s - math.lgamma(k * alpha + 1.0))
        max_term = max(max_term, abs(t))
        y = t - comp
        new = total + y
        comp = (new - total) - y
        total = new
        if abs(t) < tol * max(1.0, abs(total)) and k * alpha > 1.0:
            break
        k += 1
    return total, max_term


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


def _ml_asymptotic(alpha: float, s: float, n_terms: int) -> float:
    """Standard large-s expansion for s > 0, optimally truncated."""
    tail = 0.0
    prev = math.inf
    for k in range(1, n_terms + 1):
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


def mittag_leffler(alpha: float, s: float, params: MLParams | None = None) -> float:
    """One-parameter Mittag-Leffler function E_alpha(s), real s, alpha in (0, 1]."""
    p = params or _DEFAULT_ML
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
        if abs(s) <= p.series_radius and peak <= 7.0:
            return _ml_series_float(alpha, s, p.series_tol)[0]
        return _ml_negative_quad(alpha, s)
    if s <= p.series_radius and peak <= 600.0:
        return _ml_series_float(alpha, s, p.series_tol)[0]
    return _ml_asymptotic(alpha, s, p.asymptotic_terms)
