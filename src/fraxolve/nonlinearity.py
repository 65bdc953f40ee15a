"""Reaction terms f(x, t, s) with one-sided Lipschitz and invariant-range metadata.

Assumption tags used throughout:
  A1  one-sided Lipschitz in s: f(x,t,s1) - f(x,t,s2) >= -lam (s1 - s2) for s1 >= s2
  A2  invariant range: constants s1 <= 0 <= s2 with f(.,.,s1) <= 0 <= f(.,.,s2)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

__all__ = ["Nonlinearity", "builtin", "truncate"]


@dataclass(frozen=True)
class Nonlinearity:
    """f(x, t, s); ``x`` may be None (scalar problems) or an (n, d) node array.

    ``eval`` and ``deriv_s`` must be pure and broadcast over s.
    """

    eval: Callable
    lam: float
    deriv_s: Optional[Callable] = None
    range: Optional[tuple[float, float]] = None
    name: str = "custom"

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        if self.range is not None:
            s1, s2 = self.range
            if not (s1 <= 0.0 <= s2):
                raise ValueError("invariant range must satisfy sigma1 <= 0 <= sigma2")


def builtin(name: str, **params) -> Nonlinearity:
    """Built-in reactions: allen_cahn(alpha), fisher, linear(cstar, F = 0).

    Lipschitz constants of built-ins are the analytically sharp ones.
    """
    if name == "allen_cahn":
        a = float(params.pop("alpha"))
        if params:
            raise ValueError(f"unknown parameters for allen_cahn: {sorted(params)}")
        if not 0.0 < a < 1.0:
            raise ValueError(f"allen_cahn requires alpha in (0, 1), got {a}")

        def cubic(x, t, s):
            # s * s * s, not s ** 3: numpy has no fast path for an integer cube
            # (~25x slower at 4k values); [()] makes a 0-d input a numpy scalar
            s = np.asarray(s)[()]
            return (s * s * s - s) / a

        def cubic_deriv(x, t, s):
            # s * s equals s ** 2 bitwise; [()] spares the 0-d array arithmetic
            s = np.asarray(s)[()]
            return (3.0 * (s * s) - 1.0) / a

        return Nonlinearity(
            eval=cubic,
            deriv_s=cubic_deriv,
            lam=1.0 / a,  # min_s (3 s^2 - 1)/a = -1/a
            range=(-1.0, 1.0),
            name=f"allen_cahn({a})",
        )
    if name == "fisher":
        if params:
            raise ValueError(f"unknown parameters for fisher: {sorted(params)}")
        quad = Nonlinearity(
            eval=lambda x, t, s: np.asarray(s) ** 2 - np.asarray(s),
            deriv_s=lambda x, t, s: 2.0 * np.asarray(s) - 1.0,
            lam=1.0,  # min of 2s - 1 on [0, 1]
            name="fisher_raw",
        )
        return replace(truncate(quad, 0.0, 1.0, lam=1.0), name="fisher")
    if name == "linear":
        c = float(params.pop("cstar"))
        F = float(params.pop("F", 0.0))
        if params:
            raise ValueError(f"unknown parameters for linear: {sorted(params)}")
        return Nonlinearity(
            eval=lambda x, t, s: c * np.asarray(s) + F,
            deriv_s=lambda x, t, s: c * np.ones_like(np.asarray(s, dtype=float)),
            lam=max(0.0, -c),
            name="linear",
        )
    raise ValueError(f"unknown built-in nonlinearity: {name!r}")


def truncate(f: Nonlinearity, sigma1: float, sigma2: float, lam: float | None = None) -> Nonlinearity:
    """Clamp f in s to [sigma1, sigma2]; derivative is zero outside.

    The clamped reaction satisfies A1 with the one-sided constant of f on the
    range.  If ``lam`` is not given it is taken from the derivative sampled on
    [sigma1, sigma2] (advisory for custom f; exact when deriv_s is exact and
    the minimum is attained on the sample).
    """
    if sigma1 > 0.0 or sigma2 < 0.0:
        raise ValueError("truncation range must satisfy sigma1 <= 0 <= sigma2")

    # np.minimum(np.maximum(...)) is np.clip's value (but for the sign of a
    # zero) without np.clip's three Python-level wrappers per call
    def f_eval(x, t, s):
        return f.eval(x, t, np.minimum(np.maximum(s, sigma1), sigma2))

    def f_deriv(x, t, s):
        s = np.asarray(s, dtype=float)
        inside = (s >= sigma1) & (s <= sigma2)
        d = f.deriv_s(x, t, np.minimum(np.maximum(s, sigma1), sigma2))
        return np.where(inside, d, 0.0)

    if lam is None:
        if f.deriv_s is not None:
            ss = np.linspace(sigma1, sigma2, 2001)
            lam = max(0.0, -float(np.min(f.deriv_s(None, 0.0, ss))))
        else:
            lam = f.lam
    return Nonlinearity(
        eval=f_eval,
        deriv_s=f_deriv if f.deriv_s is not None else None,
        lam=lam,
        range=(sigma1, sigma2),
        name=f"truncate({f.name}, [{sigma1}, {sigma2}])",
    )
