from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from fraxolve.nonlinearity import Nonlinearity, builtin, truncate


class TestBuiltins:
    def test_allen_cahn_values(self):
        f = builtin("allen_cahn", alpha=0.5)
        # (s^3 - s)/alpha at s = 0.5: (0.125 - 0.5)/0.5 = -0.75
        assert f.eval(None, 0.0, 0.5) == pytest.approx(-0.75)
        assert f.eval(None, 0.0, 1.0) == 0.0
        assert f.eval(None, 0.0, -1.0) == 0.0
        assert f.lam == pytest.approx(2.0)  # 1/alpha
        assert f.range == (-1.0, 1.0)

    @pytest.mark.parametrize("kind", ["array", "0-d", "float"])
    def test_allen_cahn_cube_matches_power(self, kind):
        # eval multiplies out the cube; it must agree with (s**3 - s)/a to a
        # few ulps of its largest term, and keep a scalar input scalar
        a = 0.3
        f = builtin("allen_cahn", alpha=a)
        s = np.random.default_rng(1).uniform(-1.5, 1.5, 1000)
        s = {"array": s, "0-d": np.asarray(s[0]), "float": float(s[0])}[kind]
        got = f.eval(None, 0.0, s)
        want = (np.asarray(s) ** 3 - np.asarray(s)) / a
        assert np.shape(got) == np.shape(s)
        if kind != "array":
            assert isinstance(got, float)
        ulp = np.spacing((np.abs(s) ** 3 + np.abs(s)) / a)
        assert np.all(np.abs(got - want) <= 4 * ulp)

    def test_allen_cahn_derivative(self):
        f = builtin("allen_cahn", alpha=0.25)
        s = np.linspace(-1, 1, 11)
        np.testing.assert_allclose(f.deriv_s(None, 0.0, s), (3 * s**2 - 1) / 0.25)

    @pytest.mark.parametrize("kind", ["array", "0-d", "float"])
    def test_allen_cahn_derivative_bitwise_power(self, kind):
        # deriv_s squares by s * s; numpy's s ** 2 is the same product, so
        # the two agree bitwise, and a scalar input stays scalar
        a = 0.3
        f = builtin("allen_cahn", alpha=a)
        s = np.random.default_rng(2).uniform(-1.5, 1.5, 1000)
        s = {"array": s, "0-d": np.asarray(s[0]), "float": float(s[0])}[kind]
        got = f.deriv_s(None, 0.0, s)
        want = (3.0 * np.asarray(s) ** 2 - 1.0) / a
        assert np.shape(got) == np.shape(s)
        if kind != "array":
            assert isinstance(got, float)
        assert np.array_equal(got, want)

    def test_allen_cahn_sharp_lipschitz(self):
        # min over [-1,1] of f'(s) = (3s^2-1)/a is -1/a, attained at s = 0
        f = builtin("allen_cahn", alpha=0.5)
        s = np.linspace(-1, 1, 4001)
        assert float(np.min(f.deriv_s(None, 0.0, s))) == pytest.approx(-f.lam)

    def test_fisher_is_truncated(self):
        f = builtin("fisher")
        assert f.eval(None, 0.0, 0.5) == pytest.approx(-0.25)
        # outside [0,1] the clamp makes it constant
        assert f.eval(None, 0.0, 1.7) == f.eval(None, 0.0, 1.0) == 0.0
        assert f.eval(None, 0.0, -0.3) == f.eval(None, 0.0, 0.0) == 0.0
        assert f.deriv_s(None, 0.0, 1.7) == 0.0
        assert f.lam == 1.0
        assert f.range == (0.0, 1.0)

    def test_linear(self):
        f = builtin("linear", cstar=-3.0, F=2.0)
        assert f.eval(None, 0.0, 1.5) == pytest.approx(-3.0 * 1.5 + 2.0)
        assert f.lam == 3.0  # one-sided constant is -inf c*

    def test_linear_nonnegative_cstar_gives_lam_zero(self):
        f = builtin("linear", cstar=4.0)
        assert f.lam == 0.0

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin("brusselator")

    def test_unknown_params(self):
        with pytest.raises(ValueError):
            builtin("fisher", alpha=0.5)


class TestValidation:
    def test_negative_lam_rejected(self):
        with pytest.raises(ValueError):
            Nonlinearity(eval=lambda x, t, s: s, lam=-1.0)

    def test_range_must_straddle_zero(self):
        with pytest.raises(ValueError):
            Nonlinearity(eval=lambda x, t, s: s, lam=0.0, range=(0.5, 1.0))


class TestTruncate:
    def test_clamps_evaluation(self):
        f = builtin("allen_cahn", alpha=0.5)
        g = truncate(f, -1.0, 1.0)
        assert g.eval(None, 0.0, 5.0) == f.eval(None, 0.0, 1.0)
        assert g.eval(None, 0.0, -5.0) == f.eval(None, 0.0, -1.0)
        assert g.eval(None, 0.0, 0.3) == f.eval(None, 0.0, 0.3)
        assert g.range == (-1.0, 1.0)

    def test_derivative_zero_outside(self):
        g = truncate(builtin("allen_cahn", alpha=0.5), -1.0, 1.0)
        assert g.deriv_s(None, 0.0, 2.0) == 0.0
        assert g.deriv_s(None, 0.0, 0.0) == pytest.approx(-2.0)

    def test_sampled_constants(self):
        # truncated cubic on [-1,1]: lam = 1/a (min f' = -1/a at 0)
        g = truncate(builtin("allen_cahn", alpha=0.5), -1.0, 1.0)
        assert g.lam == pytest.approx(2.0, rel=1e-5)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            truncate(builtin("fisher"), 0.5, 1.0)

    def test_clamp_takes_np_clip_values(self):
        # the identity reaction returns the clamped argument; assert_array_equal
        # holds NaN equal to NaN and -0.0 to +0.0, the one sign np.clip keeps
        ident = Nonlinearity(eval=lambda x, t, s: s, deriv_s=lambda x, t, s: s, lam=0.0)
        g = truncate(ident, 0.0, 1.0, lam=0.0)
        s = np.array([-5.0, -0.0, 0.0, 0.25, 1.0, 7.0, np.inf, -np.inf, np.nan])
        want = np.clip(s, 0.0, 1.0)
        np.testing.assert_array_equal(g.eval(None, 0.0, s), want)
        np.testing.assert_array_equal(g.deriv_s(None, 0.0, s), np.where((s >= 0.0) & (s <= 1.0), want, 0.0))
        for v in s:  # scalar arguments, as the scalar solver passes them
            np.testing.assert_array_equal(g.eval(None, 0.0, v), np.clip(v, 0.0, 1.0))
        assert not np.signbit(g.eval(None, 0.0, -0.0))


# A sampled spot-check of the assumptions A1 and A2 (nonlinearity module
# docstring).  Only these tests use it, so it lives here.

@dataclass(frozen=True)
class AssumptionReport:
    a1_margin: float
    a1_pass: bool
    a2_margin: Optional[float]
    a2_pass: Optional[bool]


_N_PAIRS = 1000  # sampled (s1, s2) pairs of the A1 check
_T_SAMPLES = (0.0, 0.5, 1.0)
_MARGIN_TOL = 1e-10  # a margin down to -_MARGIN_TOL passes


def verify_assumptions(
    f: Nonlinearity, s_range: tuple[float, float] = (-2.0, 2.0)
) -> AssumptionReport:
    """Spot-check A1/A2 by sampling; sampling cannot prove A1, so advisory only.

    A1 margin is the worst value of (secant slope + lam) over 1000 seeded
    random pairs in ``s_range`` at t = 0, 0.5, 1 (negative means a
    violation); A2 margin the worst sign margin at the declared range
    endpoints.
    """
    rng = np.random.default_rng(0)
    lo, hi = s_range
    s1 = rng.uniform(lo, hi, _N_PAIRS)
    s2 = rng.uniform(lo, hi, _N_PAIRS)
    a, b = np.maximum(s1, s2), np.minimum(s1, s2)
    keep = a - b > 1e-12
    a, b = a[keep], b[keep]
    a1_margin = np.inf
    for t in _T_SAMPLES:
        slopes = (np.asarray(f.eval(None, t, a)) - np.asarray(f.eval(None, t, b))) / (a - b)
        a1_margin = min(a1_margin, float(np.min(slopes + f.lam)))
    a1_pass = a1_margin >= -_MARGIN_TOL

    a2_margin = None
    a2_pass = None
    if f.range is not None:
        sig1, sig2 = f.range
        a2_margin = np.inf
        for t in _T_SAMPLES:
            a2_margin = min(
                a2_margin,
                float(-np.max(np.atleast_1d(f.eval(None, t, sig1)))),
                float(np.min(np.atleast_1d(f.eval(None, t, sig2)))),
            )
        a2_pass = a2_margin >= -_MARGIN_TOL
    return AssumptionReport(a1_margin, a1_pass, a2_margin, a2_pass)


class TestVerifyAssumptions:
    def test_builtins_pass(self):
        for f in (builtin("allen_cahn", alpha=0.3), builtin("fisher"),
                  builtin("linear", cstar=-2.0)):
            rep = verify_assumptions(f)
            assert rep.a1_pass, (f.name, rep.a1_margin)
            if f.range is not None:
                assert rep.a2_pass, (f.name, rep.a2_margin)

    def test_a1_violation_detected(self):
        # claim lam = 0 for a decreasing function: secant slopes are ~ -1
        bad = Nonlinearity(eval=lambda x, t, s: -np.asarray(s), lam=0.0)
        rep = verify_assumptions(bad)
        assert not rep.a1_pass
        assert rep.a1_margin == pytest.approx(-1.0, abs=1e-6)

    def test_a2_violation_detected(self):
        # f(s2) < 0 at the declared upper endpoint breaks invariance
        bad = Nonlinearity(
            eval=lambda x, t, s: -np.ones_like(np.asarray(s, dtype=float)),
            lam=0.0,
            range=(-1.0, 1.0),
        )
        rep = verify_assumptions(bad)
        assert not rep.a2_pass

    def test_no_range_skips_a2(self):
        rep = verify_assumptions(builtin("linear", cstar=1.0))
        assert rep.a2_margin is None and rep.a2_pass is None

    def test_allen_cahn_globally_one_sided(self):
        # secant slope of (s^3 - s)/a is (s1^2 + s1 s2 + s2^2 - 1)/a >= -1/a
        # for all pairs, so A1 holds on any sampling window
        f = builtin("allen_cahn", alpha=0.5)
        rep = verify_assumptions(f, s_range=(-5.0, 5.0))
        assert rep.a1_pass
