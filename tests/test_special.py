import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from fraxolve.special import (
    _ml_asymptotic,
    _ml_negative_quad,
    _ml_series_float,
    gamma,
    mittag_leffler,
    rgamma,
)


class TestGamma:
    def test_against_stdlib(self):
        for x in np.linspace(0.05, 20.0, 157):
            assert gamma(x) == math.gamma(x)

    def test_half_integer_values(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert gamma(1.5) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-14)

    def test_integers(self):
        fact = 1
        for n in range(1, 12):
            assert gamma(float(n)) == pytest.approx(fact, rel=1e-13)
            fact *= n

    def test_reflection_small_positive(self):
        for x in (0.05, 0.1, 0.3, 0.49):
            assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-13)

    def test_nonpositive_raises(self):
        for bad in (0.0, -0.5, -2.0):
            with pytest.raises(ValueError):
                gamma(bad)

    def test_rgamma_at_poles(self):
        assert rgamma(0.0) == 0.0
        assert rgamma(-3.0) == 0.0
        assert rgamma(2.5) == pytest.approx(1 / math.gamma(2.5), rel=1e-13)
        assert rgamma(-0.5) == pytest.approx(1 / (-2 * math.sqrt(math.pi)), rel=1e-12)


class TestMittagLeffler:
    def test_alpha_one_is_exp(self):
        for s in (-3.0, -1.0, 0.0, 0.5, 2.0, 5.0):
            assert mittag_leffler(1.0, s) == pytest.approx(math.exp(s), rel=1e-13)

    def test_half_negative_one_is_erfc_identity(self):
        # E_{1/2}(-1) = e * erfc(1)
        want = math.e * math.erfc(1.0)
        assert mittag_leffler(0.5, -1.0) == pytest.approx(want, rel=1e-12)

    def test_half_general_erfc_identity(self):
        # E_{1/2}(s) = exp(s^2) erfc(-s) for real s
        for s in (-4.0, -2.0, -0.5, 0.5, 2.0):
            want = math.exp(s * s) * math.erfc(-s)
            assert mittag_leffler(0.5, s) == pytest.approx(want, rel=1e-10)

    def test_value_at_zero(self):
        for a in (0.2, 0.5, 0.9, 1.0):
            assert mittag_leffler(a, 0.0) == 1.0

    def test_series_asymptotic_branch_consistency_positive(self):
        # Series and asymptotic expansion must agree near the switch-over
        # radius on the positive axis (alphas large enough that exp(s^{1/a})
        # stays in float range).
        for a in (0.5, 0.6, 0.8):
            for s in np.linspace(10.0, 14.0, 9):
                v1 = _ml_series_float(a, s)
                v2 = _ml_asymptotic(a, s)
                assert v1 == pytest.approx(v2, rel=1e-7)

    def test_series_quadrature_branch_consistency_negative(self):
        # Series and spectral quadrature must agree on the negative axis
        # where both are applicable (no cancellation: alpha close to 1).
        for a, s in [(0.8, -2.0), (0.9, -4.0), (0.95, -8.0), (0.7, -1.5)]:
            v1 = _ml_series_float(a, s)
            v2 = _ml_negative_quad(a, s)
            # float64 series loses a few digits near its admissible peak
            assert v1 == pytest.approx(v2, rel=1e-8)

    def test_monotone_decreasing_on_negative_axis(self):
        for a in (0.3, 0.5, 0.7):
            s = np.linspace(-30.0, 0.0, 121)
            vals = np.array([mittag_leffler(a, si) for si in s])
            assert np.all(np.diff(vals) > 0)  # increasing back toward E(0)=1
            assert np.all(vals > 0)
            assert vals[-1] == 1.0

    def test_completely_monotone_bounds_negative_axis(self):
        # 0 < E_alpha(s) <= 1 for s <= 0
        for a in (0.2, 0.5, 0.9):
            for s in (-100.0, -50.0, -5.0, -0.1):
                v = mittag_leffler(a, s)
                assert 0.0 < v <= 1.0

    def test_positive_axis_growth(self):
        # E_alpha is increasing on s > 0; stay below the exp(s^{1/alpha})
        # overflow threshold
        for a in (0.3, 0.7):
            s_max = 0.9 * 700.0 ** a
            s = np.linspace(0.0, s_max, 41)
            vals = np.array([mittag_leffler(a, si) for si in s])
            assert np.all(np.diff(vals) > 0)
            assert vals[0] == 1.0

    def test_mpmath_oracle_spot_values(self):
        # extended-precision series as an independent oracle; dps sized to the
        # largest series term so cancellation cannot pollute the reference
        mpmath = pytest.importorskip("mpmath")

        def oracle(a, s, dps):
            with mpmath.workdps(dps):
                z = mpmath.mpf(s)
                aa = mpmath.mpf(a)  # keep the Gamma argument in full precision
                total = mpmath.mpf(1)
                k = 1
                while True:
                    term = z ** k / mpmath.gamma(aa * k + 1)
                    total += term
                    if abs(term) < mpmath.mpf(10) ** (-dps + 5) and k * a > 2:
                        break
                    k += 1
                return float(total)

        for a, s, dps in [(0.5, -6.0, 60), (0.7, 9.0, 60), (0.9, -3.3, 50),
                          (0.4, -5.0, 80), (0.3, -4.0, 120), (0.6, -10.0, 80)]:
            want = oracle(a, s, dps)
            assert mittag_leffler(a, s) == pytest.approx(want, rel=1e-9, abs=1e-15)

    def test_negative_axis_quadrature_against_mpmath(self):
        # points on the quadrature branch; reference: the series at raised
        # precision where its largest term (~exp(|s|^(1/alpha))) is affordable,
        # else the large-|s| asymptotic sum -sum_k s^-k / Gamma(1 - alpha k)
        mpmath = pytest.importorskip("mpmath")

        def series(a, s):
            dps = int(abs(s) ** (1.0 / a) / 2.3) + 40
            with mpmath.workdps(dps):
                z, aa = mpmath.mpf(s), mpmath.mpf(a)
                total, k = mpmath.mpf(1), 1
                while True:
                    term = z**k / mpmath.gamma(aa * k + 1)
                    total += term
                    if abs(term) < mpmath.mpf(10) ** (-dps + 5) and k * a > 2:
                        return float(total)
                    k += 1

        def asymptotic(a, s):
            with mpmath.workdps(40):
                z, aa = mpmath.mpf(s), mpmath.mpf(a)
                total, prev = mpmath.mpf(0), mpmath.inf
                for k in range(1, 400):
                    if abs(a * k - round(a * k)) < 1e-12:
                        continue  # pole of Gamma(1 - alpha k): the term is zero
                    term = -(z ** -k) * mpmath.rgamma(1 - aa * k)
                    if abs(term) > prev:
                        break  # divergent series: stop at the smallest term
                    total += term
                    prev = abs(term)
                assert prev < 1e-25 * abs(total)
                return float(total)

        cases = [(0.2, -30.0, asymptotic), (0.2, -100.0, asymptotic),
                 (0.3, -12.0, asymptotic), (0.3, -100.0, asymptotic),
                 (0.5, -13.0, series), (0.5, -60.0, asymptotic),
                 (0.7, -13.0, series), (0.7, -30.0, series),
                 (0.9, -13.0, series), (0.9, -100.0, asymptotic)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            for a, s, oracle in cases:
                assert mittag_leffler(a, s) == pytest.approx(oracle(a, s), rel=1e-11)

    def test_invalid_alpha(self):
        for a in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                mittag_leffler(a, 1.0)

    def test_overflow_warns(self):
        with pytest.warns(RuntimeWarning):
            v = mittag_leffler(0.5, 1e7)
        assert math.isinf(v)
