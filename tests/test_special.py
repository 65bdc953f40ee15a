import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from fraxolve.special import (
    _ASYMPTOTIC_TERMS,
    _FAR_RADIUS,
    _asymptotic_tail,
    _lgamma,
    _ml_asymptotic,
    _ml_negative_quad,
    _ml_series,
    _rgamma,
    gamma,
    mittag_leffler,
)


def _mp_series(a, s):
    """E_a(s) by its power series in mpmath; on the negative axis the
    precision is sized to the largest term, so cancellation cannot pollute it."""
    mpmath = pytest.importorskip("mpmath")
    dps = 40 + (int(abs(s) ** (1.0 / a) / 2.3) if s < 0 else 0)
    with mpmath.workdps(dps):
        z, aa = mpmath.mpf(s), mpmath.mpf(a)
        total, k = mpmath.mpf(1), 1
        while True:
            term = z**k / mpmath.gamma(aa * k + 1)
            total += term
            if abs(term) < mpmath.mpf(10) ** (-dps + 5) * max(1, abs(total)) and k * a > 2:
                return float(total)
            k += 1


def _mp_negative_asymptotic(a, s):
    """The large-|s| sum -sum_k s^-k / Gamma(1 - alpha k) in mpmath, stopped at its smallest term."""
    mpmath = pytest.importorskip("mpmath")
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


class TestGammaHelpers:
    """``_rgamma`` and ``_lgamma`` against mpmath, on the arguments the module feeds them.

    Each bound is the worst error measured over a wider sweep, rounded up:
    1/math.gamma reaches 4.48 ulp on the tail grid (scipy's rgamma 2.89), and
    math.lgamma 5.36 ulp of max(1, |log Gamma|) on k alpha + 1 (scipy's
    gammaln 2.90).  Near the zeros of log Gamma at 1 and 2 the value itself
    is small and any double-precision lgamma loses relative accuracy, so
    that bound is absolute below 1.
    """

    def test_rgamma_is_exactly_zero_at_the_poles(self):
        got = _rgamma(np.array([0.0, -1.0, -2.0, -3.0]))
        assert got.tolist() == [0.0] * 4 and not np.signbit(got).any()

    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_rgamma_on_the_asymptotic_tail_grid(self, alpha):
        mpmath = pytest.importorskip("mpmath")
        x = 1.0 - alpha * np.arange(1.0, _ASYMPTOTIC_TERMS + 1.0)  # as _asymptotic_tail forms it
        with mpmath.workprec(120):
            for xi, got in zip(x.tolist(), _rgamma(x).tolist()):
                want = mpmath.rgamma(mpmath.mpf(xi))
                if want == 0:  # a pole: alpha k is exactly an integer
                    assert got == 0.0, xi
                else:
                    assert float(abs(got - want)) <= 5.0 * math.ulp(float(want)), (xi, got)

    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_lgamma_up_to_the_series_peak_cap(self, alpha):
        # _series_peak_log caps the peak index k at e^300
        mpmath = pytest.importorskip("mpmath")
        k = np.concatenate([np.arange(1.0, 65.0), np.exp(np.linspace(0.0, 300.0, 121))])
        x = k * alpha + 1.0
        with mpmath.workprec(120):
            for xi, got in zip(x.tolist(), _lgamma(x).tolist()):
                want = mpmath.loggamma(mpmath.mpf(xi))
                assert float(abs(got - want)) <= 6.0 * math.ulp(max(1.0, abs(float(want)))), (xi, got)


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
                v1 = _ml_series(a, np.array([s]))[0]
                v2 = _ml_asymptotic(a, np.array([s]))[0]
                assert v1 == pytest.approx(v2, rel=1e-7)

    def test_series_quadrature_branch_consistency_negative(self):
        # Series and spectral quadrature must agree on the negative axis
        # where both are applicable (no cancellation: alpha close to 1).
        for a, s in [(0.8, -2.0), (0.9, -4.0), (0.95, -8.0), (0.7, -1.5)]:
            v1 = _ml_series(a, np.array([s]))[0]
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
        asymptotic, series = _mp_negative_asymptotic, _mp_series
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

    def test_far_negative_axis_against_mpmath(self):
        # past _FAR_RADIUS the algebraic expansion replaces the quadrature,
        # whose x * x overflows near |s| = 1e154
        for a in (0.2, 0.5, 0.9):
            s = np.array([-1e160, -1e300])
            want = [_mp_negative_asymptotic(a, si) for si in s]
            np.testing.assert_allclose(mittag_leffler(a, s), want, rtol=1e-12, atol=0.0)
            for si, w in zip(s, want):
                assert mittag_leffler(a, si) == pytest.approx(w, rel=1e-12)

    def test_far_radius_switch_is_seamless(self):
        for a in (0.2, 0.5, 0.9):
            s = -_FAR_RADIUS
            far = 0.0 - _asymptotic_tail(a, np.array([s]))[0]
            assert far == pytest.approx(_ml_negative_quad(a, s), rel=1e-11)

    def test_infinities_and_nan(self):
        for a in (0.5, 1.0):
            assert mittag_leffler(a, -math.inf) == 0.0
            with pytest.warns(RuntimeWarning) as rec:
                v = mittag_leffler(a, np.array([math.inf, -math.inf, 1e9, math.inf]))
            assert len(rec) == 1  # one warning per call, not per entry
            np.testing.assert_array_equal(v, [math.inf, 0.0, math.inf, math.inf])
            for bad in (math.nan, np.array([1.0, math.nan])):
                with pytest.raises(ValueError):
                    mittag_leffler(a, bad)

    @pytest.mark.parametrize("a", [0.5, 0.9, 1.0])
    def test_array_matches_scalar_calls(self, a):
        # every branch in one array: 0, series (both signs), asymptotic,
        # quadrature, far negative axis and +-inf
        s = np.array([0.0, 0.3, -0.7, 2.5, -2.9, 11.0, 13.0, 20.0,
                      -15.0, -200.0, -3e7, -math.inf, math.inf])
        with pytest.warns(RuntimeWarning):
            v = mittag_leffler(a, s)
        want = []
        for si in s:
            if si == math.inf:
                with pytest.warns(RuntimeWarning):
                    want.append(mittag_leffler(a, si))
            else:
                want.append(mittag_leffler(a, si))
        assert all(type(w) is float for w in want)
        np.testing.assert_allclose(v, want, rtol=1e-15, atol=0.0)
        grid = s[:12].reshape(3, 4)
        np.testing.assert_array_equal(mittag_leffler(a, grid), v[:12].reshape(3, 4))
        zero_d = mittag_leffler(a, np.array(-2.9))
        assert type(zero_d) is float and zero_d == v[4]

    def test_series_against_mpmath(self):
        # 40 points of (0, 12] on the series branch (peak term <= e^600,
        # which for alpha = 0.3 ends at s = 600^0.3 = 6.8); alpha = 0.3 near
        # that end needs the extended-precision log|s| of _series_partials
        mpmath = pytest.importorskip("mpmath")
        for a in (0.3, 0.5, 0.7, 0.9):
            s_hi = min(12.0, 600.0**a)
            s = np.linspace(s_hi / 40, s_hi, 40)
            want = []
            with mpmath.workdps(40):  # positive terms: no cancellation to size the precision for
                k_peak = s_hi ** (1.0 / a) / a
                rg = [mpmath.rgamma(mpmath.mpf(a) * k + 1) for k in range(int(2 * k_peak) + 400)]
                for si in s:
                    z, zk, total = mpmath.mpf(si), mpmath.mpf(1), mpmath.mpf(0)
                    for k, r in enumerate(rg):
                        term = zk * r
                        total += term
                        if k > k_peak and term < 1e-30 * total:
                            break
                        zk *= z
                    else:
                        raise AssertionError("reference series did not converge")
                    want.append(float(total))
            np.testing.assert_allclose(_ml_series(a, s), want, rtol=1e-13, atol=0.0)


def _scipy_loaded_after(code: str) -> list[str]:
    """The scipy modules loaded once ``code`` has run in a fresh interpreter."""
    code += "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


_TIME_AXIS_RUN = """
import fraxolve
from fraxolve import build_graded, builtin, long_time_check, mittag_leffler, solve_resolvent, solve_scalar
mesh = build_graded(200, 1.0, 3.0)
solve_scalar(builtin("allen_cahn", alpha=0.5), 0.5, mesh, 0.5)
solve_resolvent(mesh, 0.5, 1.0, [1.0] * mesh.M)
long_time_check(0.5, 1.0, 2.0, tau=0.25, T=10.0)
mittag_leffler(0.5, [2.0, 20.0, -2e6])  # the series, the positive and the far negative expansion
"""


def test_time_axis_run_loads_no_scipy():
    assert _scipy_loaded_after(_TIME_AXIS_RUN) == []


def test_first_spatial_operator_loads_scipy_sparse():
    # the converse, so the test above cannot pass for want of a working probe
    loaded = _scipy_loaded_after(_TIME_AXIS_RUN + """
from fraxolve import BoundarySpec, CoefficientField, Grid, assemble
assemble(Grid(1, 8, 1.0), CoefficientField(a=(1.0,)), 0.0, BoundarySpec.dirichlet0(1))
""")
    assert "scipy.sparse" in loaded
    assert "scipy.integrate" not in loaded


def _solve_pde_run(d: int, N: int, a: list, bc: str, f: str, u0: str) -> str:
    """Code for a fresh interpreter: one two-level solve_pde of a parsed config."""
    doc = {"mesh": {"M": 2, "T": 1.0}, "grid": {"d": d, "N": N},
           "problem": {"alpha": 0.5, "f": {"kind": f}, "u0": u0,
                       "coefficients": {"a": a}, "bc": {"all": bc}}}
    return f"""
from fraxolve.config import parse_config
from fraxolve.pde import solve_pde
rc = parse_config({json.dumps(doc)!r})
solve_pde(rc.problem, rc.mesh, rc.grid, rc.solver)
"""


def _run_2d(N: int, a: str = "1") -> str:
    return _solve_pde_run(2, N, [a, "1"], "dirichlet0", "allen_cahn", "0.5*sin(x)*sin(y)")


def _subpackages(loaded: list[str]) -> set[str]:
    """The public scipy subpackages among ``loaded`` (scipy.sparse.linalg counts as sparse)."""
    names = {m.split(".")[1] for m in loaded if "." in m}
    return {n for n in names if not n.startswith("_")} - {"version"}


def test_1d_periodic_solve_loads_scipy_sparse_and_linalg():
    # assemble's CSR and the tridiagonal dgtsv; no transform and no SuperLU
    loaded = _scipy_loaded_after(_solve_pde_run(1, 16, ["1"], "periodic", "fisher", "0.5 + 0.3*cos(2*x)"))
    assert _subpackages(loaded) == {"sparse", "linalg"}
    assert "scipy.sparse.linalg" not in loaded


@pytest.mark.parametrize("N", [16, 128])
def test_2d_dense_basis_solve_loads_scipy_sparse_only(N):
    # the fast inverse's sine bases are built in numpy and applied by GEMMs
    loaded = _scipy_loaded_after(_run_2d(N))
    assert _subpackages(loaded) == {"sparse"}
    assert "scipy.sparse.linalg" not in loaded


def test_superlu_and_transform_solves_load_their_modules():
    # the converses, so the two tests above cannot pass for want of a working probe
    assert "scipy.sparse.linalg" in _scipy_loaded_after(_run_2d(16, a="1 + 0.5*x"))
    assert "scipy.fft" in _scipy_loaded_after(_run_2d(130))


def test_negative_axis_quadrature_loads_scipy_integrate():
    assert "scipy.integrate" in _scipy_loaded_after(
        "from fraxolve import mittag_leffler\nmittag_leffler(0.5, -50.0)"
    )
