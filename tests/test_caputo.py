import math

import numpy as np
import pytest
from scipy.integrate import quad

from fraxolve.caputo import apply_delta, history_load, l1_weights, march
from fraxolve.mesh import TemporalMesh, build_graded
from fraxolve.special import gamma


def caputo_quadrature_oracle(fn, dfn, alpha, t):
    """Direct quadrature of the Caputo derivative of a smooth function."""
    val, err = quad(lambda s: dfn(s) * (t - s) ** (-alpha), 0.0, t,
                    points=[t], limit=200)
    return val / gamma(1 - alpha), err


class TestWeights:
    def test_uniform_m2_frozen(self):
        # tau=1, alpha=0.5: kappa_{2,0} = 2(sqrt(2)-1)/sqrt(pi),
        # kappa_{2,1} = (4-2 sqrt(2))/sqrt(pi), kappa_{2,2} = 2/sqrt(pi)
        mesh = TemporalMesh(np.array([0.0, 1.0, 2.0]))
        w = l1_weights(mesh, 0.5, 2)
        sp = math.sqrt(math.pi)
        assert w.kappa[0] == pytest.approx(2 * (math.sqrt(2) - 1) / sp, rel=1e-14)
        assert w.kappa[1] == pytest.approx((4 - 2 * math.sqrt(2)) / sp, rel=1e-14)
        assert w.diag == pytest.approx(2 / sp, rel=1e-14)

    def test_m1_diagonal(self):
        mesh = build_graded(8, 1.0, 2.0)
        for alpha in (0.3, 0.5, 0.7):
            w = l1_weights(mesh, alpha, 1)
            want = mesh.steps[0] ** (-alpha) / gamma(2 - alpha)
            assert w.diag == pytest.approx(want, rel=1e-14)
            assert w.kappa[0] == pytest.approx(want, rel=1e-14)

    def test_row_sum_identity(self):
        # kappa_{m,m} == sum_{j<m} kappa_{m,j} (telescoping)
        rng = np.random.default_rng(3)
        for _ in range(20):
            nodes = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, 25))])
            mesh = TemporalMesh(nodes)
            alpha = rng.uniform(0.05, 0.95)
            m = int(rng.integers(1, 26))
            w = l1_weights(mesh, alpha, m)
            assert w.kappa[:m].sum() == pytest.approx(w.diag, rel=1e-12)

    def test_positivity_random_meshes(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            nodes = np.concatenate([[0.0], np.cumsum(rng.uniform(1e-4, 1.0, 30))])
            mesh = TemporalMesh(nodes)
            alpha = rng.uniform(0.05, 0.95)
            for m in (1, 5, 30):
                w = l1_weights(mesh, alpha, m)
                assert np.all(w.kappa[: m + 1] > 0)

    def test_diag_formula(self):
        mesh = build_graded(32, 2.0, 3.0)
        for m in (1, 7, 32):
            w = l1_weights(mesh, 0.6, m)
            want = mesh.steps[m - 1] ** (-0.6) / gamma(1.4)
            assert w.diag == pytest.approx(want, rel=1e-13)

    def test_extreme_step_disparity(self):
        # strongly graded mesh at large m exercises the cancellation-safe branch
        mesh = build_graded(4096, 1.0, 5.0)
        w = l1_weights(mesh, 0.3, 4096)
        assert np.all(np.isfinite(w.kappa))
        # adjacent kernel increments can agree to all 53 bits far from t_m,
        # so individual weights may round to exactly zero -- never negative
        assert np.all(w.kappa >= 0)
        assert w.diag > 0
        assert w.kappa[:-1].sum() == pytest.approx(w.diag, rel=1e-11)


class TestApplyDelta:
    def test_exact_on_linear(self):
        # delta^alpha (a + b t) = b t^{1-alpha} / Gamma(2-alpha), exactly
        for r in (1.0, 2.0, 3.0):
            mesh = build_graded(40, 1.5, r)
            for alpha in (0.3, 0.5, 0.7):
                vals = 2.5 - 1.3 * mesh.nodes
                got = apply_delta(mesh, alpha, vals)
                want = -1.3 * mesh.T ** (1 - alpha) / gamma(2 - alpha)
                assert got == pytest.approx(want, rel=1e-12)

    def test_constant_maps_to_zero(self):
        mesh = build_graded(16, 1.0, 2.0)
        assert apply_delta(mesh, 0.5, np.full(17, 3.7)) == pytest.approx(0.0, abs=1e-12)

    def test_against_quadrature_oracle(self):
        # smooth test functions, fine mesh, modest tolerance (the L1 scheme is
        # only ~O(tau^{2-alpha}) accurate)
        cases = [
            (lambda t: t ** 2, lambda t: 2 * t),
            (lambda t: np.sin(t), lambda t: np.cos(t)),
            (lambda t: np.exp(-t), lambda t: -np.exp(-t)),
        ]
        # the discretization error itself is ~M^{-(2-alpha)}; budget 3x that
        mesh = build_graded(512, 1.0, 2.0)
        for alpha in (0.3, 0.7):
            tol = 3.0 * 512.0 ** -(2.0 - alpha)
            for fn, dfn in cases:
                got = apply_delta(mesh, alpha, fn(mesh.nodes))
                want, quad_err = caputo_quadrature_oracle(fn, dfn, alpha, mesh.T)
                assert got == pytest.approx(want, rel=tol, abs=1e-6)

    def test_quadrature_oracle_power_function(self):
        # oracle self-check: Caputo derivative of t^2 is known in closed form
        alpha = 0.4
        want = 2.0 / gamma(3 - alpha) * 1.0 ** (2 - alpha)
        got, _ = caputo_quadrature_oracle(lambda t: t ** 2, lambda t: 2 * t, alpha, 1.0)
        assert got == pytest.approx(want, rel=1e-9)

    def test_convergence_on_smooth_data(self):
        # error at t=T halves at rate about 2-alpha under M-doubling
        alpha = 0.5
        errs = []
        for M in (64, 128, 256):
            mesh = build_graded(M, 1.0, 1.0)
            got = apply_delta(mesh, alpha, mesh.nodes ** 2)
            want = 2.0 / gamma(3 - alpha)
            errs.append(abs(got - want))
        rate1 = math.log2(errs[0] / errs[1])
        rate2 = math.log2(errs[1] / errs[2])
        assert rate1 == pytest.approx(2 - alpha, abs=0.15)
        assert rate2 == pytest.approx(2 - alpha, abs=0.15)


class TestHistoryLoad:
    def test_matches_direct_sum(self):
        rng = np.random.default_rng(5)
        mesh = build_graded(20, 1.0, 2.0)
        hist = rng.standard_normal((21, 9))
        m = 13
        w = l1_weights(mesh, 0.5, m)
        got = history_load(w, hist[:m])
        want = sum(w.kappa[j] * hist[j] for j in range(m))
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_scalar_history(self):
        mesh = build_graded(10, 1.0, 1.0)
        w = l1_weights(mesh, 0.5, 4)
        hist = np.arange(4.0)
        got = history_load(w, hist)
        assert got == pytest.approx(float(np.dot(w.kappa[:4], hist)), rel=1e-14)

    def test_constant_history_gives_diag(self):
        # row-sum identity seen through the load: F^m of ones == kappa_{m,m}
        mesh = build_graded(30, 1.0, 3.0)
        w = l1_weights(mesh, 0.7, 30)
        got = history_load(w, np.ones(30))
        assert got == pytest.approx(w.diag, rel=1e-12)


MARCH_MESHES = {
    "uniform": lambda: build_graded(30, 1.0, 1.0),
    "graded": lambda: build_graded(30, 1.0, 3.0),
    "hand-built": lambda: TemporalMesh(np.array([0.0, 0.01, 0.05, 0.051, 0.3, 0.31, 1.0, 2.5])),
    "M=1": lambda: build_graded(1, 1.0, 3.0),
    "M=2": lambda: build_graded(2, 1.0, 3.0),
}


class TestMarch:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])  # 0.5: numpy's sqrt path for **0.5
    @pytest.mark.parametrize("mesh_name", MARCH_MESHES)
    def test_bitwise_equal_to_weights(self, mesh_name, alpha):
        mesh = MARCH_MESHES[mesh_name]()
        rng = np.random.default_rng(13)
        U = np.empty((mesh.M + 1, 5))
        U[0] = rng.standard_normal(5)
        for m, kmm, F in march(mesh, alpha, U):
            w = l1_weights(mesh, alpha, m)
            assert kmm == w.diag
            assert np.array_equal(F, w.kappa[:m] @ U[:m])
            U[m] = rng.standard_normal(5)

    def test_yielded_history_sum_is_not_a_reused_buffer(self):
        mesh = build_graded(12, 1.0, 2.0)
        U = np.ones((13, 4))
        levels = march(mesh, 0.3, U)
        _, _, held = next(levels)
        kept = held.copy()
        for m, _, F in levels:
            U[m] = 2.0 * m
            assert not np.shares_memory(F, held)
        assert np.array_equal(held, kept)

    def test_weights_against_mpmath(self):
        # independent of the shared kernel: the L1 formula at 40 digits on the
        # same nodes.  d_1 = kappa_{m,0} and d_m = kappa_{m,m} come out to full
        # relative precision; kappa_{m,j} = d_{j+1} - d_j inherits the rounding
        # of d_{j+1} (kappa_{38,1} ~ 2e-5 d_2 here), so it is held to that.
        mpmath = pytest.importorskip("mpmath")
        mesh, alpha = build_graded(40, 1.0, 3.0), 0.3
        eps = np.finfo(float).eps
        with mpmath.workdps(40):
            t = [mpmath.mpf(float(x)) for x in mesh.nodes]
            beta = 1 - mpmath.mpf(alpha)
            g = mpmath.gamma(2 - mpmath.mpf(alpha))
            for m in range(1, mesh.M + 1):
                d = [((t[m] - t[j - 1]) ** beta - (t[m] - t[j]) ** beta) / ((t[j] - t[j - 1]) * g)
                     for j in range(1, m + 1)]
                want = [d[0]] + [d[j] - d[j - 1] for j in range(1, m)] + [d[m - 1]]
                got = l1_weights(mesh, alpha, m).kappa
                for j in (0, m):
                    assert abs(got[j] - want[j]) <= 1e-12 * want[j]
                for j in range(1, m):
                    assert abs(got[j] - want[j]) <= 1e-12 * want[j] + 4 * eps * d[j]

    @pytest.mark.parametrize("shape", [(), (9,)])
    def test_matches_weights_row_by_row(self, shape):
        # the caller writes U[m] between levels; F^m is the whole-row product
        rng = np.random.default_rng(7)
        mesh = build_graded(24, 1.0, 2.5)
        U = np.empty((25,) + shape)
        U[0] = rng.standard_normal(shape)
        levels = []
        for m, kmm, F in march(mesh, 0.4, U):
            w = l1_weights(mesh, 0.4, m)
            assert kmm == w.diag
            assert np.array_equal(F, w.kappa[:m] @ U[:m])
            U[m] = rng.standard_normal(shape)
            levels.append(m)
        assert levels == list(range(1, 25))

    def test_constant_history_gives_diag(self):
        # row-sum identity at every level: F^m of ones == kappa_{m,m}
        mesh = build_graded(40, 1.0, 3.0)
        for m, kmm, F in march(mesh, 0.7, np.ones(41)):
            assert F == pytest.approx(kmm, rel=1e-12)
