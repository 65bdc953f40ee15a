import math

import numpy as np
import pytest
from scipy.integrate import quad

from fraxolve import caputo
from fraxolve.caputo import apply_delta, history_load, l1_weights, march
from fraxolve.mesh import TemporalMesh, build_graded
from fraxolve.special import gamma
from reference import EPS, dot_bound, mpmath_weights


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

    def test_rounded_increment_floored_at_zero(self):
        # here d_2 - d_1 = kappa_{132,1} rounds to -2.2e-16; the floor at zero
        # on the increments keeps every weight nonnegative
        w = l1_weights(build_graded(256, 1.0, 8.0), 0.1, 132)
        assert np.all(w.kappa >= 0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, math.nan])
    def test_alpha_outside_unit_interval_raises(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            l1_weights(build_graded(4, 1.0, 1.0), alpha, 2)


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
            # F^m is summed in another order than the whole-row product
            assert np.all(np.abs(F - w.kappa[:m] @ U[:m]) <= dot_bound(w.kappa[:m], U[:m]))
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
        # same nodes.  Exactly, every weight is positive and kappa_{m,m} is the
        # sum of the others.  d_1 = kappa_{m,0} and d_m = kappa_{m,m} come out to full
        # relative precision; kappa_{m,j} = d_{j+1} - d_j inherits the rounding
        # of d_{j+1} (kappa_{38,1} ~ 2e-5 d_2 here), so it is held to that.
        mpmath = pytest.importorskip("mpmath")
        mesh, alpha = build_graded(40, 1.0, 3.0), 0.3
        eps = np.finfo(float).eps
        with mpmath.workdps(40):
            for m in range(1, mesh.M + 1):
                want, d = mpmath_weights(mesh, alpha, m)
                assert min(want) > 0 and abs(mpmath.fsum(want[:m]) - want[m]) <= 1e-35 * want[m]
                got = l1_weights(mesh, alpha, m).kappa
                for j in (0, m):
                    assert abs(got[j] - want[j]) <= 1e-12 * want[j]
                for j in range(1, m):
                    assert abs(got[j] - want[j]) <= 1e-12 * want[j] + 4 * eps * d[j]
                assert got[:m].sum() == pytest.approx(got[m], rel=1e-12)

    @pytest.mark.parametrize("shape", [(), (9,)])
    def test_matches_weights_row_by_row(self, shape):
        # the caller writes U[m] between levels; F^m is the whole-row product
        # up to the rounding of another summation order
        rng = np.random.default_rng(7)
        mesh = build_graded(24, 1.0, 2.5)
        U = np.empty((25,) + shape)
        U[0] = rng.standard_normal(shape)
        levels = []
        for m, kmm, F in march(mesh, 0.4, U):
            w = l1_weights(mesh, 0.4, m)
            assert kmm == w.diag
            assert np.all(np.abs(F - w.kappa[:m] @ U[:m]) <= dot_bound(w.kappa[:m], U[:m]))
            U[m] = rng.standard_normal(shape)
            levels.append(m)
        assert levels == list(range(1, 25))

    def test_constant_history_gives_diag(self):
        # row-sum identity at every level: F^m of ones == kappa_{m,m}, exactly
        # since a scalar history is differenced and every difference is zero
        mesh = build_graded(40, 1.0, 3.0)
        for m, kmm, F in march(mesh, 0.7, np.ones(41)):
            assert F == kmm


class TestDifferencedHistory:
    """A history narrower than a block (n < B) enters F^m through its scaled
    differences w_j and the unscaled increments d~_{m,j}, not through kappa."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_history_sum_against_mpmath(self, seed):
        # F^m at 40 digits on the same nodes and values.  Scale: S_m =
        # sum_{j=1..m} d_{m,j} |U^{j-1}|, the increments against the values they
        # first multiply.  Measured worst over both seeds: 1.11 eps S_m
        # (differenced) and 0.93 eps S_m (kappa rows); both must meet one bound
        mpmath = pytest.importorskip("mpmath")
        M, alpha = 120, 0.4
        mesh = build_graded(M, 1.0, 3.0)
        rng = np.random.default_rng(seed)
        U = rng.uniform(-1.0, 1.0, M + 1) * np.exp(rng.uniform(-3.0, 3.0, M + 1))
        assert caputo._block_rows(M, 1) > 1  # the differenced path
        with mpmath.workdps(40):
            u = [mpmath.mpf(float(x)) for x in U]
            for m, kmm, F in march(mesh, alpha, U):
                d = mpmath_weights(mesh, alpha, m)[1]
                exact = d[m - 1] * u[m - 1] - mpmath.fsum(d[j - 1] * (u[j] - u[j - 1]) for j in range(1, m))
                bound = 2 * EPS * float(mpmath.fsum(d[j] * abs(u[j]) for j in range(m)))
                kappa_form = l1_weights(mesh, alpha, m).kappa[:m] @ U[:m]
                assert abs(float(F) - exact) <= bound
                assert abs(float(kappa_form) - exact) <= bound

    @pytest.mark.parametrize("shape", [(1,), (3,)])
    def test_constant_history_gives_diag_exactly(self, shape):
        # every difference is an exact zero, so F^m = kappa_{m,m} c to the bit
        M = 40
        assert math.prod(shape) < caputo._block_rows(M, math.prod(shape))
        mesh = build_graded(M, 1.0, 3.0)
        for m, kmm, F in march(mesh, 0.7, np.full((M + 1,) + shape, 0.3)):
            assert np.all(F == kmm * 0.3)
            assert kmm == l1_weights(mesh, 0.7, m).diag

    @pytest.mark.parametrize("shape", [(1,), (3,)])
    def test_caller_may_overwrite_the_yielded_sum(self, shape):
        # F^m is the caller's: scribbling on it must not reach the differences
        # or the settled sums that later levels read
        rng = np.random.default_rng(5)
        M = 30
        mesh = build_graded(M, 1.0, 2.0)
        U = np.empty((M + 1,) + shape)
        U[0] = rng.standard_normal(shape)
        for m, kmm, F in march(mesh, 0.5, U):
            w = l1_weights(mesh, 0.5, m)
            assert np.all(np.abs(F - w.kappa[:m] @ U[:m]) <= dot_bound(w.kappa[:m], U[:m]))
            F[...] = np.nan
            U[m] = rng.standard_normal(shape)


PANEL_B = 4  # block size pinned by TestPanel, so block edges sit at known levels


class TestPanel:
    """march fills the weights a block of levels at a time; every level's weights
    must still be the ones l1_weights gives, bit for bit, at every block edge."""

    @pytest.fixture(params=["one-slab", "column-slabs", "level-slabs"])
    def pinned(self, request, monkeypatch):
        monkeypatch.setattr(caputo, "_block_rows", lambda M, n: min(M, PANEL_B))
        if request.param == "column-slabs":  # a few history columns, or levels, a slab
            monkeypatch.setattr(caputo, "_SLAB_MADDS", 50)
        elif request.param == "level-slabs":  # one column, or one level, a slab
            monkeypatch.setattr(caputo, "_SLAB_MADDS", PANEL_B)

    @pytest.mark.parametrize("M", [1, 2, PANEL_B - 1, PANEL_B, PANEL_B + 1, 3 * PANEL_B + 2])
    @pytest.mark.parametrize("r", [1.0, 2.5, 3.0])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_kappa_rows_bitwise(self, pinned, alpha, r, M):
        # with U = I every product is kappa_{m,j} * 1 and every sum adds exact
        # zeros, so F^m is the panel's kappa row exactly
        mesh = build_graded(M, 1.0, r)
        U = np.eye(M + 1)
        levels = []
        for m, kmm, F in march(mesh, alpha, U):
            w = l1_weights(mesh, alpha, m)
            assert kmm == w.diag
            assert np.array_equal(F[:m], w.kappa[:m])
            assert not F[m:].any()
            levels.append(m)
        assert levels == list(range(1, M + 1))

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_kappa_rows_bitwise_at_budget_size(self, alpha):
        # the block size march picks itself: several blocks and a short last one
        M = 203
        B = caputo._block_rows(M, M + 1)
        assert 1 < B and M % B != 0 and M // B >= 3
        mesh = build_graded(M, 1.0, 3.0)
        for m, kmm, F in march(mesh, alpha, np.eye(M + 1)):
            w = l1_weights(mesh, alpha, m)
            assert kmm == w.diag
            assert np.array_equal(F[:m], w.kappa[:m])

    # n = 1 and n = B - 1 take the differenced path, n = B and wider the kappa panel;
    # a history of rank 3 is rejected at the first level
    @pytest.mark.parametrize("shape", [(), (1,), (PANEL_B - 1,), (PANEL_B,), (5,), (3, 4)])
    def test_history_shapes(self, pinned, shape):
        rng = np.random.default_rng(17)
        M = 3 * PANEL_B + 2
        mesh = build_graded(M, 1.0, 2.5)
        U = np.empty((M + 1,) + shape)
        U[0] = rng.standard_normal(shape)
        if len(shape) > 1:
            with pytest.raises(ValueError, match=r"history must be \(M\+1,\) or \(M\+1, n\)"):
                next(march(mesh, 0.5, U))
            return
        for m, kmm, F in march(mesh, 0.5, U):
            w = l1_weights(mesh, 0.5, m)
            assert kmm == w.diag
            assert np.shape(F) == shape
            want = np.tensordot(w.kappa[:m], U[:m], axes=1)
            assert np.all(np.abs(F - want) <= dot_bound(w.kappa[:m], U[:m]))
            U[m] = rng.standard_normal(shape)

    @pytest.mark.parametrize("shape, wide", [
        ((), False), ((1,), False), ((PANEL_B - 1,), False), ((PANEL_B,), True), ((12,), True),
    ])
    def test_only_wide_histories_difference_the_panel(self, pinned, monkeypatch, shape, wide):
        calls, real = [], caputo._l1_kappa
        monkeypatch.setattr(caputo, "_l1_kappa", lambda *a: calls.append(a[0].shape) or real(*a))
        M = 3 * PANEL_B + 2
        for _ in march(build_graded(M, 1.0, 2.5), 0.5, np.zeros((M + 1,) + shape)):
            pass
        assert len(calls) == (-(-M // PANEL_B) if wide else 0)

    @pytest.mark.parametrize("M, n", [
        (1, 1), (3, 1), (2000, 256), (2000, 257), (8000, 1), (300, 512), (64, 127**2), (128, 257**2),
    ])
    def test_block_rows_within_an_eighth_of_the_history(self, M, n):
        # the count whose work arrays take an eighth of the history is B's
        # floor; B passes it only at isqrt(M) levels or fewer, whose work
        # arrays take at most half the history
        B = caputo._block_rows(M, n)
        assert min(M, 8) <= B <= M
        assert B >= min(M, (M + 1) * n // (8 * (2 * M + n)))
        if B > max(8, (M + 1) * n // (8 * (2 * M + n))):
            assert B <= math.isqrt(M)
            assert 2 * B * (2 * M + n) <= (M + 1) * n
        if M == 2000 and n > 1:  # march1d: isqrt(2000) levels, where an eighth gives 15
            assert B == 44


def column_slab_sums(K, H, G):
    """The settled sums in column slabs whatever the shape: _settled_sums must
    match it bit for bit wherever its level slabs do not run or are one product."""
    if H.ndim == 1:
        H, G = H[:, None], G[:, None]
    cols = max(1, caputo._SLAB_MADDS // K.size)
    for c in range(0, H.shape[1], cols):
        np.matmul(K, H[:, c : c + cols], out=G[:, c : c + cols])


SPLIT_MADDS = 60  # _SLAB_MADDS for TestSettledSums, so most shapes below run several slabs
SPLIT_SHAPES = {  # (B, k, n): n = None is a 1D (scalar) history
    "k>n": (5, 37, 6),  # 2 levels a slab, 19 slabs
    "k<=n": (5, 7, 23),  # 1 column a slab, 23 slabs
    "1D": (5, 37, None),  # 12 levels a slab, 4 slabs
    "k<rows": (5, 3, 2),  # a slab would hold 6 levels: one slab
}


def _split_operands(B, k, n, seed=3):
    rng = np.random.default_rng(seed)
    K = rng.random((B, k + 4))[:, 2 : k + 2]  # a strided view, as march passes its panel
    H = rng.standard_normal((k,) if n is None else (k, n))
    return K, H, np.empty((B,) if n is None else (B, n))


class TestSettledSums:
    """_settled_sums cuts G = K @ H along the longer of H's dimensions."""

    @pytest.mark.parametrize("case", SPLIT_SHAPES)
    def test_within_dot_bound_of_one_product(self, monkeypatch, case):
        monkeypatch.setattr(caputo, "_SLAB_MADDS", SPLIT_MADDS)
        K, H, G = _split_operands(*SPLIT_SHAPES[case])
        caputo._settled_sums(K, H, G)
        for b in range(K.shape[0]):
            assert np.all(np.abs(G[b] - K[b] @ H) <= dot_bound(K[b], H))

    @pytest.mark.parametrize("case", SPLIT_SHAPES)
    def test_products_stay_within_the_slab_budget(self, monkeypatch, case):
        monkeypatch.setattr(caputo, "_SLAB_MADDS", SPLIT_MADDS)
        B, k, n = SPLIT_SHAPES[case]
        madds, matmul = [], np.matmul

        def spy(a, b, *args, **kwargs):
            madds.append(a.shape[0] * a.shape[1] * (b.shape[1] if b.ndim == 2 else 1))
            return matmul(a, b, *args, **kwargs)

        K, H, G = _split_operands(B, k, n)
        monkeypatch.setattr(np, "matmul", spy)
        caputo._settled_sums(K, H, G)
        assert max(madds) <= SPLIT_MADDS
        # every multiply-add of K @ H is done exactly once
        assert sum(madds) == B * k * (n or 1)

    @pytest.mark.parametrize("B, k, n, madds", [
        (5, 7, 23, SPLIT_MADDS),  # k <= n: column slabs, as before
        (15, 250, 257, 10**6),  # k <= n, several column slabs
        (44, 250, 257, 10**6),  # an early march1d block: k <= n
        (15, 1900, 1, 10**6),  # a scalar history: one product
        (8, 7993, None, 10**6),  # the last block of an M = 8000 scalar march, 1D
    ])
    def test_bitwise_equal_to_column_slabs_where_levels_do_not_split(self, monkeypatch, B, k, n, madds):
        monkeypatch.setattr(caputo, "_SLAB_MADDS", madds)
        K, H, G = _split_operands(B, k, n)
        want = np.empty_like(G)
        column_slab_sums(K, H, want)
        caputo._settled_sums(K, H, G)
        assert np.array_equal(G, want)

    def test_level_slabs_read_each_level_once(self, monkeypatch):
        # march1d's late-block shape: one product of 88 levels a slab, against
        # the 23 column slabs that would each read all of K
        B, k, n = 44, 1900, 257
        calls, matmul = [], np.matmul

        def spy(a, b, *args, **kwargs):
            calls.append((a.shape, b.shape))
            return matmul(a, b, *args, **kwargs)

        K, H, G = _split_operands(B, k, n)
        monkeypatch.setattr(np, "matmul", spy)
        caputo._settled_sums(K, H, G)
        rows = 10**6 // (B * n)
        assert calls == [((B, min(rows, k - r)), (min(rows, k - r), n)) for r in range(0, k, rows)]

    def test_march1d_products_stay_within_the_slab_budget(self, monkeypatch):
        # every settled-sum product of a march1d-shaped march stays at or below
        # _SLAB_MADDS multiply-adds, so unpinned BLAS keeps it on the calling thread
        M, n = 2000, 257
        B = caputo._block_rows(M, n)
        madds, matmul = [], np.matmul

        def spy(a, b, *args, **kwargs):
            madds.append(a.shape[0] * a.shape[1] * b.shape[1])
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        for m, kmm, F in march(build_graded(M, 1.0, 2.0), 0.4, np.zeros((M + 1, n))):
            pass
        assert m == M and B == 44
        assert max(madds) <= caputo._SLAB_MADDS
        # every block's product over the history settled before it, whole
        assert sum(madds) == sum(min(B, M + 1 - m0) * m0 * n for m0 in range(1, M + 1, B))


def kappa_panel_march(mesh, alpha, U):
    """march as it ran before histories narrower than a block were differenced:
    the one-kernel weight panel and the kappa product for every history.  Wide
    histories must still give its kappa_{m,m} and F^m bit for bit."""
    M = mesh.M
    hist = U if U.ndim <= 2 else U.reshape(M + 1, -1)
    n = hist[0].size
    tau = mesh.steps
    tau_g = tau * gamma(2.0 - alpha)
    beta = 1.0 - alpha
    lift = tau.min()
    B = caputo._block_rows(M, n)
    d, k, G = np.empty(B * M), np.empty(B * M), np.empty((B,) + hist.shape[1:])
    for m0 in range(1, M + 1, B):
        nb = min(B, M + 1 - m0)
        W = m0 + nb - 1
        hi, z = d[: nb * W].reshape(nb, W), k[: nb * W].reshape(nb, W)
        np.subtract(mesh.nodes[m0 : m0 + nb, None], mesh.nodes[1 : W + 1], out=hi)
        square = hi[:, m0 - 1 :]
        np.maximum(square, lift, out=square)
        np.divide(tau[:W], hi, out=z)
        np.log1p(z, out=z)
        np.multiply(z, beta, out=z)
        np.expm1(z, out=z)
        np.power(hi, beta, out=hi)
        np.multiply(hi, z, out=hi)
        np.power(tau[m0 - 1 : W], beta, out=hi.reshape(-1)[m0 - 1 :: W + 1])
        np.divide(hi, tau_g[:W], out=hi)
        flat_d, flat_k = d[: nb * W], k[: nb * W]
        np.subtract(flat_d[1:], flat_d[:-1], out=flat_k[1:])
        np.maximum(flat_k[1:], 0.0, out=flat_k[1:])
        z[:, 0] = hi[:, 0]
        caputo._settled_sums(z[:, :m0], hist[:m0], G[:nb])
        for b in range(nb):
            m = m0 + b
            F = z[b, m0:m] @ hist[m0:m]
            F += G[b]
            yield m, float(hi[b, m - 1]), F if hist is U else F.reshape(U.shape[1:])


class TestWideHistory:
    """Histories of at least a block's width keep the kappa panel: the kernel split
    leaves their weights and sums unchanged to the bit."""

    @pytest.mark.parametrize("alpha, r", [(0.4, 2.0), (0.5, 1.0), (0.8, 3.0)])
    def test_march1d_shape_bitwise_equal_to_kappa_panel_march(self, alpha, r):
        # 257 values a level, as the 1D periodic benchmark march; 22 levels a
        # block and, at the default slab budget, up to three level slabs in late blocks
        M, n = 500, 257
        assert n >= caputo._block_rows(M, n)
        mesh = build_graded(M, 1.0, r)
        rng = np.random.default_rng(23)
        U = np.empty((M + 1, n))
        U[0] = rng.standard_normal(n)
        for (m, kmm, F), (m_old, kmm_old, F_old) in zip(march(mesh, alpha, U), kappa_panel_march(mesh, alpha, U)):
            assert (m, kmm) == (m_old, kmm_old)
            assert np.array_equal(F, F_old)
            U[m] = rng.standard_normal(n)
        assert m == M

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_weights_bitwise_equal_to_the_one_kernel(self, alpha):
        mesh = build_graded(60, 1.0, 3.0)
        for m, kmm, F in kappa_panel_march(mesh, alpha, np.eye(61)):
            w = l1_weights(mesh, alpha, m)
            assert kmm == w.diag
            assert np.array_equal(F[:m], w.kappa[:m])
