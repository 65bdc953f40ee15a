import math
from dataclasses import dataclass

import numpy as np
import pytest

from fraxolve.caputo import apply_delta, l1_weights, march
from fraxolve.mesh import TemporalMesh, build_graded
from fraxolve.special import gamma
from fraxolve.stability import (
    envelope_ratio,
    envelope_values,
    long_time_check,
    solve_resolvent,
)


class TestResolvent:
    def test_inverse_composition(self):
        # applying the operator to the resolvent output recovers the data
        mesh = build_graded(24, 1.0, 2.0)
        rng = np.random.default_rng(1)
        g = rng.standard_normal(24)
        lam = 0.5
        V = solve_resolvent(mesh, 0.5, lam, g)
        for m in range(1, 25):
            lhs = apply_delta(mesh, 0.5, V[: m + 1]) - lam * V[m]
            assert lhs == pytest.approx(g[m - 1], rel=1e-10, abs=1e-12)

    def test_first_level_closed_form(self):
        # V^1 = g^1 / kappa_{1,1} = g^1 tau_1^alpha Gamma(2-alpha) when lam=0
        mesh = build_graded(8, 1.0, 2.0)
        alpha = 0.6
        g = np.zeros(8)
        g[0] = 3.0
        V = solve_resolvent(mesh, alpha, 0.0, g)
        tau1 = mesh.nodes[1]
        assert V[1] == pytest.approx(3.0 * tau1**alpha * gamma(2 - alpha), rel=1e-13)

    def test_linearity(self):
        mesh = build_graded(16, 1.0, 1.0)
        rng = np.random.default_rng(2)
        g1, g2 = rng.standard_normal(16), rng.standard_normal(16)
        V1 = solve_resolvent(mesh, 0.4, 0.3, g1)
        V2 = solve_resolvent(mesh, 0.4, 0.3, g2)
        V12 = solve_resolvent(mesh, 0.4, 0.3, 2.0 * g1 - 0.5 * g2)
        np.testing.assert_allclose(V12, 2.0 * V1 - 0.5 * V2, rtol=1e-11, atol=1e-13)

    def test_comparison_principle_random_pairs(self):
        # g <= h (componentwise) implies V_g <= V_h: all kappa and pivots > 0
        rng = np.random.default_rng(7)
        for _ in range(20):
            M = int(rng.integers(5, 40))
            r = float(rng.uniform(1.0, 3.0))
            alpha = float(rng.uniform(0.2, 0.8))
            mesh = build_graded(M, 1.0, r)
            g = rng.uniform(-1.0, 1.0, M)
            h = g + rng.uniform(0.0, 1.0, M)
            lam = float(rng.uniform(0.0, 0.5))
            Vg = solve_resolvent(mesh, alpha, lam, g)
            Vh = solve_resolvent(mesh, alpha, lam, h)
            assert np.all(Vg <= Vh + 1e-12)

    def test_pivot_failure_raises(self):
        # lambda too large for the coarse step: kappa_11 - lam <= 0
        mesh = build_graded(2, 1.0, 1.0)
        alpha = 0.5
        kappa11 = 0.5 ** (-alpha) / gamma(2 - alpha)
        with pytest.raises(ValueError):
            solve_resolvent(mesh, alpha, kappa11 + 1.0, np.ones(2))

    def test_wrong_data_length(self):
        mesh = build_graded(4, 1.0, 1.0)
        with pytest.raises(ValueError):
            solve_resolvent(mesh, 0.5, 0.0, np.ones(5))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.5, math.nan])
    def test_alpha_outside_unit_interval_raises(self, alpha):
        # the L1 weights hold for 0 < alpha < 1 only; alpha = 1.5 used to return a profile
        with pytest.raises(ValueError, match="alpha"):
            solve_resolvent(build_graded(10, 1.0, 1.0), alpha, 1.0, np.ones(10))


class TestEnvelopeValues:
    def test_three_branches(self):
        mesh = build_graded(8, 1.0, 2.0)
        t = mesh.nodes[1:]
        tau = mesh.tau
        alpha = 0.5
        np.testing.assert_allclose(
            envelope_values(mesh, alpha, 0.5), tau * t ** (alpha - 1), rtol=1e-13
        )
        np.testing.assert_allclose(
            envelope_values(mesh, alpha, 0.0),
            tau * t ** (alpha - 1) * (1 + np.log(t / tau)),
            rtol=1e-13,
        )
        np.testing.assert_allclose(
            envelope_values(mesh, alpha, -0.25),
            tau * t ** (alpha - 1) * (tau / t) ** -0.25,
            rtol=1e-13,
        )


class TestEnvelopeRatio:
    def test_gating(self):
        # lam > 0 with gamma = 0 is outside the theorem
        mesh = build_graded(16, 1.0, 1.0)
        with pytest.raises(ValueError):
            envelope_ratio(mesh, 0.5, 1.0, 0.0)
        rep = envelope_ratio(mesh, 0.5, 1.0, 0.0, enforce_gate=False)
        assert not rep.gated

    def test_grading_gate(self):
        # gamma > alpha-1 needs 1 <= r <= (2-alpha)/alpha
        alpha = 0.5
        mesh = build_graded(16, 1.0, 4.0)  # r=4 > (2-0.5)/0.5 = 3
        with pytest.raises(ValueError):
            envelope_ratio(mesh, alpha, 0.0, 0.2)
        # gamma <= alpha-1 passes on any quasi-graded mesh
        rep = envelope_ratio(mesh, alpha, 0.0, alpha - 1.0 - 0.1)
        assert rep.gated

    def test_ratio_bounded_under_doubling(self):
        # the defining property: max ratio stays O(1) as M doubles
        alpha, lam, gam = 0.5, 0.5, -0.2
        prev = None
        for M in (32, 64, 128, 256):
            mesh = build_graded(M, 1.0, 2.0)
            rep = envelope_ratio(mesh, alpha, lam, gam)
            assert np.isfinite(rep.max_ratio)
            if prev is not None:
                # pre-asymptotic growth decays: 6.8% at 32->64, ~3% at 128->256
                assert rep.max_ratio <= prev * 1.10
            prev = rep.max_ratio

    def test_report_fields(self):
        mesh = build_graded(8, 1.0, 1.0)
        rep = envelope_ratio(mesh, 0.4, 0.0, -0.3)
        assert rep.M == 8
        assert rep.profile.shape == (8,)
        assert rep.max_ratio == pytest.approx(float(rep.profile.max()))


# The piecewise-linear barrier of the stability proof, built and checked
# numerically.  Only these tests use it, so it lives here.

_BARRIER_TOL = 1e-10  # relative slack of (delta_t^alpha - lambda) B >= 0 before t_anchor + c0


@dataclass(frozen=True)
class BarrierB:
    kinks: np.ndarray  # q_0..q_K (mesh points)
    cbar: float
    values: np.ndarray
    delta_values: np.ndarray  # (delta_t^alpha - lambda) B^j, j = 1..M
    c_pos: float
    verified: bool


def _barrier_values(mesh: TemporalMesh, kinks: np.ndarray, cbar: float) -> np.ndarray:
    t = mesh.nodes
    B = np.zeros_like(t)
    for k, q in enumerate(kinks):
        B += cbar**k * np.maximum(0.0, t - q)
    return B


def build_barrier(
    mesh: TemporalMesh,
    alpha: float,
    lam: float,
    c0: float,
    anchor_index: int = 0,
) -> BarrierB:
    """Piecewise-linear barrier B with kinks on mesh points.

    B^j = 0 up to the anchor node, 0 <= B^j bounded, and
    (delta_t^alpha - lambda) B^j >= 0 before t_anchor + c0 and >= c_pos > 0
    after.  The growth base cbar is found by doubling search (the theory
    only asserts "sufficiently large").
    """
    if lam > 0:
        c0_max = 0.5 * (lam * gamma(2.0 - alpha)) ** (-1.0 / alpha)
        if not c0 < c0_max:
            raise ValueError(f"need c0 < {c0_max:.6g} for lambda = {lam}")
    tau_bar = float(mesh.steps.max())
    if tau_bar > 0.5 * c0:
        raise ValueError(f"need max step {tau_bar:.4g} <= c0/2 = {0.5 * c0:.4g}")
    if not 0 <= anchor_index <= mesh.M:
        raise ValueError("anchor index out of range")

    t_anchor = float(mesh.nodes[anchor_index])
    span = mesh.T - t_anchor
    if c0 >= span:
        K = 0
    else:
        K = max(0, math.ceil(span / c0) - 2)
    kinks = [t_anchor]
    for k in range(1, K + 1):
        window = (mesh.nodes >= t_anchor + c0 * k - tau_bar) & (
            mesh.nodes <= t_anchor + c0 * k
        )
        if not np.any(window):
            raise ValueError(f"no mesh point in the kink window for k = {k}")
        kinks.append(float(mesh.nodes[np.nonzero(window)[0][-1]]))
    kinks = np.asarray(kinks)

    def verify(c: float):
        B = _barrier_values(mesh, kinks, c)
        dB = np.array([float(kmm * B[m] - F) - lam * B[m] for m, kmm, F in march(mesh, alpha, B)])
        t = mesh.nodes[1:]
        scale = max(1.0, float(np.abs(B).max()))
        early = t < t_anchor + c0
        ok_early = bool(np.all(dB[early] >= -_BARRIER_TOL * scale)) if early.any() else True
        late = ~early
        c_pos = float(dB[late].min()) if late.any() else math.inf
        ok_late = c_pos > 0 if late.any() else True
        return B, dB, c_pos, ok_early and ok_late

    c = 2.0
    while c <= 2.0**20:
        B, dB, c_pos, ok = verify(c)
        if ok:
            return BarrierB(kinks, c, B, dB, c_pos, True)
        c *= 2.0
    return BarrierB(kinks, c / 2.0, B, dB, c_pos, False)


class TestBarrier:
    def test_single_kink_exact_lam_zero(self):
        # c0 >= span: B(t) = max(0, t - t_anchor) = t, and with lam = 0
        # (delta^alpha t)^j = t_j^{1-alpha}/Gamma(2-alpha) > 0 exactly
        mesh = build_graded(16, 1.0, 1.0)
        bar = build_barrier(mesh, 0.5, 0.0, c0=1.5)
        assert bar.verified
        assert bar.kinks.shape == (1,)
        np.testing.assert_allclose(bar.values, mesh.nodes, rtol=1e-13)
        t = mesh.nodes[1:]
        want = t ** 0.5 / gamma(1.5)
        np.testing.assert_allclose(bar.delta_values, want, rtol=1e-10)

    def test_multi_kink_with_positive_lambda(self):
        alpha, lam = 0.5, 1.0
        c0 = 0.2  # well below c0_max ~ 0.637, forces several kinks
        mesh = build_graded(256, 1.0, 1.0)
        bar = build_barrier(mesh, alpha, lam, c0=c0)
        assert bar.verified
        assert bar.c_pos > 0
        assert len(bar.kinks) >= 2
        # barrier vanishes up to the anchor and is nondecreasing
        assert bar.values[0] == 0.0
        assert np.all(np.diff(bar.values) >= 0)

    def test_anchor_offset(self):
        mesh = build_graded(128, 1.0, 1.0)
        bar = build_barrier(mesh, 0.4, 0.0, c0=0.3, anchor_index=32)
        assert bar.verified
        t_anchor = mesh.nodes[32]
        assert np.all(bar.values[: 33] == 0.0)
        assert bar.kinks[0] == t_anchor

    def test_delta_values_match_apply_delta(self):
        alpha, lam = 0.5, 1.0
        mesh = build_graded(128, 1.0, 1.0)
        bar = build_barrier(mesh, alpha, lam, c0=0.2)
        B = bar.values
        want = [apply_delta(mesh, alpha, B[: m + 1]) - lam * B[m] for m in range(1, 129)]
        # each side sums the m + 2 terms kappa_mm B^m, -kappa_{m,j} B^j (j < m) and
        # -lam B^m in its own order, so they differ by at most 2 gamma_{m+2} times
        # the sum of the terms' magnitudes
        eps = np.finfo(float).eps
        for m in range(1, 129):
            k = l1_weights(mesh, alpha, m).kappa
            gam = (m + 2) * eps / (1 - (m + 2) * eps)
            terms = (k[m] + abs(lam)) * abs(B[m]) + np.abs(k[:m]) @ np.abs(B[:m])
            assert abs(bar.delta_values[m - 1] - want[m - 1]) <= 2 * gam * terms

    def test_c0_precondition(self):
        alpha, lam = 0.5, 1.0
        c0_max = 0.5 * (lam * gamma(2 - alpha)) ** (-1 / alpha)
        mesh = build_graded(64, 1.0, 1.0)
        with pytest.raises(ValueError):
            build_barrier(mesh, alpha, lam, c0=1.1 * c0_max)

    def test_step_precondition(self):
        # max step must be <= c0/2
        mesh = build_graded(4, 1.0, 1.0)  # steps 0.25
        with pytest.raises(ValueError):
            build_barrier(mesh, 0.5, 0.0, c0=0.3)


class TestLongTime:
    def test_stable_zero_lambda(self):
        rep = long_time_check(0.5, 0.0, 0.5, tau=0.25, T=50.0)
        assert rep.stable
        assert rep.sup_ratio <= rep.sup_ratio_half * 1.05

    def test_stable_positive_lambda(self):
        rep = long_time_check(0.5, 0.5, 0.75, tau=0.25, T=50.0)
        assert rep.stable

    def test_lambda_prime_validation(self):
        with pytest.raises(ValueError):
            long_time_check(0.5, 1.0, 1.0, tau=0.1)

    @pytest.mark.parametrize("tau, T, M", [(1.0, 1.0, 1), (2.5, 1.0, 0), (0.7, 1.0, 1)])
    def test_fewer_than_two_levels_raise_a_named_error(self, tau, T, M):
        msg = rf"tau = {tau:g} and T = {T:g} give round\(T / tau\) = {M} levels; need at least 2"
        with pytest.raises(ValueError, match=msg):
            long_time_check(0.5, 0.0, 0.5, tau=tau, T=T)

    def test_horizon_is_a_whole_number_of_steps(self):
        # round(1 / 0.4) = 2 steps: the report's T is 0.8, not 1
        rep = long_time_check(0.5, 0.0, 0.5, tau=0.4, T=1.0)
        assert rep.T == pytest.approx(0.8, abs=1e-15)
        assert rep.ratios.size == 2
