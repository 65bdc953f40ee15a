import dataclasses
import math
import warnings

import numpy as np
import pytest

from fraxolve.caputo import l1_weights
from fraxolve.mesh import build_graded
from fraxolve.nonlinearity import Nonlinearity, builtin
from fraxolve.scalar import (
    NonconvergenceError,
    SolverConfig,
    StepRestrictionWarning,
    error_envelope,
    range_check,
    solve_scalar,
)
from fraxolve.special import mittag_leffler


class TestSolveScalar:
    def test_zero_reaction_is_constant(self):
        f = builtin("linear", cstar=0.0)
        mesh = build_graded(16, 1.0, 2.0)
        traj = solve_scalar(f, 0.7, mesh, 0.5)
        np.testing.assert_allclose(traj.values, 0.7, rtol=1e-12)

    def test_linear_against_mittag_leffler(self):
        # D^alpha u + u = 0, u(0)=1 has u(t) = E_alpha(-t^alpha); the graded
        # L1 solution converges to it under M-doubling
        f = builtin("linear", cstar=1.0)
        alpha = 0.5
        errs = []
        for M in (32, 64, 128):
            mesh = build_graded(M, 1.0, (2 - alpha) / alpha)
            traj = solve_scalar(f, 1.0, mesh, alpha)
            exact = mittag_leffler(alpha, -mesh.nodes**alpha)
            errs.append(float(np.abs(traj.values - exact).max()))
        assert errs[0] < 5e-3
        rate1 = math.log2(errs[0] / errs[1])
        rate2 = math.log2(errs[1] / errs[2])
        # optimal grading gives nearly 2 - alpha
        assert rate1 == pytest.approx(2 - alpha, abs=0.25)
        assert rate2 == pytest.approx(2 - alpha, abs=0.25)

    def test_e_half_minus_one_value(self):
        # u(1) -> E_{1/2}(-1) = e erfc(1) ~ 0.427584
        f = builtin("linear", cstar=1.0)
        mesh = build_graded(512, 1.0, 3.0)
        traj = solve_scalar(f, 1.0, mesh, 0.5)
        assert traj.values[-1] == pytest.approx(math.e * math.erfc(1.0), abs=2e-5)

    def test_allen_cahn_range_preserved(self):
        alpha = 0.5
        f = builtin("allen_cahn", alpha=alpha)
        for u0 in (-0.9, -0.2, 0.0, 0.4, 1.0):
            mesh = build_graded(64, 1.0, 2.0)
            traj = solve_scalar(f, u0, mesh, alpha)
            assert range_check(traj.values, -1.0, 1.0, 1e-12) is True

    def test_fisher_range_preserved(self):
        f = builtin("fisher")
        mesh = build_graded(64, 1.0, 2.0)
        for u0 in (0.0, 0.3, 1.0):
            traj = solve_scalar(f, u0, mesh, 0.7)
            assert range_check(traj.values, 0.0, 1.0, 1e-12)

    def test_equilibria_are_fixed(self):
        alpha = 0.4
        f = builtin("allen_cahn", alpha=alpha)
        mesh = build_graded(32, 1.0, 2.0)
        for u0 in (-1.0, 0.0, 1.0):
            traj = solve_scalar(f, u0, mesh, alpha)
            np.testing.assert_allclose(traj.values, u0, atol=1e-11)

    def test_restriction_warning(self):
        # the global one-sided constant 1/a of the cubic trips the restriction
        # on a coarse mesh even though the actual solve stays well-behaved
        f = builtin("allen_cahn", alpha=0.1)  # lam = 10
        mesh = build_graded(4, 1.0, 1.0)
        with pytest.warns(StepRestrictionWarning, match=r" > .*worst j = 1\)"):
            traj = solve_scalar(f, 0.5, mesh, 0.5)
        assert np.all(np.isfinite(traj.values))

    def test_strict_restriction_raises(self):
        # escalating the warning stops the run before its first level
        f = builtin("allen_cahn", alpha=0.1)
        mesh = build_graded(4, 1.0, 1.0)
        with warnings.catch_warnings(), pytest.raises(StepRestrictionWarning, match=r" > .*worst j = 1\)"):
            warnings.simplefilter("error", StepRestrictionWarning)
            solve_scalar(f, 0.5, mesh, 0.5)

    def test_non_finite_reaction_names_level_and_reason(self):
        f = Nonlinearity(eval=lambda x, t, s: np.nan * np.asarray(s), lam=0.0)
        with pytest.raises(NonconvergenceError, match="non-finite") as exc:
            solve_scalar(f, 0.5, build_graded(8, 1.0, 1.0), 0.5)
        assert exc.value.level == 1

    def test_newton_step_cap_raises_at_the_first_level(self):
        f = builtin("allen_cahn", alpha=0.5)
        with pytest.raises(NonconvergenceError) as exc:
            solve_scalar(f, 0.9, build_graded(16, 1.0, 2.0), 0.5, SolverConfig(max_newton=1))
        assert exc.value.level == 1

    def test_newton_iteration_counts(self):
        f = builtin("allen_cahn", alpha=0.5)
        mesh = build_graded(32, 1.0, 2.0)
        traj = solve_scalar(f, 0.4, mesh, 0.5)
        assert len(traj.newton_iters) == 32
        assert max(traj.newton_iters) <= 10

    def test_monotone_comparison_of_initial_data(self):
        # comparison principle: u0 <= v0 implies U^m <= V^m for all m
        alpha = 0.6
        f = builtin("allen_cahn", alpha=alpha)
        mesh = build_graded(48, 1.0, 2.0)
        prev = None
        for u0 in np.linspace(-1.0, 1.0, 9):
            traj = solve_scalar(f, float(u0), mesh, alpha)
            if prev is not None:
                assert np.all(traj.values >= prev - 1e-10)
            prev = traj.values


class TestLevelSolve:
    """The per-level Newton loop: one reaction evaluation per step, bounds from its own iterates."""

    @staticmethod
    def _counted(f):
        calls = []

        def eval_(x, t, s):
            calls.append(s)
            return f.eval(x, t, s)

        return dataclasses.replace(f, eval=eval_), calls

    @pytest.mark.parametrize(
        "f, cfg, after_loop",
        [
            (builtin("allen_cahn", alpha=0.5), None, 0),
            # max_newton=1: each level's one Newton step is exact and accepted after the loop
            (builtin("linear", cstar=1.0, F=0.5), SolverConfig(max_newton=1), 500),
        ],
        ids=["allen_cahn", "after_loop"],
    )
    def test_one_reaction_evaluation_per_step(self, f, cfg, after_loop):
        f, calls = self._counted(f)
        traj = solve_scalar(f, 0.3, build_graded(500, 1.0, 3.0), 0.5, cfg)
        assert len(calls) == sum(traj.newton_iters) + after_loop

    def test_bisection_without_derivative_matches_newton(self):
        f = builtin("allen_cahn", alpha=0.5)
        mesh = build_graded(64, 1.0, 2.0)
        newton = solve_scalar(f, 0.3, mesh, 0.5)
        bisect = solve_scalar(dataclasses.replace(f, deriv_s=None), 0.3, mesh, 0.5)
        np.testing.assert_allclose(bisect.values, newton.values, rtol=0, atol=1e-10)
        assert sum(bisect.newton_iters) > sum(newton.newton_iters)

    def test_doubling_reaches_a_far_root(self):
        # a derivative below -kappa_mm gives no Newton step, so the first level
        # steps 1, 2, ..., 64 down from 500 to bracket its root near 381, then
        # bisects: 120 unit steps would exceed max_newton
        f = builtin("linear", cstar=1.0)
        mesh = build_graded(8, 1.0, 1.0)
        newton = solve_scalar(f, 500.0, mesh, 0.5)
        assert newton.values[1] < 381.0
        no_slope = dataclasses.replace(f, deriv_s=lambda x, t, s: np.full(np.shape(s), -1e6))
        doubled = solve_scalar(no_slope, 500.0, mesh, 0.5)
        np.testing.assert_allclose(doubled.values, newton.values, rtol=1e-11, atol=0)

    @pytest.mark.parametrize("u0", [50.0, 1e6])
    def test_secant_step_without_derivative(self, u0):
        # without deriv_s the secant slope of a linear g is exact: after the
        # slope-less first step one secant step lands on the root (bisection
        # alone took up to 37 steps from 50 and 49 from 1e6)
        f = builtin("linear", cstar=1.0)
        mesh = build_graded(64, 1.0, 2.0)
        newton = solve_scalar(f, u0, mesh, 0.5)
        secant = solve_scalar(dataclasses.replace(f, deriv_s=None), u0, mesh, 0.5)
        assert max(secant.newton_iters) <= 5
        np.testing.assert_allclose(secant.values, newton.values, rtol=1e-11, atol=1e-11)

    def test_allen_cahn_without_derivative_from_a_far_start(self):
        # bisection alone ran out of max_newton = 50 steps at level 1
        f = builtin("allen_cahn", alpha=0.5)
        mesh = build_graded(64, 1.0, 2.0)
        newton = solve_scalar(f, 1000.0, mesh, 0.5)
        secant = solve_scalar(dataclasses.replace(f, deriv_s=None), 1000.0, mesh, 0.5)
        np.testing.assert_allclose(secant.values, newton.values, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("u0, newton_steps, secant_steps", [
        (1e6, 18, 25), (1e8, 22, 31), (1e10, 26, 37),
    ])
    def test_allen_cahn_without_derivative_from_very_far_starts(self, u0, newton_steps, secant_steps):
        # plain steps on a convex stretch leave a fixed fraction of the distance
        # to a far root each: the secant 3/4 (36, 47 and 58 > max_newton = 50
        # steps at level 1), Newton 2/3 (25, 33 and 40).  Doubled while a side of
        # the bracket is open, each path takes these steps
        f = builtin("allen_cahn", alpha=0.5)
        mesh = build_graded(64, 1.0, 2.0)
        newton = solve_scalar(f, u0, mesh, 0.5)
        assert newton.newton_iters[0] == max(newton.newton_iters) == newton_steps
        secant = solve_scalar(dataclasses.replace(f, deriv_s=None), u0, mesh, 0.5)
        assert secant.newton_iters[0] == max(secant.newton_iters) == secant_steps
        np.testing.assert_allclose(secant.values, newton.values, rtol=1e-12, atol=1e-10)

    @pytest.mark.parametrize("u0, newton_steps", [(1e14, 34), (1e16, 38), (1e20, 46)])
    def test_allen_cahn_newton_from_farther_starts(self, u0, newton_steps):
        # plain Newton needed more than max_newton = 50 steps at level 1 from
        # 1e14 on; doubled, each factor 100 in the start costs 2 more steps
        f = builtin("allen_cahn", alpha=0.5)
        mesh = build_graded(64, 1.0, 2.0)
        newton = solve_scalar(f, u0, mesh, 0.5)
        assert newton.newton_iters[0] == max(newton.newton_iters) == newton_steps
        kmm, u1 = l1_weights(mesh, 0.5, 1).diag, newton.values[1]
        assert abs(kmm * (u1 - u0) + float(f.eval(None, mesh.nodes[1], u1))) <= 1e-12 * kmm * u0

    def test_secant_step_near_the_root_is_not_stretched(self):
        # on a linear g the first secant step lands on the root up to rounding,
        # and a step after it is far below a quarter of it: doubled, it would
        # overshoot and cost a fifth step at some levels
        f = dataclasses.replace(builtin("linear", cstar=1.0), deriv_s=None)
        secant = solve_scalar(f, 1e6, build_graded(64, 1.0, 2.0), 0.5)
        assert max(secant.newton_iters) <= 4

    def test_newton_overshoot_is_bisected(self):
        # g = kmm U + 100 atan(U) - F is arctan-like: plain Newton from U = 10
        # jumps to -59 and then to 143, past the iterate at 10 that bounds the root
        f = Nonlinearity(
            eval=lambda x, t, s: 100.0 * np.arctan(s),
            deriv_s=lambda x, t, s: 100.0 / (1.0 + np.asarray(s) ** 2),
            lam=0.0,
        )
        mesh = build_graded(1, 1.0, 1.0)
        traj = solve_scalar(f, 10.0, mesh, 0.5)
        kmm = 1.0 / math.gamma(1.5)  # tau = 1
        u = traj.values[1]
        assert abs(kmm * (u - 10.0) + 100.0 * math.atan(u)) <= 1e-12 * kmm * 10.0

    def test_decreasing_map_raises_at_the_first_level(self):
        # cstar = -50 < -kappa_mm: g is strictly decreasing, the loop never brackets a root
        f = builtin("linear", cstar=-50.0)
        with pytest.warns(StepRestrictionWarning), pytest.raises(NonconvergenceError) as exc:
            solve_scalar(f, 1.0, build_graded(4, 1.0, 1.0), 0.5)
        assert exc.value.level == 1


class TestTheoryRates:
    """D^alpha u + u = 0, u(0) = 1: u = E_alpha(-t^alpha) against error_envelope."""

    ALPHA = 0.5
    MS = (128, 256, 512)

    def _errors(self, r, log_variant=False):
        f = builtin("linear", cstar=1.0)
        final, ratios = [], []
        for M in self.MS:
            mesh = build_graded(M, 1.0, r)
            traj = solve_scalar(f, 1.0, mesh, self.ALPHA)
            exact = mittag_leffler(self.ALPHA, -mesh.nodes**self.ALPHA)
            err = np.abs(traj.values - exact)[1:]
            final.append(err[-1])
            env = error_envelope(mesh, self.ALPHA, r, log_variant=log_variant)
            ratios.append(float(np.max(err / env)))
        return np.array(final), np.array(ratios)

    @pytest.mark.parametrize("r", [1.0, 3.0])
    def test_rate_and_envelope_below_and_above_critical(self, r):
        final, ratios = self._errors(r)
        # error_envelope's exponent: min(r, 2 - alpha)
        for rate in np.log2(final[:-1] / final[1:]):
            assert rate == pytest.approx(min(r, 2.0 - self.ALPHA), abs=0.05)
        assert np.all(ratios[1:] < 1.1 * ratios[:-1])

    def test_envelope_at_critical_grading(self):
        _, ratios = self._errors(2.0 - self.ALPHA, log_variant=True)
        assert np.all(ratios[1:] < 1.1 * ratios[:-1])


class TestRangeCheck:
    def test_slack(self):
        mesh = build_graded(2, 1.0, 1.0)
        traj_vals = np.array([0.0, 1.0 + 5e-13, 0.5])
        from fraxolve.scalar import ScalarTrajectory

        traj = ScalarTrajectory(mesh=mesh, values=traj_vals)
        assert range_check(traj.values, 0.0, 1.0, 1e-12)  # the scalar CLI's slack covers it
        assert not range_check(traj.values, 0.0, 1.0, 1e-14)


class TestErrorEnvelope:
    def test_subcritical_branch(self):
        # r < 2 - alpha: E^m = M^{-r} t_m^{alpha-1}
        mesh = build_graded(32, 1.0, 1.0)
        env = error_envelope(mesh, 0.3, 1.0)
        t = mesh.nodes[1:]
        np.testing.assert_allclose(env, 32.0**-1.0 * t ** (0.3 - 1.0), rtol=1e-13)
        # frozen value at t = T: 32^{-1} * 1 = 0.03125
        assert env[-1] == pytest.approx(0.03125, rel=1e-13)

    def test_supercritical_branch(self):
        # r > 2 - alpha: E^m = M^{alpha-2} t_m^{alpha-(2-alpha)/r}
        alpha, r = 0.3, 2.0
        mesh = build_graded(32, 1.0, r)
        env = error_envelope(mesh, alpha, r)
        t = mesh.nodes[1:]
        want = 32.0 ** (alpha - 2.0) * t ** (alpha - (2 - alpha) / r)
        np.testing.assert_allclose(env, want, rtol=1e-13)
        # at t = T the envelope is M^{alpha-2} = 32^{-1.7}
        assert env[-1] == pytest.approx(32.0**-1.7, rel=1e-13)

    def test_critical_branch_eps(self):
        alpha = 0.5
        r = 2.0 - alpha
        mesh = build_graded(16, 1.0, r)
        env = error_envelope(mesh, alpha, r, eps=0.01)
        t = mesh.nodes[1:]
        want = 16.0 ** (-r * 0.99) * t ** (alpha - 0.99)
        np.testing.assert_allclose(env, want, rtol=1e-13)

    def test_critical_branch_log_variant(self):
        alpha = 0.5
        r = 2.0 - alpha
        mesh = build_graded(16, 1.0, r)
        env = error_envelope(mesh, alpha, r, log_variant=True)
        t = mesh.nodes[1:]
        want = 16.0 ** (alpha - 2.0) * t ** (alpha - 1.0) * (1 + np.log(t / mesh.tau))
        np.testing.assert_allclose(env, want, rtol=1e-13)

    def test_envelope_positive(self):
        for alpha, r in [(0.3, 1.0), (0.5, 1.5), (0.7, 3.0)]:
            mesh = build_graded(64, 1.0, r)
            env = error_envelope(mesh, alpha, r)
            assert np.all(env > 0)
            assert np.all(np.isfinite(env))

    def test_subcritical_envelope_decreasing(self):
        # for r < 2-alpha the time power alpha-1 is negative
        mesh = build_graded(64, 1.0, 1.0)
        env = error_envelope(mesh, 0.3, 1.0)
        assert np.all(np.diff(env) < 0)

    def test_invalid_args(self):
        mesh = build_graded(8, 1.0, 1.0)
        with pytest.raises(ValueError):
            error_envelope(mesh, 0.5, 0.5)
        with pytest.raises(ValueError):
            error_envelope(mesh, 0.5, 1.5, eps=2.0)
