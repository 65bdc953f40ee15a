import math

import numpy as np
import pytest

from fraxolve.mesh import (
    FracParams,
    TemporalMesh,
    build_graded,
    check_step_restriction,
    verify_quasi_graded,
)


class TestBuildGraded:
    def test_quadratic_grading_small(self):
        mesh = build_graded(4, 1.0, 2.0)
        np.testing.assert_allclose(mesh.nodes, [0.0, 0.0625, 0.25, 0.5625, 1.0],
                                   rtol=0, atol=1e-15)

    def test_endpoints_exact(self):
        for M, T, r in [(7, 3.5, 1.0), (100, 1.0, 2.7), (33, 50.0, 4.0)]:
            mesh = build_graded(M, T, r)
            assert mesh.nodes[0] == 0.0
            assert mesh.nodes[-1] == T
            assert mesh.M == M

    def test_uniform_when_r_one(self):
        mesh = build_graded(10, 2.0, 1.0)
        np.testing.assert_allclose(mesh.tau, 0.2, rtol=1e-14)

    def test_strictly_increasing(self):
        mesh = build_graded(200, 1.0, 3.4)
        assert np.all(np.diff(mesh.nodes) > 0)

    def test_consecutive_node_growth_bound(self):
        # t_j <= 2^r t_{j-1} for j >= 2 on a graded mesh
        for r in (1.0, 2.0, 3.0, 4.5):
            mesh = build_graded(64, 1.0, r)
            t = mesh.nodes
            assert np.all(t[2:] <= 2.0 ** r * t[1:-1] * (1 + 1e-14))

    def test_step_ratio_bounded_by_r(self):
        # tau_{j+1}/tau_j <= r... verified numerically: ratio decreases to 1
        for r in (1.5, 2.0, 3.0):
            mesh = build_graded(128, 1.0, r)
            ratios = mesh.steps[1:] / mesh.steps[:-1]
            assert np.all(ratios <= 2.0 ** r)
            assert np.all(np.diff(ratios) < 1e-12)  # ratios decrease toward 1

    def test_nesting_under_doubling(self):
        coarse = build_graded(16, 1.0, 2.5)
        fine = build_graded(32, 1.0, 2.5)
        np.testing.assert_allclose(fine.nodes[::2], coarse.nodes, rtol=1e-14)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_graded(0, 1.0, 2.0)
        with pytest.raises(ValueError):
            build_graded(4, -1.0, 2.0)
        with pytest.raises(ValueError):
            build_graded(4, 1.0, 0.5)


class TestTemporalMesh:
    def test_validation(self):
        with pytest.raises(ValueError):
            TemporalMesh(np.array([0.1, 0.5, 1.0]))  # must start at 0
        with pytest.raises(ValueError):
            TemporalMesh(np.array([0.0, 0.5, 0.5, 1.0]))  # strictly increasing

    def test_properties(self):
        mesh = TemporalMesh(np.array([0.0, 0.25, 1.0]))
        assert mesh.M == 2
        assert mesh.T == 1.0
        np.testing.assert_allclose(mesh.steps, [0.25, 0.75])
        assert mesh.tau == 0.25  # tau denotes the first step t_1


class TestQuasiGraded:
    def test_quadratic_example(self):
        mesh = build_graded(4, 1.0, 2.0)
        rep = verify_quasi_graded(mesh, 2.0)
        assert rep.max_ratio == pytest.approx(1.75, rel=1e-12)
        assert rep.c_qg == 3.0
        assert rep.passed

    def test_graded_meshes_pass_for_their_r(self):
        for r in (1.0, 1.5, 2.0, 3.0, (2 - 0.3) / 0.3):
            for M in (8, 64, 512):
                mesh = build_graded(M, 1.0, r)
                rep = verify_quasi_graded(mesh, r)
                assert rep.passed, (r, M, rep.max_ratio)
                # for an exactly graded mesh the ratio is bounded by r itself
                assert rep.max_ratio <= r + 1e-12

    def test_uniform_mesh_ratio_one(self):
        mesh = build_graded(32, 1.0, 1.0)
        rep = verify_quasi_graded(mesh, 1.0)
        assert rep.max_ratio == pytest.approx(1.0, rel=1e-12)

    def test_non_graded_mesh_fails(self):
        # tiny first step followed by a large jump: tau_2 / tau^{1/r} t_2^{1-1/r}
        # blows up, so the mesh is not quasi-graded for r=1
        nodes = np.array([0.0, 1e-6, 0.5, 1.0])
        rep = verify_quasi_graded(TemporalMesh(nodes), 1.0)
        assert not rep.passed
        assert rep.max_ratio > 1e5


class TestStepRestriction:
    def test_frozen_example(self):
        # alpha=0.5, lambda=2, M=4, T=1, r=1: lhs = 2 * 0.25^0.5 = 1.0
        mesh = build_graded(4, 1.0, 1.0)
        rep = check_step_restriction(mesh, FracParams(0.5, 2.0))
        assert rep.lhs == pytest.approx(1.0, rel=1e-14)
        assert rep.rhs == pytest.approx(1.0 / math.gamma(1.5), rel=1e-14)
        assert rep.passed

    def test_violation_detected(self):
        # alpha=0.5, lambda=2, tau=0.347... -> lhs = 1.179 > 1.1284
        mesh = TemporalMesh(np.array([0.0, 0.3475]))
        rep = check_step_restriction(mesh, FracParams(0.5, 2.0))
        assert rep.lhs == pytest.approx(2 * math.sqrt(0.3475), rel=1e-12)
        assert rep.lhs > rep.rhs
        assert not rep.passed

    def test_worst_step_is_last_on_graded(self):
        mesh = build_graded(16, 1.0, 2.0)
        rep = check_step_restriction(mesh, FracParams(0.4, 1.0))
        assert rep.worst_j == 16

    def test_strict_mode(self):
        # exact equality case: tau = 0.25, alpha = 0.5, lambda = 2/Gamma(1.5)
        # gives lhs == rhs bit-for-bit (scaling by powers of two is exact),
        # provided lambda is built from the same Gamma the checker uses
        from fraxolve.special import gamma

        mesh = TemporalMesh(np.array([0.0, 0.25]))
        lam = 2.0 / gamma(1.5)
        assert check_step_restriction(mesh, FracParams(0.5, lam)).passed
        assert not check_step_restriction(mesh, FracParams(0.5, lam),
                                          strict=True).passed

    def test_lambda_zero_always_passes(self):
        mesh = build_graded(2, 100.0, 1.0)
        assert check_step_restriction(mesh, FracParams(0.9, 0.0)).passed
        assert check_step_restriction(mesh, FracParams(0.9, 0.0), strict=True).passed

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            FracParams(0.9, -3.0)
