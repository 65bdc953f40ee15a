import dataclasses
import math

import numpy as np
import pytest
from scipy.fft import dst
from scipy.sparse.linalg import eigsh

from fraxolve.spatial import (
    BoundaryCondition,
    BoundarySpec,
    CoefficientField,
    Grid,
    MaxPrincipleError,
    _DENSE_MAX_N,
    assemble,
    check_max_principle,
    fast_inverse,
)


def const(v):
    return lambda pts, t: np.full(pts.shape[0], v)


class TestGrid:
    def test_basic(self):
        g = Grid(2, 4, math.pi)
        assert g.h == pytest.approx(math.pi / 4)
        assert g.shape == (5, 5)
        assert g.n_nodes == 25
        pts = g.points()
        assert pts.shape == (25, 2)
        assert pts[0].tolist() == [0.0, 0.0]
        np.testing.assert_allclose(pts[-1], [math.pi, math.pi])

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(3, 4, 1.0)
        with pytest.raises(ValueError):
            Grid(1, 1, 1.0)
        with pytest.raises(ValueError):
            Grid(1, 4, -1.0)


class TestAssemble1D:
    def test_interior_row_frozen(self):
        # a=1, b=1, c=2, h=0.1: row is [-1/h^2 - 1/(2h), 2/h^2 + 2, -1/h^2 + 1/(2h)]
        # = [-105, 202, -95]
        grid = Grid(1, 10, 1.0)
        cf = CoefficientField(a=(1.0,), b=(1.0,), c=2.0)
        op = assemble(grid, cf, 0.0, BoundarySpec.dirichlet0(1))
        A = op.matrix.toarray()
        np.testing.assert_allclose(A[4, 3:6], [-105.0, 202.0, -95.0], rtol=1e-12)

    def test_robin_end_row_frozen(self):
        # a=1, mu=1, h=0.1 at the right face: ghost elimination gives
        # diagonal 2/h^2 + 2 mu/h = 220 and inner coefficient -2/h^2 = -200
        grid = Grid(1, 10, 1.0)
        bs = BoundarySpec(
            {
                "x-": BoundaryCondition("dirichlet", 0.0),
                "x+": BoundaryCondition("robin", 1.0),
            },
            1,
        )
        op = assemble(grid, CoefficientField(a=(1.0,)), 0.0, bs)
        A = op.matrix.toarray()
        np.testing.assert_allclose(A[-1, -2:], [-200.0, 220.0], rtol=1e-12)

    def test_robin_faces_sample_a_inside_the_domain(self):
        # at a Robin face the outer half-point value is 2 a(z) - a(z -/+ h/2):
        # a is never evaluated outside [0, X], and a linear a is reproduced
        grid = Grid(1, 10, 1.0)
        h = grid.h

        def a(pts, t):
            assert np.all((pts >= 0.0) & (pts <= grid.X))
            return 1.0 + pts[:, 0]

        bs = BoundarySpec({"x-": BoundaryCondition("robin", 2.0), "x+": BoundaryCondition("robin", 1.0)}, 1)
        A = assemble(grid, CoefficientField(a=(a,)), 0.0, bs).matrix.toarray()
        a_out = {0: 1.0 - h / 2, 10: 2.0 + h / 2}  # a(-h/2) and a(X + h/2)
        a_in = {0: 1.0 + h / 2, 10: 2.0 - h / 2}
        mu = {0: 2.0, 10: 1.0}
        for row, inner in ((0, 1), (10, 9)):
            # ghost elimination: the inner coefficient takes both half-point
            # values, the diagonal gains 2 h mu a_out / h^2
            want_diag = (a_out[row] + a_in[row]) / h**2 + 2.0 * mu[row] * a_out[row] / h
            np.testing.assert_allclose(A[row, [inner, row]], [-(a_out[row] + a_in[row]) / h**2, want_diag],
                                       rtol=1e-12)

    def test_robin_extrapolated_a_below_zero_fails_the_max_principle(self):
        # a = 0.01 + 10 x extrapolates to 0.02 - (0.01 + 5 h) < 0 at the x- face
        grid = Grid(1, 10, 1.0)
        bs = BoundarySpec({"x-": BoundaryCondition("robin", 1.0), "x+": BoundaryCondition("dirichlet", 0.0)}, 1)
        op = assemble(grid, CoefficientField(a=(lambda pts, t: 0.01 + 10.0 * pts[:, 0],)), 0.0, bs)
        with pytest.raises(MaxPrincipleError):
            check_max_principle(op, 1)

    def test_eigenvector_identity(self):
        # -u'' on (0, pi) with Dirichlet: sin(x) is an exact eigenvector of
        # the FD matrix with discrete eigenvalue (2 - 2 cos h)/h^2
        grid = Grid(1, 64, math.pi)
        op = assemble(grid, CoefficientField(a=(1.0,)), 0.0, BoundarySpec.dirichlet0(1))
        x = grid.points()[op.unknown_flat, 0]
        v = np.sin(x)
        lam = (2.0 - 2.0 * math.cos(grid.h)) / grid.h**2
        np.testing.assert_allclose(op.matrix @ v, lam * v, rtol=0, atol=1e-12)

    def test_second_order_constant_coefficients(self):
        # truncation error of -u'' + u' + u at u = sin(x) decays like h^2
        def exact_L(x):
            return np.sin(x) + np.cos(x) + np.sin(x)

        errs = []
        for N in (16, 32, 64):
            grid = Grid(1, N, math.pi)
            cf = CoefficientField(a=(1.0,), b=(1.0,), c=1.0)
            op = assemble(grid, cf, 0.0, BoundarySpec.dirichlet0(1))
            x = grid.points()[op.unknown_flat, 0]
            got = op.matrix @ np.sin(x) + op.data_vector(op.dirichlet_values(0.0))
            errs.append(float(np.max(np.abs(got - exact_L(x)))))
        assert math.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.1)
        assert math.log2(errs[1] / errs[2]) == pytest.approx(2.0, abs=0.1)

    def test_second_order_variable_diffusion(self):
        # a(x) = 1 + x/2: L u = -(a u')' with u = sin x has
        # L u = a sin x - a' cos x = (1 + x/2) sin x - cos(x)/2
        errs = []
        for N in (16, 32, 64):
            grid = Grid(1, N, math.pi)
            cf = CoefficientField(a=(lambda pts, t: 1.0 + pts[:, 0] / 2.0,))
            op = assemble(grid, cf, 0.0, BoundarySpec.dirichlet0(1))
            x = grid.points()[op.unknown_flat, 0]
            want = (1.0 + x / 2.0) * np.sin(x) - 0.5 * np.cos(x)
            got = op.matrix @ np.sin(x) + op.data_vector(op.dirichlet_values(0.0))
            errs.append(float(np.max(np.abs(got - want))))
        assert math.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.1)
        assert math.log2(errs[1] / errs[2]) == pytest.approx(2.0, abs=0.1)

    def test_dirichlet_data_vector(self):
        # u = x is in the FD kernel of -u''; boundary data must close the stencil
        grid = Grid(1, 8, 1.0)
        bs = BoundarySpec(
            {
                "x-": BoundaryCondition("dirichlet", 0.0),
                "x+": BoundaryCondition("dirichlet", 1.0),
            },
            1,
        )
        op = assemble(grid, CoefficientField(a=(1.0,)), 0.0, bs)
        x = grid.points()[op.unknown_flat, 0]
        res = op.matrix @ x + op.data_vector(op.dirichlet_values(0.0))
        np.testing.assert_allclose(res, 0.0, atol=1e-11)

    def test_periodic_constant_in_kernel(self):
        grid = Grid(1, 16, 1.0)
        op = assemble(grid, CoefficientField(a=(1.0,)), 0.0, BoundarySpec.all_periodic(1))
        n = op.matrix.shape[0]
        assert n == 16  # node N is a duplicate of node 0
        np.testing.assert_allclose(op.matrix @ np.ones(n), 0.0, atol=1e-12)

    def test_periodic_scatter_duplicates(self):
        grid = Grid(1, 8, 1.0)
        op = assemble(grid, CoefficientField(a=(1.0,)), 0.0, BoundarySpec.all_periodic(1))
        u = np.arange(8.0)
        full = op.scatter(u, op.dirichlet_values(0.0))
        assert full[8] == full[0]

    def test_periodic_n2_sums_both_neighbours_into_one_column(self):
        # N = 2: z + e and z - e wrap to the same node; its column holds the
        # sum of both weights, -a/h^2 +/- b/(2h), in which b cancels
        grid = Grid(1, 2, 1.0)  # h = 1/2: 2/h^2 = 8
        op = assemble(grid, CoefficientField(a=(1.0,), b=(1.0,)), 0.0, BoundarySpec.all_periodic(1))
        assert op.matrix.nnz == 4
        np.testing.assert_array_equal(op.matrix.toarray(), [[8.0, -8.0], [-8.0, 8.0]])
        assert op.dirichlet_coupling.shape == (2, 0)
        assert op.duplicate_partner.tolist() == [0]

    def test_robin_robin_n2_reflects_both_ghosts_onto_the_middle(self):
        # h = 1, a = b = 1: w+ = -1 + 1/2, w- = -1 - 1/2.  Each end row's
        # ghost joins the middle column (w+ + w- = -2) and adds -2 h mu w to
        # the diagonal with its own side's weight: 2 + 2 * 1 * 1.5 at x- (mu 1),
        # 2 + 2 * 0.5 * 0.5 at x+ (mu 1/2)
        grid = Grid(1, 2, 2.0)
        bs = BoundarySpec({"x-": BoundaryCondition("robin", 1.0), "x+": BoundaryCondition("robin", 0.5)}, 1)
        op = assemble(grid, CoefficientField(a=(1.0,), b=(1.0,)), 0.0, bs)
        assert op.matrix.nnz == 7
        np.testing.assert_array_equal(
            op.matrix.toarray(), [[5.0, -2.0, 0.0], [-1.5, 2.0, -0.5], [0.0, -2.0, 2.5]]
        )
        assert op.dirichlet_coupling.shape == (3, 0)


class TestAssemble2D:
    def test_five_point_laplacian_row(self):
        grid = Grid(2, 4, 1.0)
        op = assemble(grid, CoefficientField(a=(1.0, 1.0)), 0.0, BoundarySpec.dirichlet0(2))
        A = op.matrix.toarray()
        h2 = grid.h**2
        # 3x3 interior unknowns; center row has 4/h^2 diag and four -1/h^2
        center = 4  # middle of the 3x3 block
        assert A[center, center] == pytest.approx(4.0 / h2)
        off = np.delete(A[center], center)
        assert sorted(off)[:4] == pytest.approx([-1.0 / h2] * 4)
        assert np.sum(A[center] != 0.0) == 5

    def test_eigenvector_identity_2d(self):
        grid = Grid(2, 16, math.pi)
        op = assemble(grid, CoefficientField(a=(1.0, 1.0)), 0.0, BoundarySpec.dirichlet0(2))
        pts = grid.points()[op.unknown_flat]
        v = np.sin(pts[:, 0]) * np.sin(pts[:, 1])
        lam = 2.0 * (2.0 - 2.0 * math.cos(grid.h)) / grid.h**2
        np.testing.assert_allclose(op.matrix @ v, lam * v, rtol=0, atol=1e-11)

    def test_m_matrix_pattern_large(self):
        grid = Grid(2, 128, math.pi)
        cf = CoefficientField(
            a=(lambda p, t: 1.0 + 0.5 * np.sin(p[:, 0]), 1.0),
            b=(0.5, lambda p, t: 0.3 * np.cos(p[:, 1])),
            c=lambda p, t: 0.1 * p[:, 0],
        )
        op = assemble(grid, cf, 0.0, BoundarySpec.dirichlet0(2))
        check_max_principle(op, 1)

    def test_symmetry_pure_constant_diffusion(self):
        grid = Grid(2, 12, 1.0)
        op = assemble(grid, CoefficientField(a=(2.0, 3.0)), 0.0, BoundarySpec.dirichlet0(2))
        diff = (op.matrix - op.matrix.T).toarray()
        assert np.max(np.abs(diff)) < 1e-12

    def test_mixed_bc_corner_dirichlet_wins(self):
        # x faces periodic, y faces Dirichlet: the corner rows belong to
        # the Dirichlet set, and unknown count is N * (N - 1)
        grid = Grid(2, 8, 1.0)
        bs = BoundarySpec(
            {
                "x-": BoundaryCondition("periodic"),
                "x+": BoundaryCondition("periodic"),
                "y-": BoundaryCondition("dirichlet", 0.0),
                "y+": BoundaryCondition("dirichlet", 0.0),
            },
            2,
        )
        op = assemble(grid, CoefficientField(a=(1.0, 1.0)), 0.0, bs)
        assert op.unknown_flat.size == 8 * 7
        # constants are not in the kernel (Dirichlet faces pin them)
        v = op.matrix @ np.ones(op.unknown_flat.size)
        assert np.max(v) > 0

    def test_periodic_by_robin_robin_n2(self):
        # x periodic, y Robin (mu 1 at y-, 1/2 at y+), h = 1, a = 1: unknowns
        # (i, j), i in {0, 1}, j in {0, 1, 2}, in C order, so L_h = P (x) I + I (x) R
        # with both x neighbours in one column of P and the reflected ghosts in R
        grid = Grid(2, 2, 2.0)
        bs = BoundarySpec(
            {
                "x-": BoundaryCondition("periodic"),
                "x+": BoundaryCondition("periodic"),
                "y-": BoundaryCondition("robin", 1.0),
                "y+": BoundaryCondition("robin", 0.5),
            },
            2,
        )
        op = assemble(grid, CoefficientField(a=(1.0, 1.0)), 0.0, bs)
        P = np.array([[2.0, -2.0], [-2.0, 2.0]])
        R = np.array([[4.0, -2.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -2.0, 3.0]])
        assert op.matrix.nnz == 20
        np.testing.assert_array_equal(op.matrix.toarray(), np.kron(P, np.eye(3)) + np.kron(np.eye(2), R))
        assert op.unknown_flat.tolist() == [0, 1, 2, 3, 4, 5]
        assert op.duplicate_flat.tolist() == [6, 7, 8]
        assert op.duplicate_partner.tolist() == [0, 1, 2]
        assert op.dirichlet_coupling.shape == (6, 0)

    def test_apply_matches_matrix(self):
        grid = Grid(2, 6, 1.0)
        cf = CoefficientField(a=(1.0, 1.0), c=1.0)
        op = assemble(grid, cf, 0.0, BoundarySpec.dirichlet0(2))
        rng = np.random.default_rng(0)
        u = rng.standard_normal(op.unknown_flat.size)
        full = op.scatter(u, op.dirichlet_values(0.0))
        act = op.apply(full)
        np.testing.assert_allclose(
            act[op.unknown_flat], op.matrix @ u + op.data_vector(op.dirichlet_values(0.0)), rtol=1e-12, atol=1e-12
        )


def _dirichlet_robin(mu):
    return BoundarySpec(
        {"x-": BoundaryCondition("robin", mu), "x+": BoundaryCondition("dirichlet", 0.0)}, 1
    )


class TestMaxPrinciple:
    def test_pure_diffusion_always_passes(self):
        for N in (2, 4, 64):
            op = assemble(Grid(1, N, 1.0), CoefficientField(a=(1.0,)), 0.0, BoundarySpec.dirichlet0(1))
            check_max_principle(op, 1)

    def test_convection_threshold(self):
        # |b| = 4, a = 1: the mesh-Peclet number h |b| / (2 a) must be <= 1, h <= 1/2
        cf = CoefficientField(a=(1.0,), b=(4.0,))
        ok = assemble(Grid(1, 4, 1.0), cf, 0.0, BoundarySpec.dirichlet0(1))  # h = 0.25
        check_max_principle(ok, 1)
        # h = 1: the one unknown couples to the Dirichlet node 2 by -a/h^2 + b/(2h) = 1
        bad = assemble(Grid(1, 2, 2.0), cf, 0.0, BoundarySpec.dirichlet0(1))
        with pytest.raises(MaxPrincipleError, match=r"level 3, node \(1,\): entry 1 > 0 at node \(2,\)") as exc:
            check_max_principle(bad, 3)
        assert (exc.value.level, exc.value.node) == (3, (1,))

    def test_nonpositive_diffusion_rejected(self):
        # a = x - 0.5 at the midpoints 0.125, 0.375: diagonal (a_- + a_+) / h^2 = -8 at node 1
        cf = CoefficientField(a=(lambda p, t: p[:, 0] - 0.5,))
        op = assemble(Grid(1, 4, 1.0), cf, 0.0, BoundarySpec.dirichlet0(1))
        with pytest.raises(MaxPrincipleError, match=r"node \(1,\): diagonal entry -8 <= 0"):
            check_max_principle(op, 1)

    @pytest.mark.parametrize(
        "grid, coeffs, bc, node, entry",
        [
            # h = 1: -a/h^2 + b/(2h) = 1 couples unknown node 1 to unknown node 2
            (Grid(1, 4, 4.0), CoefficientField(a=(1.0,), b=(4.0,)), BoundarySpec.dirichlet0(1),
             (1,), r"entry 1 > 0 at node \(2,\)"),
            (Grid(1, 4, 1.0), CoefficientField(a=(1.0,), c=-1.0), BoundarySpec.dirichlet0(1),
             (1,), r"row sum -1 < 0"),
            # mu = -0.5, h = 1/8: diagonal 2/h^2 + 2 mu/h = 120, off-diagonal -2/h^2 = -128
            (Grid(1, 8, 1.0), CoefficientField(a=(1.0,)), _dirichlet_robin(-0.5),
             (0,), r"row sum -8 < 0 \(diagonal 120\)"),
            # mu = -50: diagonal 2/h^2 + 2 mu/h = -672
            (Grid(1, 8, 1.0), CoefficientField(a=(1.0,)), _dirichlet_robin(-50.0),
             (0,), r"diagonal entry -672 <= 0"),
            (Grid(2, 8, 1.0), CoefficientField(a=(1.0, 1.0), c=lambda p, t: p[:, 1] - 0.5),
             BoundarySpec.dirichlet0(2), (1, 1), r"row sum -0.375 < 0"),
        ],
        ids=["convection-matrix", "negative-c", "negative-robin", "large-negative-robin", "2d-negative-c"],
    )
    def test_violation_names_level_node_and_entry(self, grid, coeffs, bc, node, entry):
        with pytest.raises(MaxPrincipleError, match=entry) as exc:
            check_max_principle(assemble(grid, coeffs, 0.0, bc), 5)
        assert (exc.value.level, exc.value.node) == (5, node)
        assert isinstance(exc.value, ValueError)


class TestBoundarySpec:
    def test_unpaired_periodic_rejected(self):
        with pytest.raises(ValueError):
            BoundarySpec(
                {
                    "x-": BoundaryCondition("periodic"),
                    "x+": BoundaryCondition("dirichlet", 0.0),
                },
                1,
            )

    def test_unknown_face_rejected(self):
        with pytest.raises(ValueError):
            BoundarySpec({"z-": BoundaryCondition("periodic")}, 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BoundaryCondition("neumann", 0.0)


def _faces(x_kind, y_kind=None):
    """Both faces of x (and y) of one kind; Dirichlet faces carry nonzero data."""
    def face(kind):
        return BoundaryCondition(kind, 1.5 if kind == "dirichlet" else None)
    faces = {"x-": face(x_kind), "x+": face(x_kind)}
    if y_kind is None:
        return BoundarySpec(faces, 1)
    return BoundarySpec({**faces, "y-": face(y_kind), "y+": face(y_kind)}, 2)


class TestFastInverse:
    @pytest.mark.parametrize(
        "d, bc_kinds, a, c",
        [
            (1, ("dirichlet",), (1.0,), None),
            (1, ("periodic",), (1.0,), None),
            (2, ("dirichlet", "dirichlet"), (1.0, 1.0), None),
            (2, ("periodic", "periodic"), (1.0, 1.0), None),
            (2, ("periodic", "dirichlet"), (1.0, 1.0), None),
            (2, ("dirichlet", "dirichlet"), (1.0, 2.0), None),
            (2, ("dirichlet", "periodic"), (1.0, 2.0), 0.5),
        ],
    )
    @pytest.mark.parametrize("s", [0.3, 40.0])
    def test_inverts_shifted_operator(self, d, bc_kinds, a, c, s):
        coeffs, bc = CoefficientField(a=a, c=c), _faces(*bc_kinds)
        for N in (12, 130):  # either side of the dense-basis cutoff
            grid = Grid(d, N, math.pi)
            A = assemble(grid, coeffs, 0.0, bc).matrix
            inv = fast_inverse(grid, coeffs, bc)
            assert (inv.bases is None) == (d == 1 or N > _DENSE_MAX_N)
            x = np.random.default_rng(7).standard_normal(A.shape[0])
            np.testing.assert_allclose(inv.at(s)(A @ x + s * x), x, rtol=0, atol=1e-12)

    def test_lam_min_is_smallest_eigenvalue(self):
        coeffs = CoefficientField(a=(1.0, 2.0), c=0.5)
        for N in (12, 130):
            grid = Grid(2, N, math.pi)
            for bc in (_faces("dirichlet", "dirichlet"), _faces("periodic", "dirichlet")):
                A = assemble(grid, coeffs, 0.0, bc).matrix
                if N <= _DENSE_MAX_N:
                    want = np.linalg.eigvalsh(A.toarray()).min()
                else:  # shift-invert Lanczos: the eigenvalue nearest 0 of an SPD matrix
                    want = eigsh(A, k=1, sigma=0.0, which="LM", return_eigenvectors=False)[0]
                assert fast_inverse(grid, coeffs, bc).lam_min == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "bc_kinds, a, c",
        [
            (("dirichlet", "dirichlet"), (1.0, 1.0), None),
            (("periodic", "periodic"), (1.0, 1.0), None),
            (("periodic", "dirichlet"), (1.0, 1.0), None),
            (("dirichlet", "periodic"), (1.0, 2.0), 0.5),
        ],
        ids=["dirichlet", "periodic", "mixed", "anisotropic"],
    )
    @pytest.mark.parametrize("N", [7, 12, _DENSE_MAX_N])
    def test_dense_bases_match_transforms(self, bc_kinds, a, c, N):
        inv = fast_inverse(Grid(2, N, math.pi), CoefficientField(a=a, c=c), _faces(*bc_kinds))
        transforms = dataclasses.replace(inv, bases=None)
        r = np.random.default_rng(5).standard_normal(inv.eigenvalues.size)
        for s in (0.3, 40.0):
            want = transforms.at(s)(r)
            assert np.max(np.abs(inv.at(s)(r) - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("N", [2, 7, 12, _DENSE_MAX_N])
    def test_bases_are_orthonormal(self, N):
        inv = fast_inverse(Grid(2, N, math.pi), CoefficientField(a=(1.0, 1.0)), _faces("periodic", "dirichlet"))
        for Q, n in zip(inv.bases, inv.eigenvalues.shape):
            assert Q.shape == (n, n)
            np.testing.assert_allclose(Q.T @ Q, np.eye(n), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("N", [2, 7, 12, 64, _DENSE_MAX_N])
    def test_dirichlet_basis_is_the_orthonormal_dst1(self, N):
        # built from sines in numpy: scipy's DST-I of the identity to a few
        # ulps of sqrt(2 / N) (3.1 measured), and exactly symmetric
        inv = fast_inverse(Grid(2, N, math.pi), CoefficientField(a=(1.0, 1.0)), _faces("dirichlet", "dirichlet"))
        want = dst(np.eye(N - 1), type=1, norm="ortho", axis=0)
        for Q in inv.bases:
            np.testing.assert_allclose(Q, want, rtol=0, atol=8 * np.finfo(float).eps * math.sqrt(2.0 / N))
            assert np.array_equal(Q, Q.T)

    @pytest.mark.parametrize(
        "coeffs, bc",
        [
            (CoefficientField(a=(const(1.0), 1.0)), _faces("dirichlet", "dirichlet")),
            (CoefficientField(a=(1.0, 1.0), b=(1.0, 0.0)), _faces("dirichlet", "dirichlet")),
            (CoefficientField(a=(1.0, 1.0)), _faces("robin", "dirichlet")),
            (
                CoefficientField(a=(1.0, 1.0), c=lambda pts, t: 1.0 + t, time_dependent=True),
                _faces("periodic", "periodic"),
            ),
        ],
        ids=["callable-a", "convection", "robin", "time-dependent-c"],
    )
    def test_declines_other_operators(self, coeffs, bc):
        assert fast_inverse(Grid(2, 8, math.pi), coeffs, bc) is None

    def test_declines_one_sided_dirichlet(self):
        bc = BoundarySpec(
            {"x-": BoundaryCondition("dirichlet", 0.0), "x+": BoundaryCondition("robin", 1.0)}, 1
        )
        assert fast_inverse(Grid(1, 8, 1.0), CoefficientField(a=(1.0,)), bc) is None
