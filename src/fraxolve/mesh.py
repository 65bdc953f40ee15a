"""Temporal meshes: graded construction, quasi-gradedness, step restriction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .special import gamma

__all__ = [
    "TemporalMesh",
    "FracParams",
    "build_graded",
    "verify_quasi_graded",
    "check_step_restriction",
    "QuasiGradedReport",
    "StepRestrictionReport",
]


@dataclass(frozen=True)
class TemporalMesh:
    """Strictly increasing time nodes 0 = t_0 < ... < t_M = T.

    ``r`` carries the grading exponent when the mesh came from
    :func:`build_graded`; for hand-built meshes it is None.
    """

    nodes: np.ndarray
    r: float | None = None

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("mesh needs at least two nodes")
        if nodes[0] != 0.0:
            raise ValueError("mesh must start at t_0 = 0")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("mesh nodes must be strictly increasing")
        nodes = nodes.copy()
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def M(self) -> int:
        return self.nodes.size - 1

    @property
    def T(self) -> float:
        return float(self.nodes[-1])

    @property
    def tau(self) -> float:
        """First step t_1."""
        return float(self.nodes[1])

    @property
    def steps(self) -> np.ndarray:
        """tau_j = t_j - t_{j-1}, j = 1..M."""
        return np.diff(self.nodes)


@dataclass(frozen=True)
class FracParams:
    """Fractional order alpha in (0,1) and one-sided Lipschitz constant lam >= 0."""

    alpha: float
    lam: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.lam < 0.0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")


def build_graded(M: int, T: float, r: float) -> TemporalMesh:
    """Graded mesh t_j = T (j/M)^r; r = 1 gives the uniform mesh."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    if r < 1.0:
        raise ValueError(f"grading exponent must be >= 1, got {r}")
    j = np.arange(1, M + 1, dtype=float)
    # exp/log form keeps strict monotonicity at large r
    nodes = np.concatenate(([0.0], T * np.exp(r * np.log(j / M))))
    nodes[-1] = T
    return TemporalMesh(nodes, r=float(r))


@dataclass(frozen=True)
class QuasiGradedReport:
    max_ratio: float
    c_qg: float
    passed: bool
    ratios: np.ndarray = field(repr=False, default=None)


def verify_quasi_graded(mesh: TemporalMesh, r: float) -> QuasiGradedReport:
    """Check tau_j <= C * tau^(1/r) * t_j^(1-1/r) with C = c_qg = r + 1.

    The theory only requires the ratio to be bounded; r + 1 admits standard
    graded meshes (ratio <= r) with slack for perturbations.
    """
    if r < 1.0:
        raise ValueError(f"grading exponent must be >= 1, got {r}")
    t = mesh.nodes[1:]
    ratios = mesh.steps / (mesh.tau ** (1.0 / r) * t ** (1.0 - 1.0 / r))
    max_ratio = float(ratios.max())
    return QuasiGradedReport(max_ratio, r + 1.0, max_ratio <= r + 1.0, ratios)


@dataclass(frozen=True)
class StepRestrictionReport:
    worst_j: int
    lhs: float
    rhs: float
    passed: bool


def check_step_restriction(
    mesh: TemporalMesh, params: FracParams, strict: bool = False
) -> StepRestrictionReport:
    """Check lambda * tau_j^alpha <= 1/Gamma(2-alpha) for all j ("<" when strict)."""
    rhs = 1.0 / gamma(2.0 - params.alpha)
    if params.lam == 0.0:
        return StepRestrictionReport(worst_j=1, lhs=0.0, rhs=rhs, passed=True)
    vals = params.lam * mesh.steps**params.alpha
    worst = int(np.argmax(vals)) + 1
    lhs = float(vals[worst - 1])
    passed = lhs < rhs if strict else lhs <= rhs
    return StepRestrictionReport(worst_j=worst, lhs=lhs, rhs=rhs, passed=passed)
