"""Two-mesh error estimation, convergence rates, and the Allen-Cahn test tables.

Two-mesh convention (the comparison is restricted to coincident nodes, no
interpolation): a temporal study doubles M at fixed N; a spatial study
doubles N and re-ties M to the study's N-rule.  Graded meshes with a common
r nest under M-doubling, uniform spatial grids nest under N-doubling.

A table is computed serially and streamed: each run is solved when a row
first needs it and dropped after the last row that needs it, so peak memory
is about one coarse/fine pair of solution histories.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import FracParams, TemporalMesh, build_graded, check_step_restriction
from .nonlinearity import builtin
from .pde import Problem, SolutionHistory, solve_pde
from .scalar import ScalarTrajectory
from .spatial import BoundarySpec, CoefficientField, Grid

__all__ = [
    "ErrorReport",
    "two_mesh_error",
    "exact_error",
    "rate",
    "TableSpec",
    "table_run",
    "allen_cahn_problem",
    "rows_to_csv",
    "restriction_violations",
    "BudgetError",
]

CSV_HEADER = ("alpha", "r", "M", "N", "study", "err", "rate")


class BudgetError(RuntimeError):
    pass


@dataclass
class ErrorReport:
    err_final: float
    err_global: float


def rate(err_coarse: float, err_fine: float) -> float:
    """log2 ratio of successive errors."""
    if not (err_coarse > 0 and err_fine > 0):
        raise ValueError("rates require positive errors")
    return math.log2(err_coarse / err_fine)


def _nesting_stride(coarse: TemporalMesh, fine: TemporalMesh) -> int:
    if fine.M % coarse.M != 0:
        raise ValueError("fine temporal mesh must refine the coarse one")
    k = fine.M // coarse.M
    if not np.allclose(fine.nodes[::k], coarse.nodes, rtol=1e-12, atol=1e-14):
        raise ValueError("temporal meshes do not nest at coincident nodes")
    return k


def _spatial_stride(coarse: Grid, fine: Grid) -> int:
    if coarse.X != fine.X or coarse.d != fine.d:
        raise ValueError("grids live on different domains")
    if fine.N % coarse.N != 0:
        raise ValueError("fine grid must refine the coarse one")
    return fine.N // coarse.N


def _restrict_field(field_flat: np.ndarray, fine: Grid, stride: int) -> np.ndarray:
    f = field_flat.reshape(fine.shape)
    sl = (slice(None, None, stride),) * fine.d
    return f[sl].ravel()


def _report(diffs: np.ndarray) -> ErrorReport:
    """The report of the per-level errors ``diffs``."""
    return ErrorReport(err_final=float(diffs[-1]), err_global=float(diffs.max()))


def two_mesh_error(run_coarse, run_fine) -> ErrorReport:
    """Max nodal difference at coincident (t, x); err_final at t = T, err_global over all levels."""
    k = _nesting_stride(run_coarse.mesh, run_fine.mesh)
    if isinstance(run_coarse, ScalarTrajectory):
        return _report(np.abs(run_coarse.values - run_fine.values[::k]))
    ck: SolutionHistory = run_coarse
    fk: SolutionHistory = run_fine
    ks = _spatial_stride(ck.grid, fk.grid)
    diffs = np.empty(ck.mesh.M + 1)
    for m in range(ck.mesh.M + 1):
        fine_field = fk.fields[m * k]
        if ks > 1:
            fine_field = _restrict_field(fine_field, fk.grid, ks)
        diffs[m] = np.max(np.abs(ck.fields[m] - fine_field))
    return _report(diffs)


def exact_error(run, exact: Callable) -> ErrorReport:
    """Errors against a supplied truth: exact(t) for scalar runs, exact(points, t) for PDE runs."""
    if isinstance(run, ScalarTrajectory):
        truth = np.array([exact(t) for t in run.mesh.nodes])
        return _report(np.abs(run.values - truth))
    pts = run.grid.points()
    diffs = np.empty(run.mesh.M + 1)
    for m, t in enumerate(run.mesh.nodes):
        diffs[m] = np.max(np.abs(run.fields[m] - exact(pts, t)))
    return _report(diffs)


def allen_cahn_problem(alpha: float) -> Problem:
    """The 2D Allen-Cahn benchmark: f = (u^3 - u)/alpha on (0, pi)^2,
    u0 = (2/5)(2y - x^2) sin x sin y, homogeneous Dirichlet."""

    def u0(pts):
        x, y = pts[:, 0], pts[:, 1]
        return 0.4 * (2.0 * y - x**2) * np.sin(x) * np.sin(y)

    return Problem(
        coeffs=CoefficientField(a=(1.0, 1.0)),
        bc=BoundarySpec.dirichlet0(2),
        f=builtin("allen_cahn", alpha=alpha),
        u0=u0,
        alpha=alpha,
    )


_MAX_COST = 5e13  # table_run budget on the sum of M^2 * n_unknown over runs


def _square_root_rule(M: int) -> int:
    N = math.isqrt(M)
    if N * N != M:
        raise ValueError(f"the M=N^2 rule needs a square M, got M = {M}")
    return N


_N_RULES = {
    "N=2M": lambda M: 2 * M,
    "M=N^2": _square_root_rule,
    "N=M/2": lambda M: M // 2,
}


@dataclass
class TableSpec:
    alphas: tuple
    rs: Callable | tuple  # tuple of floats, or callable alpha -> tuple
    Ms: tuple
    n_rule: str  # key of _N_RULES
    study: str  # 'time' | 'space' | 'global'
    problem_factory: Callable = allen_cahn_problem

    def rs_for(self, alpha: float) -> tuple:
        return tuple(self.rs(alpha)) if callable(self.rs) else tuple(self.rs)

    def n_for(self, M: int) -> int:
        try:
            return _N_RULES[self.n_rule](M)
        except KeyError:
            raise ValueError(f"unknown N-rule {self.n_rule!r}") from None


def _run_pairs(spec: TableSpec):
    """Each table row, in order, as (alpha, r, (M, N), (M_f, N_f)).

    (M, N) is the row's run and (M_f, N_f) its fine companion: a temporal or
    global study doubles M at fixed N; a spatial study doubles N, and
    quadruples M only under the M=N^2 rule.
    """
    for alpha in spec.alphas:
        for r in spec.rs_for(alpha):
            for M in spec.Ms:
                N = spec.n_for(M)
                if spec.study == "space":
                    fine = (4 * M if spec.n_rule == "M=N^2" else M, 2 * N)
                else:
                    fine = (2 * M, N)
                yield alpha, r, (M, N), fine


def _last_use(spec: TableSpec) -> dict[tuple, int]:
    """Each distinct (alpha, r, M, N) solve, in first-use order, mapped to the last row that needs it."""
    last = {}
    for i, (alpha, r, coarse, fine) in enumerate(_run_pairs(spec)):
        for M, N in (coarse, fine):
            last[(alpha, r, M, N)] = i  # re-setting a key keeps its first-use position
    return last


def _estimate_cost(spec: TableSpec) -> float:
    """Sum of M^2 * (N - 1)^2 over the distinct runs."""
    return float(sum(M**2 * max(1, (N - 1) ** 2) for _, _, M, N in _last_use(spec)))


def restriction_violations(spec: TableSpec) -> list[dict]:
    """The (alpha, r, M) runs of ``spec`` outside the step restriction, with its lhs and rhs.

    Such rows are computed all the same, but lie outside the hypotheses of
    the paper's error bounds.
    """
    out = []
    for alpha, r, M in dict.fromkeys(key[:3] for key in _last_use(spec)):  # distinct, in order
        rep = check_step_restriction(
            build_graded(M, 1.0, r), FracParams(alpha, spec.problem_factory(alpha).f.lam)
        )
        if not rep.passed:
            out.append({"alpha": alpha, "r": r, "M": M, "lhs": rep.lhs, "rhs": rep.rhs})
    return out


def table_run(spec: TableSpec) -> list[dict]:
    """Run the convergence study and return CSV-ready rows.

    Temporal/global studies double M at fixed N; spatial studies double N
    with M re-tied by the N-rule.  Runs are solved serially, in first-use
    order, each when its first row needs it, and released after its last
    row: peak memory is about one coarse/fine pair of histories.  A row's
    ``newton_iters`` and ``lin_iters`` total the runs it solved, so their
    sums over the rows count each distinct run once.
    """
    est = _estimate_cost(spec)
    if est > _MAX_COST:
        raise BudgetError(f"estimated cost {est:.3g} exceeds budget {_MAX_COST:.3g}")
    last = _last_use(spec)
    live: dict[tuple, SolutionHistory] = {}
    rows = []
    series = prev_err = None
    for i, (alpha, r, coarse, fine) in enumerate(_run_pairs(spec)):
        if (alpha, r) != series:  # a new series has no rate in its first row
            series, prev_err = (alpha, r), None
        keys = ((alpha, r) + coarse, (alpha, r) + fine)
        newton = lin = 0
        for key, (M, N) in zip(keys, (coarse, fine)):
            if key not in live:
                live[key] = sol = solve_pde(
                    spec.problem_factory(alpha), build_graded(M, 1.0, r), Grid(d=2, N=N, X=math.pi)
                )
                newton += sum(sol.newton_iters)
                lin += sum(sol.lin_iters)
        rep = two_mesh_error(live[keys[0]], live[keys[1]])
        for key in keys:
            if last[key] == i:
                del live[key]
        err = rep.err_global if spec.study == "global" else rep.err_final
        rows.append({
            "alpha": alpha, "r": r, "M": coarse[0], "N": coarse[1],
            "study": spec.study, "err": err,
            "rate": rate(prev_err, err) if prev_err is not None else None,
            "newton_iters": newton, "lin_iters": lin,
        })
        prev_err = err
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(CSV_HEADER)
    for row in rows:
        w.writerow(
            [
                f"{row['alpha']:g}",
                f"{row['r']:g}",
                row["M"],
                row["N"],
                row["study"],
                f"{row['err']:.6e}",
                f"{row['rate']:.6e}" if row["rate"] is not None else "",
            ]
        )
    return buf.getvalue()
