"""The benchmark's four workloads: seeded inputs, the solver calls, and their checks.

Seed 0 gives exactly the stated inputs.  Any other seed adds a seeded
smooth perturbation to the initial data (and to the resolvent data g) that
stays inside the reaction's invariant range; the solvers receive only the
generated arrays and callables.

``wrap(name, fn)`` is applied to every solver entry point and to every
callable inside the inputs, so that one builder serves both the plain run
(``tracing.plain``) and the traced run (``Tracer.wrap``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

import fraxolve.config
import fraxolve.harness
import fraxolve.pde
import fraxolve.scalar
import fraxolve.stability
from fraxolve.harness import TableSpec, allen_cahn_problem
from fraxolve.mesh import build_graded
from fraxolve.nonlinearity import builtin
from fraxolve.scalar import SolverConfig
from fraxolve.spatial import Grid

from . import verify
from .tracing import patch_attr, plain

REFERENCE_PATH = Path(__file__).with_name("reference.json")

WHY = {
    "ac2d": "one 2D Allen-Cahn solve, 16129 unknowns, bound by the sparse LU per Newton step",
    "table_slice": "one table_run row pair (N=2M, M=16,32): four 2D solves plus two-mesh errors and the rate",
    "march1d": "1D periodic Fisher solve from parse_config, M=2000: many cheap levels, per-level overhead and history sum",
    "scalar_stab": "solve_scalar, solve_resolvent at M=8000 and long_time_check: time axis only, no spatial layer",
}

SIZES = {
    "ac2d": {"full": {"M": 64, "N": 128}, "tiny": {"M": 4, "N": 8}},
    "table_slice": {"full": {"Ms": (16, 32)}, "tiny": {"Ms": (2, 4)}},
    "march1d": {"full": {"M": 2000, "N": 256}, "tiny": {"M": 20, "N": 16}},
    "scalar_stab": {
        "full": {"M_scalar": 8000, "M_resolvent": 8000, "tau": 0.025, "T": 50.0},
        "tiny": {"M_scalar": 40, "M_resolvent": 40, "tau": 0.25, "T": 10.0},
    },
}

# seed-0 agreement with reference.json, (atol, rtol) per recorded key
FIELD_TOL = {"final_field": (1e-7, 0.0)}
TABLE_TOL = {"err": (0.0, 1e-5), "rate": (1e-6, 0.0)}
SCALAR_TOL = {"values": (1e-9, 1e-9)}
LONG_TIME_TOL = {"sup_ratio": (0.0, 1e-9), "sup_ratio_half": (0.0, 1e-9)}

# the scalar solver's default configuration, passed explicitly so that the
# verifier holds the residuals to the same tolerance
SCALAR_CFG = SolverConfig(nonlin_tol=1e-12, max_newton=50)

SUMMARY_POINTS = 16  # recorded samples per axis of a final field or trajectory


@dataclass
class Op:
    """One solver call: ``n_ops`` operations for ``failed_frac``.

    ``check(result)`` returns one list of problems per operation;
    ``summary(result)`` gives the values recorded in reference.json and
    ``counts(result)`` the per-layer counts read from the result.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[list[str]]]
    summary: Callable[[Any], dict]
    counts: Callable[[Any], dict]
    n_ops: int = 1


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def build(workload: str, seed: int, size: str = "full", wrap=plain, reference=None) -> list[Op]:
    """The solver calls of one pass of ``workload``.

    ``reference`` (seed 0, full size) holds the recorded values each
    call's output must agree with; None skips that check.
    """
    rng = np.random.default_rng(seed) if seed else None
    ref = (reference or {}).get(workload, {}) if seed == 0 and size == "full" else {}
    return _BUILDERS[workload](SIZES[workload][size], rng, wrap, ref)


# ----------------------------------------------------------------- inputs


def _instrument(problem, wrap):
    """The problem with its reaction and coefficient callables wrapped."""
    f = problem.f
    f = replace(
        f,
        eval=wrap("nonlinearity.eval", f.eval),
        deriv_s=wrap("nonlinearity.deriv_s", f.deriv_s),
    )
    co = problem.coeffs

    def coef(c):
        return wrap("expressions.eval", c) if callable(c) else c

    co = replace(
        co,
        a=tuple(coef(c) for c in co.a),
        b=None if co.b is None else tuple(coef(c) for c in co.b),
        c=coef(co.c),
    )
    return replace(problem, f=f, coeffs=co)


def _allen_cahn_2d(alpha: float, rng) -> Callable:
    """Factory for the 2D Allen-Cahn problem, u0 perturbed when ``rng`` is given.

    The perturbation sum_{k,l<=2} c_kl sin(kx) sin(ly), sum |c_kl| = 0.05,
    vanishes on the Dirichlet boundary and keeps |u0| <= 0.98 (the seed-0
    data spans [-0.87, 0.93]) inside the invariant range [-1, 1].
    """
    if rng is None:
        return allen_cahn_problem
    c = rng.uniform(-1.0, 1.0, (2, 2))
    c *= 0.05 / np.abs(c).sum()

    def factory(a):
        base = allen_cahn_problem(a)

        def u0(pts, _base=base.u0):
            x, y = pts[:, 0], pts[:, 1]
            delta = sum(
                c[k, l] * np.sin((k + 1) * x) * np.sin((l + 1) * y)
                for k in range(2) for l in range(2)
            )
            return _base(pts) + delta

        return replace(base, u0=u0)

    return factory


def _n_unknown(grid: Grid, bc) -> int:
    n = 1
    for axis in range(grid.d):
        k = grid.N + 1
        if bc.axis_periodic(axis):
            k -= 1
        else:
            k -= sum(bc.face(axis, s).kind == "dirichlet" for s in (-1, 1))
        n *= k
    return n


def _history_bytes(M: int, n: int) -> int:
    """Sum over levels m = 1..M of m * n float64 history values read (computed)."""
    return 8 * n * M * (M + 1) // 2


def _sample(values: np.ndarray, shape) -> list:
    v = np.asarray(values).reshape(shape)
    sl = tuple(slice(None, None, max(1, s // SUMMARY_POINTS)) for s in shape)
    return v[sl].ravel().tolist()


# ------------------------------------------------------------- PDE calls


def _pde_summary(sol) -> dict:
    return {"final_field": _sample(sol.fields[-1], sol.grid.shape)}


def _pde_counts(sol, problem) -> dict:
    return {
        "pde.newton_iters": int(sum(sol.newton_iters)),
        "pde.lin_iters": int(sum(sol.lin_iters)),
        "caputo.history_bytes_computed": _history_bytes(
            sol.mesh.M, _n_unknown(sol.grid, problem.bc)
        ),
    }


def _pde_op(name, run, problem, cfg, ref) -> Op:
    def check(sol):
        problems = verify.pde_problems(sol, problem, cfg)
        if name in ref:
            problems += verify.compare(_pde_summary(sol), ref[name], FIELD_TOL)
        return [problems]

    return Op(name, run, check, _pde_summary, lambda sol: _pde_counts(sol, problem))


def _ac2d(size, rng, wrap, ref) -> list[Op]:
    problem = _allen_cahn_2d(0.5, rng)(0.5)
    mesh = build_graded(size["M"], 1.0, 3.0)
    grid = Grid(d=2, N=size["N"], X=math.pi)
    solve = wrap("pde.solve_pde", fraxolve.pde.solve_pde)
    traced = _instrument(problem, wrap)
    return [_pde_op("solve_pde", lambda: solve(traced, mesh, grid), problem, None, ref)]


def _march1d(size, rng, wrap, ref) -> list[Op]:
    u0 = "0.5 + 0.3*cos(2*x)"
    if rng is not None:
        c = rng.uniform(-1.0, 1.0, 2)
        c *= 0.1 / np.abs(c).sum()  # keeps u0 in [0.1, 0.9], inside Fisher's [0, 1]
        u0 += f" + ({c[0]:.9f})*cos(4*x) + ({c[1]:.9f})*sin(4*x)"
    text = json.dumps({
        "mesh": {"M": size["M"], "T": 1.0, "r": 2.0},
        "grid": {"d": 1, "N": size["N"]},
        "problem": {
            "alpha": 0.4,
            "f": {"kind": "fisher"},
            "u0": u0,
            "coefficients": {"a": ["1 + 0.5*sin(x)"]},
            "bc": {"all": "periodic"},
        },
    })
    rc = wrap("config.parse_config", fraxolve.config.parse_config)(text)
    solve = wrap("pde.solve_pde", fraxolve.pde.solve_pde)
    traced = _instrument(rc.problem, wrap)
    return [
        _pde_op(
            "solve_pde",
            lambda: solve(traced, rc.mesh, rc.grid, rc.solver),
            rc.problem,
            rc.solver,
            ref,
        )
    ]


def _table_slice(size, rng, wrap, ref) -> list[Op]:
    make_problem = _allen_cahn_2d(0.5, rng)
    spec = TableSpec(
        alphas=(0.5,), rs=(3.0,), Ms=size["Ms"], n_rule="N=2M", study="time",
        problem_factory=lambda a: _instrument(make_problem(a), wrap),
    )
    table = wrap("harness.table_run", fraxolve.harness.table_run)
    solve = wrap("pde.solve_pde", fraxolve.harness.solve_pde)
    n_rows = len(spec.Ms)

    def run():
        solved = []

        def capture(problem, mesh, grid, cfg=None):
            sol = solve(problem, mesh, grid, cfg)
            solved.append((problem, cfg, sol))
            return sol

        with patch_attr(fraxolve.harness, "solve_pde", capture):
            rows = table(spec)
        return rows, solved

    def check(result):
        rows, solved = result
        sols = {(sol.mesh.M, sol.grid.N): sol for _, _, sol in solved}
        solve_problems = {
            (sol.mesh.M, sol.grid.N): verify.pde_problems(sol, problem, cfg)
            for problem, cfg, sol in solved
        }
        out = []
        prev_err = None
        for i in range(n_rows):
            if i >= len(rows):
                out.append([f"row {i}: missing"])
                continue
            row = rows[i]
            M, N = row["M"], row["N"]
            keys = ((M, N), (2 * M, N))  # a temporal study doubles M at fixed N
            missing = [k for k in keys if k not in sols]
            if missing:
                out.append([f"row {i}: solves {missing} missing"])
                continue
            problems = [f"solve {k}: {p}" for k in keys for p in solve_problems[k]]
            # the final-time two-mesh error, recomputed from the two solutions
            err = float(np.max(np.abs(sols[keys[0]].fields[-1] - sols[keys[1]].fields[-1])))
            if not (err > 0 and abs(row["err"] - err) <= 1e-12 * err):
                problems.append(f"row {i}: err {row['err']!r}, recomputed {err!r}")
            if prev_err is not None:
                want = math.log2(prev_err / err)
                if row["rate"] is None or not abs(row["rate"] - want) <= 1e-9:
                    problems.append(f"row {i}: rate {row['rate']!r}, recomputed {want!r}")
            prev_err = err
            out.append(problems)
        if "table_run" in ref and len(rows) == n_rows:
            ref_problems = verify.compare(summary(result), ref["table_run"], TABLE_TOL)
            out = [p + ref_problems for p in out]
        return out

    def summary(result):
        rows, _ = result
        return {"err": [r["err"] for r in rows], "rate": [r["rate"] for r in rows[1:]]}

    def counts(result):
        total = {}
        for problem, _, sol in result[1]:
            for k, v in _pde_counts(sol, problem).items():
                total[k] = total.get(k, 0) + v
        return total

    return [Op("table_run", run, check, summary, counts, n_ops=n_rows)]


# ---------------------------------------------------------- time axis only


def _scalar_stab(size, rng, wrap, ref) -> list[Op]:
    alpha = 0.5
    f = builtin("allen_cahn", alpha=alpha)
    traced_f = replace(
        f,
        eval=wrap("nonlinearity.eval", f.eval),
        deriv_s=wrap("nonlinearity.deriv_s", f.deriv_s),
    )
    u0 = 0.5
    mesh_s = build_graded(size["M_scalar"], 1.0, 3.0)
    mesh_r = build_graded(size["M_resolvent"], 1.0, 1.5)
    lam = 1.0
    g = np.ones(mesh_r.M)
    if rng is not None:
        u0 += rng.uniform(-0.2, 0.2)  # stays inside [-1, 1]
        t = mesh_r.nodes[1:]
        c = rng.uniform(-1.0, 1.0, 3)
        phase = rng.uniform(0.0, 2.0 * math.pi, 3)
        g = g + 0.1 / np.abs(c).sum() * sum(
            c[k] * np.sin((k + 1) * math.pi * t + phase[k]) for k in range(3)
        )
    tau, T = size["tau"], size["T"]

    solve_scalar = wrap("scalar.solve_scalar", fraxolve.scalar.solve_scalar)
    solve_resolvent = wrap("stability.solve_resolvent", fraxolve.stability.solve_resolvent)
    long_time_check = wrap("stability.long_time_check", fraxolve.stability.long_time_check)

    def trajectory_summary(traj):
        return {"values": _sample(traj.values, traj.values.shape)}

    def scalar_check(traj):
        problems = verify.scalar_problems(traj, f, alpha, SCALAR_CFG)
        if "solve_scalar" in ref:
            problems += verify.compare(trajectory_summary(traj), ref["solve_scalar"], SCALAR_TOL)
        return [problems]

    def resolvent_summary(V):
        return {"values": _sample(V, V.shape)}

    def resolvent_check(V):
        problems = verify.resolvent_problems(V, mesh_r, alpha, lam, g)
        if "solve_resolvent" in ref:
            problems += verify.compare(resolvent_summary(V), ref["solve_resolvent"], SCALAR_TOL)
        return [problems]

    def long_time_summary(rep):
        return {"sup_ratio": rep.sup_ratio, "sup_ratio_half": rep.sup_ratio_half}

    def long_time_problems(rep):
        problems = [] if rep.stable else [f"long_time_check: not stable, sup_ratio {rep.sup_ratio!r}"]
        if "long_time_check" in ref:
            problems += verify.compare(long_time_summary(rep), ref["long_time_check"], LONG_TIME_TOL)
        return [problems]

    return [
        Op(
            "solve_scalar",
            lambda: solve_scalar(traced_f, u0, mesh_s, alpha, SCALAR_CFG),
            scalar_check,
            trajectory_summary,
            lambda traj: {
                "scalar.newton_iters": int(sum(traj.newton_iters)),
                "caputo.history_bytes_computed": _history_bytes(traj.mesh.M, 1),
            },
        ),
        Op(
            "solve_resolvent",
            lambda: solve_resolvent(mesh_r, alpha, lam, g),
            resolvent_check,
            resolvent_summary,
            lambda V: {"caputo.history_bytes_computed": _history_bytes(V.size - 1, 1)},
        ),
        Op(
            "long_time_check",
            lambda: long_time_check(alpha, 1.0, 2.0, tau=tau, T=T),
            long_time_problems,
            long_time_summary,
            lambda rep: {"caputo.history_bytes_computed": _history_bytes(rep.ratios.size, 1)},
        ),
    ]


_BUILDERS = {
    "ac2d": _ac2d,
    "table_slice": _table_slice,
    "march1d": _march1d,
    "scalar_stab": _scalar_stab,
}
WORKLOADS = tuple(_BUILDERS)
