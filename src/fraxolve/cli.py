"""Command-line front end: scalar, pde, stability, table, ml, check."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, parse_config
from .harness import BudgetError, TableSpec, restriction_violations, rows_to_csv, table_run
from .mesh import FracParams, build_graded, check_step_restriction, verify_quasi_graded
from .nonlinearity import builtin
from .pde import solve_pde
from .scalar import (_SCALAR_CFG, NonconvergenceError, StepRestrictionWarning, range_check,
                     solve_scalar)
from .spatial import (BoundarySpec, CoefficientField, Grid, MaxPrincipleError, assemble,
                      check_max_principle)
from .special import mittag_leffler
from .stability import envelope_ratio, solve_resolvent

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2


def _manifest(out_dir: Path, name: str, payload: dict):
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.manifest.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str))
    return path


def _config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _config_error(e: Exception) -> int:
    print(f"config error: {e}", file=sys.stderr)
    return EXIT_CONFIG


def _cmd_ml(args) -> int:
    try:
        val = mittag_leffler(args.alpha, args.s)
    except ValueError as e:  # alpha outside (0, 1] or s = nan
        return _config_error(e)
    print(f"{val:.7g}")
    return EXIT_OK


def _cmd_scalar(args) -> int:
    t0 = time.perf_counter()
    try:
        mesh = build_graded(args.M, args.T, args.r)
        params = {"allen_cahn": {"alpha": args.alpha}, "linear": {"cstar": args.cstar}}
        f = builtin(args.f, **params.get(args.f, {}))
        restr = check_step_restriction(mesh, FracParams(args.alpha, f.lam))
    except ValueError as e:
        return _config_error(e)
    try:
        traj = solve_scalar(f, args.u0, mesh, args.alpha)
    except (NonconvergenceError, ValueError, StepRestrictionWarning) as e:  # the last under -W error
        print(f"scalar solve failed: {e}", file=sys.stderr)
        return EXIT_SOLVER
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "scalar.csv"
    with csv_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("m", "t", "U"))
        for m, (t, u) in enumerate(zip(mesh.nodes, traj.values)):
            w.writerow((m, f"{t:.6e}", f"{u:.6e}"))
    rng_ok = None
    if f.range is not None:
        rng_ok = range_check(traj.values, *f.range, _SCALAR_CFG.nonlin_tol)
    _manifest(out_dir, "scalar", {
        "command": "scalar", "version": __version__,
        "config_hash": _config_hash(json.dumps(vars(args), sort_keys=True, default=str)),
        "restriction": {"pass": restr.passed, "lhs": restr.lhs, "rhs": restr.rhs},
        "range_ok": rng_ok, "seconds": time.perf_counter() - t0,
        "artifacts": [str(csv_path)],
    })
    print(f"wrote {csv_path}")
    return EXIT_OK


def _write_solution_csv(path: Path, t: np.ndarray, pts: np.ndarray, fields: np.ndarray):
    """Rows m,t,node,x,y,U for every level and node (y = 0 in 1D), CRLF-terminated.

    Each level is one %-format of all its rows, 2.5x faster than a
    per-row ``csv.writer`` loop, with the same bytes.
    """
    n = pts.shape[0]
    level_fmt = "%d,%.6e,%d,%.6e,%.6e,%.6e\r\n" * n
    block = np.zeros((n, 6))  # one level's rows; m, t and U change per level
    block[:, 2] = np.arange(n)
    block[:, 3:3 + pts.shape[1]] = pts
    with path.open("w", newline="") as fh:
        fh.write("m,t,node,x,y,U\r\n")
        for m, (t_m, u) in enumerate(zip(t, fields)):
            block[:, 0], block[:, 1], block[:, 5] = m, t_m, u
            fh.write(level_fmt % tuple(block.ravel().tolist()))


def _cmd_pde(args) -> int:
    t0 = time.perf_counter()
    text = Path(args.config).read_text()
    try:
        cfg = parse_config(text)
    except ConfigError as e:
        return _config_error(e)
    try:
        sol = solve_pde(cfg.problem, cfg.mesh, cfg.grid, cfg.solver)
    except (NonconvergenceError, ValueError, StepRestrictionWarning) as e:
        print(f"pde solve failed: {e}", file=sys.stderr)
        return EXIT_SOLVER
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "solution.csv"
    _write_solution_csv(csv_path, cfg.mesh.nodes, cfg.grid.points(), sol.fields)
    rng_ok = None
    if cfg.problem.f.range is not None:
        rng_ok = range_check(sol.fields, *cfg.problem.f.range, cfg.solver.nonlin_tol)
    restr = check_step_restriction(cfg.mesh, FracParams(cfg.problem.alpha, cfg.problem.f.lam))
    _manifest(out_dir, "pde", {
        "command": "pde", "version": __version__, "config_hash": _config_hash(text),
        "restriction": {"pass": restr.passed, "lhs": restr.lhs, "rhs": restr.rhs},
        "range_ok": rng_ok, "seconds": time.perf_counter() - t0,
        "newton_iters_max": max(sol.newton_iters), "newton_iters_total": sum(sol.newton_iters),
        "lin_iters_total": sum(sol.lin_iters), "artifacts": [str(csv_path)],
    })
    print(f"wrote {csv_path}")
    return EXIT_OK


def _cmd_stability(args) -> int:
    t0 = time.perf_counter()
    try:
        mesh = build_graded(args.M, args.T, args.r)
        FracParams(args.alpha, args.lam)  # alpha in (0, 1), lam >= 0
    except ValueError as e:
        return _config_error(e)
    try:
        rep = envelope_ratio(mesh, args.alpha, args.lam, args.gamma,
                             enforce_gate=not args.ungated)
    except ValueError as e:
        print(f"stability run failed: {e}", file=sys.stderr)
        return EXIT_SOLVER
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "stability.csv"
    with csv_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("j", "t", "ratio"))
        for j, (t, ratio) in enumerate(zip(mesh.nodes[1:], rep.profile), start=1):
            w.writerow((j, f"{t:.6e}", f"{ratio:.6e}"))
    _manifest(out_dir, "stability", {
        "command": "stability", "version": __version__,
        "config_hash": _config_hash(json.dumps(vars(args), sort_keys=True, default=str)),
        "max_ratio": rep.max_ratio, "gated": rep.gated,
        "seconds": time.perf_counter() - t0, "artifacts": [str(csv_path)],
    })
    print(f"max_ratio {rep.max_ratio:.6e}")
    return EXIT_OK


def _table_spec(preset: str, scale: str) -> TableSpec:
    if preset == "table1":
        Ms = (32, 64, 128) if scale == "desk" else (32, 64, 128, 256)
        return TableSpec(
            alphas=(0.3, 0.5, 0.7),
            rs=lambda a: (1.0, (2 - a) / 0.9, (2 - a) / a),
            Ms=Ms, n_rule="N=2M", study="time",
        )
    if preset == "table1-space":
        Ms = (64, 256) if scale == "desk" else (64, 256, 1024)
        return TableSpec(alphas=(0.3, 0.5, 0.7), rs=(1.0,), Ms=Ms,
                         n_rule="M=N^2", study="space")
    if preset == "table2":
        Ms = (128, 256) if scale == "desk" else (256, 512, 1024, 2048)
        return TableSpec(alphas=(0.3, 0.5, 0.7), rs=lambda a: ((2 - a) / a,),
                         Ms=Ms, n_rule="N=M/2", study="global")
    raise ValueError(f"unknown preset {preset!r}")


def _cmd_table(args) -> int:
    t0 = time.perf_counter()
    try:
        spec = _table_spec(args.preset, args.scale)
    except ValueError as e:
        return _config_error(e)
    try:
        rows = table_run(spec)
    except (NonconvergenceError, BudgetError, ValueError, StepRestrictionWarning) as e:
        print(f"table run failed: {e}", file=sys.stderr)
        return EXIT_SOLVER
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{args.preset}.csv"
    csv_path.write_text(rows_to_csv(rows))
    _manifest(out_dir, args.preset, {
        "command": "table", "preset": args.preset, "scale": args.scale,
        "version": __version__,
        "config_hash": _config_hash(f"{args.preset}:{args.scale}"),
        "convention": "two-mesh at coincident nodes; temporal study doubles M at "
                      "fixed N, spatial study doubles N with M per the N-rule",
        "step_restriction_violations": restriction_violations(spec),
        "newton_iters_total": sum(row["newton_iters"] for row in rows),
        "lin_iters_total": sum(row["lin_iters"] for row in rows),
        "seconds": time.perf_counter() - t0, "artifacts": [str(csv_path)],
    })
    print(rows_to_csv(rows), end="")
    return EXIT_OK


def _cmd_check(args) -> int:
    """Quick invariant self-checks (not a substitute for the test suite)."""
    import math

    from .caputo import apply_delta, l1_weights
    from .special import gamma

    rng = np.random.default_rng(7)
    ok = True

    def report(name, passed):
        nonlocal ok
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}")

    mesh = build_graded(64, 1.0, 2.0)
    w = l1_weights(mesh, 0.4, 37)
    report("kappa row-sum identity", abs(w.kappa[:37].sum() - w.diag) < 1e-12 * w.diag)
    report("kappa positivity", bool(np.all(w.kappa > 0)))
    vals = 1.5 + 0.7 * mesh.nodes[:33]
    exact = 0.7 * mesh.nodes[32] ** 0.6 / gamma(1.6)
    report("L1 exact on linear functions",
           abs(apply_delta(mesh, 0.4, vals) - exact) < 1e-12 * max(1, abs(exact)))
    qg = verify_quasi_graded(mesh, 2.0)
    report("graded mesh is quasi-graded", qg.passed and qg.max_ratio <= 2.0)
    g1 = rng.uniform(0.0, 1.0, 32)
    g2 = g1 + rng.uniform(0.0, 1.0, 32)
    small = build_graded(32, 1.0, 2.0)
    V1 = solve_resolvent(small, 0.5, 1.0, g1)
    V2 = solve_resolvent(small, 0.5, 1.0, g2)
    report("resolvent comparison principle", bool(np.all(V1 <= V2 + 1e-13)))
    report("Mittag-Leffler E_1(1) = e", abs(mittag_leffler(1.0, 1.0) - math.e) < 1e-12)
    cf = CoefficientField(a=(lambda p, t: 1 + 0.5 * np.sin(p[:, 0]), 1.0), b=(0.5, 0.3),
                          c=lambda p, t: p[:, 0])
    try:
        check_max_principle(assemble(Grid(2, 32, math.pi), cf, 0.0, BoundarySpec.dirichlet0(2)), 0)
        m_matrix = True
    except MaxPrincipleError:
        m_matrix = False
    report("M-matrix sign pattern of a variable-coefficient L_h", m_matrix)
    return EXIT_OK if ok else EXIT_SOLVER


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fraxolve",
                                description="L1-scheme solvers for semilinear "
                                            "Caputo-fractional parabolic problems")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("ml", help="evaluate the Mittag-Leffler function")
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--s", type=float, required=True)
    s.set_defaults(fn=_cmd_ml)

    s = sub.add_parser("scalar", help="solve the no-spatial-derivative problem")
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--r", type=float, default=1.0)
    s.add_argument("--M", type=int, required=True)
    s.add_argument("--T", type=float, default=1.0)
    s.add_argument("--f", choices=("allen_cahn", "fisher", "linear"), default="linear")
    s.add_argument("--cstar", type=float, default=1.0, help="c* for linear f")
    s.add_argument("--u0", type=float, required=True)
    s.add_argument("--out", default="out")
    s.set_defaults(fn=_cmd_scalar)

    s = sub.add_parser("pde", help="solve the full space-time problem from a config")
    s.add_argument("--config", required=True)
    s.add_argument("--out", default="out")
    s.set_defaults(fn=_cmd_pde)

    s = sub.add_parser("stability", help="stability-envelope ratio run")
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--lam", "--lambda", dest="lam", type=float, default=0.0)
    s.add_argument("--gamma", type=float, required=True)
    s.add_argument("--r", type=float, default=1.0)
    s.add_argument("--M", type=int, required=True)
    s.add_argument("--T", type=float, default=1.0)
    s.add_argument("--ungated", action="store_true",
                   help="allow parameters outside the theorem's gate (report-only)")
    s.add_argument("--out", default="out")
    s.set_defaults(fn=_cmd_stability)

    s = sub.add_parser("table", help="reproduce the convergence tables")
    s.add_argument("--preset", choices=("table1", "table1-space", "table2"),
                   required=True)
    s.add_argument("--scale", choices=("desk", "paper"), default="desk")
    s.add_argument("--out", default="out")
    s.set_defaults(fn=_cmd_table)

    s = sub.add_parser("check", help="run quick invariant self-checks")
    s.set_defaults(fn=_cmd_check)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as e:
        return _config_error(e)


if __name__ == "__main__":
    sys.exit(main())
