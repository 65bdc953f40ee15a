"""JSON configuration ingestion for the command-line front end.

A config holds one solve: ``mesh`` (``M, T, r`` or ``nodes``), ``grid``
(``d, N, X``), ``problem`` (``alpha, f, u0, coefficients, bc``) and an
optional ``solver``.  Unknown keys and bad values raise ConfigError with
their path; expressions use the grammar in :mod:`fraxolve.expressions`.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .expressions import ExpressionError, parse_expression
from .mesh import TemporalMesh, build_graded
from .nonlinearity import builtin
from .pde import Problem, SolverConfig
from .spatial import BoundaryCondition, BoundarySpec, CoefficientField, Grid, _FACE_NAMES

__all__ = ["RunConfig", "ConfigError", "parse_config"]


class ConfigError(ValueError):
    def __init__(self, path: str, msg: str):
        super().__init__(f"{path}: {msg}")
        self.path = path


def _require_keys(obj: dict, path: str, required: tuple, optional: tuple = ()):
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(path, f"unknown key(s) {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(path, f"missing key(s) {sorted(missing)}")


def _number(obj, path, *, minimum=None, strict_min=None, integer=False):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(path, f"expected a number, got {obj!r}")
    if integer and int(obj) != obj:
        raise ConfigError(path, f"expected an integer, got {obj!r}")
    v = int(obj) if integer else float(obj)
    if minimum is not None and v < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {v}")
    if strict_min is not None and v <= strict_min:
        raise ConfigError(path, f"must be > {strict_min}, got {v}")
    return v


def _expression(text, path, **at):
    """The compiled expression and its value at ``at`` (x = y = t = 0 by default).

    The evaluation turns arithmetic that fails whatever x, y, t hold into a
    ConfigError: constant subexpressions are Python floats, which raise on
    1/0 and 10^400 and turn (-1)^0.5 complex, while numpy gives inf and nan
    on the variables' float arrays.  The value must also be finite when it
    does not depend on x, y, t or is taken at the given points ``at``.
    """
    if not isinstance(text, str):
        raise ConfigError(path, f"expected an expression string, got {text!r}")
    try:
        expr = parse_expression(text)
    except ExpressionError as e:
        raise ConfigError(path, str(e)) from None
    try:
        with np.errstate(all="ignore"):
            value = np.asarray(expr(**at))
    except ArithmeticError as e:
        raise ConfigError(path, f"cannot evaluate {text!r}: {e}") from None
    if np.iscomplexobj(value):
        raise ConfigError(path, f"{text!r} has a complex value")
    if (at or not expr.variables) and not np.isfinite(value).all():
        raise ConfigError(path, f"{text!r} has a non-finite value")
    return expr, value


def _space_fn(expr_fn):
    """Adapt an expression to the (points, t) coefficient signature."""

    def fn(pts, t):
        x = pts[:, 0]
        y = pts[:, 1] if pts.shape[1] > 1 else np.zeros_like(x)
        return np.broadcast_to(np.asarray(expr_fn(x=x, y=y, t=t), dtype=float), x.shape)

    fn.variables = expr_fn.variables
    return fn


def _coef_entry(obj, path):
    """A float, or a (points, t) callable; an expression without x, y, t folds to a float."""
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return float(obj)
    if isinstance(obj, str):
        expr, value = _expression(obj, path)
        return _space_fn(expr) if expr.variables else float(value)
    raise ConfigError(path, "expected a number or expression string")


@dataclass
class RunConfig:
    """One solve: ``solve_pde(problem, mesh, grid, solver)``."""

    mesh: TemporalMesh
    grid: Grid
    problem: Problem
    solver: SolverConfig


def _parse_mesh(obj, path):
    if "nodes" in obj:
        _require_keys(obj, path, ("nodes",))
        if not isinstance(obj["nodes"], list):
            raise ConfigError(f"{path}.nodes", "expected a list of numbers")
        nodes = [_number(v, f"{path}.nodes[{i}]") for i, v in enumerate(obj["nodes"])]
        try:
            return TemporalMesh(np.array(nodes))
        except ValueError as e:  # fewer than two nodes, t_0 != 0 or not increasing
            raise ConfigError(f"{path}.nodes", str(e)) from None
    _require_keys(obj, path, ("M",), ("T", "r"))
    M = _number(obj["M"], f"{path}.M", minimum=1, integer=True)
    T = _number(obj.get("T", 1.0), f"{path}.T", strict_min=0.0)
    r = _number(obj.get("r", 1.0), f"{path}.r", minimum=1.0)
    return build_graded(M, T, r)


def _parse_grid(obj, path):
    _require_keys(obj, path, ("d", "N"), ("X",))
    d = _number(obj["d"], f"{path}.d", integer=True)
    if d not in (1, 2):
        raise ConfigError(f"{path}.d", "dimension must be 1 or 2")
    N = _number(obj["N"], f"{path}.N", minimum=2, integer=True)
    X = obj.get("X", math.pi)
    if X == "pi":
        X = math.pi
    else:
        X = _number(X, f"{path}.X", strict_min=0.0)
    return Grid(d=d, N=N, X=X)


def _alpha(obj, path):
    alpha = _number(obj, path, strict_min=0.0)
    if not alpha < 1.0:
        raise ConfigError(path, "alpha must be in (0, 1)")
    return alpha


_F_KEYS = {"allen_cahn": ("alpha",), "fisher": (), "linear": ("cstar", "F"), "zero": ()}


def _parse_f(obj, path, alpha):
    """The reaction; an Allen-Cahn ``alpha`` defaults to the problem's."""
    _require_keys(obj, path, ("kind",), ("alpha", "cstar", "F"))
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _F_KEYS:
        raise ConfigError(f"{path}.kind", f"unknown nonlinearity kind {kind!r}")
    _require_keys(obj, path, ("kind",), _F_KEYS[kind])
    if kind == "allen_cahn":
        return builtin("allen_cahn", alpha=_alpha(obj.get("alpha", alpha), f"{path}.alpha"))
    if kind == "fisher":
        return builtin("fisher")
    if kind == "linear":
        cstar = _number(obj.get("cstar", 0.0), f"{path}.cstar")
        return builtin("linear", cstar=cstar, F=_number(obj.get("F", 0.0), f"{path}.F"))
    return builtin("linear", cstar=0.0, F=0.0)  # "zero"


def _parse_bc(obj, path, d):
    names = _FACE_NAMES[d]
    if isinstance(obj, dict) and "all" in obj:
        _require_keys(obj, path, ("all",))
        kind = obj["all"]
        if kind == "dirichlet0":
            return BoundarySpec.dirichlet0(d)
        if kind == "periodic":
            return BoundarySpec.all_periodic(d)
        raise ConfigError(f"{path}.all", f"unknown boundary shorthand {kind!r}")
    faces = {}
    _require_keys(obj, path, names)
    for name in names:
        spec = obj[name]
        _require_keys(spec, f"{path}.{name}", ("kind",), ("value",))
        value = spec.get("value", 0.0)
        if isinstance(value, str):
            value = _space_fn(_expression(value, f"{path}.{name}.value")[0])
        else:  # a negative Robin mu breaks the maximum principle
            value = _number(value, f"{path}.{name}.value",
                            minimum=0.0 if spec["kind"] == "robin" else None)
        try:
            faces[name] = BoundaryCondition(spec["kind"], value)
        except ValueError as e:  # an unknown kind
            raise ConfigError(f"{path}.{name}.kind", str(e)) from None
    try:
        return BoundarySpec(faces, d)
    except ValueError as e:  # unpaired periodic faces
        raise ConfigError(path, str(e)) from None


def _parse_solver(obj, path):
    fields = ("nonlin_tol", "max_newton", "strict_restriction")
    _require_keys(obj, path, (), fields)
    kwargs = {}
    for k in fields:
        if k in obj:
            if k == "max_newton":
                kwargs[k] = _number(obj[k], f"{path}.{k}", minimum=1, integer=True)
            elif k == "strict_restriction":
                if not isinstance(obj[k], bool):
                    raise ConfigError(f"{path}.{k}", "expected a boolean")
                kwargs[k] = obj[k]
            else:
                kwargs[k] = _number(obj[k], f"{path}.{k}", strict_min=0.0)
    return SolverConfig(**kwargs)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError("<document>", f"invalid JSON: {e}") from None
    _require_keys(raw, "<root>", ("mesh", "grid", "problem"), ("solver",))
    mesh = _parse_mesh(raw["mesh"], "mesh")
    grid = _parse_grid(raw["grid"], "grid")
    solver = _parse_solver(raw.get("solver", {}), "solver")

    p = raw["problem"]
    _require_keys(p, "problem", ("f",), ("u0", "alpha", "coefficients", "bc"))
    alpha = _alpha(p.get("alpha", 0.5), "problem.alpha")
    f = _parse_f(p["f"], "problem.f", alpha)
    coeffs_obj = p.get("coefficients", {})
    _require_keys(coeffs_obj, "problem.coefficients", (), ("a", "b", "c"))
    a_obj = coeffs_obj.get("a", [1.0] * grid.d)
    if not isinstance(a_obj, list) or len(a_obj) != grid.d:
        raise ConfigError("problem.coefficients.a", f"expected {grid.d} entries")
    a = tuple(_coef_entry(v, f"problem.coefficients.a[{i}]") for i, v in enumerate(a_obj))
    b = None
    if "b" in coeffs_obj:
        b_obj = coeffs_obj["b"]
        if not isinstance(b_obj, list) or len(b_obj) != grid.d:
            raise ConfigError("problem.coefficients.b", f"expected {grid.d} entries")
        b = tuple(_coef_entry(v, f"problem.coefficients.b[{i}]") for i, v in enumerate(b_obj))
    c = _coef_entry(coeffs_obj["c"], "problem.coefficients.c") if "c" in coeffs_obj else None
    bc = _parse_bc(p.get("bc", {"all": "dirichlet0"}), "problem.bc", grid.d)
    # L_h holds a, b, c and every Robin mu, so it is reassembled per level
    # when any of them references t
    robin = tuple(face.value for face in bc.faces.values() if face.kind == "robin")
    time_dependent = any(
        "t" in v.variables for v in a + (b or ()) + (c,) + robin if callable(v)
    )
    coeffs = CoefficientField(a=a, b=b, c=c, time_dependent=time_dependent)
    pts = grid.points()  # u0 is checked where the solve evaluates it, at the nodes
    y = pts[:, 1] if grid.d == 2 else 0.0
    u0_expr, _ = _expression(p.get("u0", "0"), "problem.u0", x=pts[:, 0], y=y)
    u0 = functools.partial(_space_fn(u0_expr), t=0.0)
    problem = Problem(coeffs=coeffs, bc=bc, f=f, u0=u0, alpha=alpha)
    return RunConfig(mesh=mesh, grid=grid, problem=problem, solver=solver)
