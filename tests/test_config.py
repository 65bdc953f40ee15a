import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from fraxolve.cli import EXIT_CONFIG, EXIT_SOLVER, main
from fraxolve.config import ConfigError, parse_config
from fraxolve.mesh import build_graded
from fraxolve.pde import solve_pde
from fraxolve.spatial import fast_inverse


def make(doc: dict) -> str:
    return json.dumps(doc)


BASE_PDE = {
    "mesh": {"M": 4, "T": 1.0, "r": 2.0},
    "grid": {"d": 1, "N": 6, "X": "pi"},
    "problem": {
        "alpha": 0.5,
        "f": {"kind": "allen_cahn", "alpha": 0.5},
        "u0": "sin(x)",
        "bc": {"all": "dirichlet0"},
    },
}


def with_mesh(mesh: dict) -> str:
    return make({**BASE_PDE, "mesh": mesh})


class TestMeshSection:
    def test_graded(self):
        cfg = parse_config(with_mesh({"M": 8, "T": 2.0, "r": 3.0}))
        ref = build_graded(8, 2.0, 3.0)
        np.testing.assert_allclose(cfg.mesh.nodes, ref.nodes)

    def test_defaults(self):
        cfg = parse_config(with_mesh({"M": 8}))
        assert cfg.mesh.T == 1.0
        assert cfg.mesh.r == 1.0

    def test_explicit_nodes(self):
        cfg = parse_config(with_mesh({"nodes": [0.0, 0.25, 1.0]}))
        np.testing.assert_allclose(cfg.mesh.nodes, [0.0, 0.25, 1.0])

    def test_M_must_be_positive_integer(self):
        with pytest.raises(ConfigError, match="mesh.M"):
            parse_config(with_mesh({"M": 0}))
        with pytest.raises(ConfigError, match="mesh.M"):
            parse_config(with_mesh({"M": 2.5}))

    def test_r_below_one_rejected(self):
        with pytest.raises(ConfigError, match="mesh.r"):
            parse_config(with_mesh({"M": 4, "r": 0.5}))

    def test_nodes_too_short(self):
        with pytest.raises(ConfigError, match="mesh.nodes"):
            parse_config(with_mesh({"nodes": [0.0]}))

    @pytest.mark.parametrize(
        "nodes, err",
        [
            ([0.0, 0.5, 0.3, 1.0], "mesh.nodes: mesh nodes must be strictly increasing"),
            ([0.5, 1.0], "mesh.nodes: mesh must start at t_0 = 0"),
            (["a", "b"], r"mesh.nodes\[0\]: expected a number, got 'a'"),
        ],
        ids=["decreasing", "late-start", "strings"],
    )
    def test_bad_nodes_exit_with_config_error(self, nodes, err, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(with_mesh({"nodes": nodes}))
        assert main(["pde", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        stderr = capsys.readouterr().err
        assert re.match(f"config error: {err}", stderr) and "Traceback" not in stderr


class TestKeyValidation:
    def test_unknown_root_key(self):
        with pytest.raises(ConfigError, match="meshh"):
            parse_config(make({"meshh": {"M": 4}, "mesh": {"M": 4}}))

    def test_output_root_key_rejected(self):
        doc = json.loads(make(BASE_PDE))
        doc["output"] = {"dir": "out"}
        with pytest.raises(ConfigError, match="output"):
            parse_config(make(doc))

    def test_mesh_required(self):
        with pytest.raises(ConfigError, match="mesh"):
            parse_config(make({"grid": {"d": 1, "N": 4}}))

    @pytest.mark.parametrize("key", ["grid", "problem"])
    def test_grid_and_problem_required(self, key):
        # there is no grid-less (scalar) config: the scalar command takes flags
        doc = {k: v for k, v in BASE_PDE.items() if k != key}
        with pytest.raises(ConfigError, match=rf"<root>: missing key\(s\) \['{key}'\]"):
            parse_config(make(doc))

    def test_unknown_problem_key(self):
        doc = json.loads(make(BASE_PDE))
        doc["problem"]["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            parse_config(make(doc))

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{not json")


class TestGridSection:
    def test_pi_extent(self):
        cfg = parse_config(make(BASE_PDE))
        assert cfg.grid.X == math.pi

    def test_numeric_extent(self):
        doc = json.loads(make(BASE_PDE))
        doc["grid"]["X"] = 2.0
        assert parse_config(make(doc)).grid.X == 2.0

    def test_bad_dimension(self):
        doc = json.loads(make(BASE_PDE))
        doc["grid"]["d"] = 3
        with pytest.raises(ConfigError, match="dimension"):
            parse_config(make(doc))


class TestProblemSection:
    def test_alpha_range(self):
        for bad in (0.0, 1.0, 1.5):
            doc = json.loads(make(BASE_PDE))
            doc["problem"]["alpha"] = bad
            with pytest.raises(ConfigError, match="alpha"):
                parse_config(make(doc))

    def test_f_kinds(self):
        for kind, probe in (("fisher", 0.5), ("linear", 0.3), ("zero", 1.0)):
            doc = json.loads(make(BASE_PDE))
            doc["problem"]["f"] = {"kind": kind}
            cfg = parse_config(make(doc))
            assert np.isfinite(cfg.problem.f.eval(None, 0.0, probe))
        doc = json.loads(make(BASE_PDE))
        doc["problem"]["f"] = {"kind": "cubic"}
        with pytest.raises(ConfigError, match="cubic"):
            parse_config(make(doc))

    def test_allen_cahn_alpha_defaults_to_the_problem_alpha(self):
        doc = json.loads(make(BASE_PDE))
        doc["problem"]["alpha"] = 0.3
        doc["problem"]["f"] = {"kind": "allen_cahn"}
        f = parse_config(make(doc)).problem.f
        assert f.lam == 1 / 0.3
        assert f.eval(None, 0.0, 0.5) == (0.5 * 0.5 * 0.5 - 0.5) / 0.3

    def test_linear_cstar(self):
        doc = json.loads(make(BASE_PDE))
        doc["problem"]["f"] = {"kind": "linear", "cstar": -2.0}
        cfg = parse_config(make(doc))
        assert cfg.problem.f.eval(None, 0.0, 1.0) == pytest.approx(-2.0)
        assert cfg.problem.f.lam == 2.0

    def test_u0_expression(self):
        cfg = parse_config(make(BASE_PDE))
        pts = cfg.grid.points()
        np.testing.assert_allclose(cfg.problem.u0(pts), np.sin(pts[:, 0]))

    def test_u0_parse_error_reports_path(self):
        doc = json.loads(make(BASE_PDE))
        doc["problem"]["u0"] = "sin(q)"
        with pytest.raises(ConfigError, match="problem.u0"):
            parse_config(make(doc))


# (problem entry, bad value, the path the error names)
BAD_PROBLEMS = [
    ("f", {"kind": "linear", "F": "1 + x"}, "problem.f.F"),
    ("f", {"kind": "linear", "cstar": [1]}, "problem.f.cstar"),
    ("f", {"kind": "allen_cahn", "alpha": 1.5}, "problem.f.alpha"),
    ("f", {"kind": "fisher", "alpha": 0.3}, r"problem.f: unknown key\(s\) \['alpha'\]"),
    ("f", {"kind": "zero", "cstar": 5}, r"problem.f: unknown key\(s\) \['cstar'\]"),
    ("bc", {"x-": {"kind": "neumann"}, "x+": {"kind": "dirichlet"}}, "problem.bc.x-.kind"),
    ("bc", {"x-": {"kind": "periodic"}, "x+": {"kind": "dirichlet"}}, "problem.bc: periodic"),
    ("bc", {"x-": {"kind": "dirichlet"}, "x+": {"kind": "dirichlet", "value": [1]}},
     r"problem.bc.x\+.value"),
    ("bc", {"x-": {"kind": "robin", "value": -50}, "x+": {"kind": "dirichlet"}},
     r"problem.bc.x-.value: must be >= 0.0, got -50.0"),
    ("bc", {"x-": {"kind": "robin", "value": "-50"}, "x+": {"kind": "dirichlet"}},
     r"problem.bc.x-.value: must be >= 0.0, got -50.0"),
    # arithmetic that fails: Python floats raise on constants, numpy gives nan on the nodes
    ("coefficients", {"a": ["1/0"]}, r"problem.coefficients.a\[0\]: cannot evaluate '1/0'"),
    ("coefficients", {"a": ["1 + x + 1/0"]}, r"problem.coefficients.a\[0\]: cannot evaluate"),
    ("coefficients", {"a": ["10^400"]}, r"problem.coefficients.a\[0\]: cannot evaluate '10\^400'"),
    ("coefficients", {"c": "1e308*10"}, "problem.coefficients.c: '1e308\\*10' has a non-finite value"),
    ("bc", {"x-": {"kind": "dirichlet", "value": "2/(1 - 1)"}, "x+": {"kind": "dirichlet"}},
     r"problem.bc.x-.value: cannot evaluate"),
    ("bc", {"x-": {"kind": "dirichlet", "value": "t + 10^400"}, "x+": {"kind": "dirichlet"}},
     r"problem.bc.x-.value: cannot evaluate 't \+ 10\^400'"),
    ("coefficients", {"c": "x + (-1)^0.5"}, r"problem.coefficients.c: 'x \+ \(-1\)\^0.5' has a complex value"),
    ("u0", "(-1)^0.5", r"problem.u0: '\(-1\)\^0.5' has a complex value"),
    ("u0", "(x - 1)^0.5", r"problem.u0: '\(x - 1\)\^0.5' has a non-finite value"),
]
BAD_IDS = ["linear-F-expr", "linear-cstar-list", "allen-cahn-alpha", "fisher-alpha",
           "zero-cstar", "neumann-face", "unpaired-periodic", "list-face-value",
           "negative-robin", "negative-robin-string", "coef-division-by-zero",
           "coef-x-division-by-zero", "coef-overflow", "coef-infinite",
           "face-value-division-by-zero", "face-value-t-overflow", "coef-x-complex", "u0-complex",
           "u0-nan-at-nodes"]


def bad_problem(entry, value) -> dict:
    return {**BASE_PDE, "problem": {**BASE_PDE["problem"], entry: value}}


class TestBadProblem:
    @pytest.mark.parametrize("entry, value, path", BAD_PROBLEMS, ids=BAD_IDS)
    def test_config_error_names_the_path(self, entry, value, path):
        with pytest.raises(ConfigError, match=path):
            parse_config(make(bad_problem(entry, value)))

    @pytest.mark.parametrize("entry, value, path", BAD_PROBLEMS, ids=BAD_IDS)
    def test_pde_command_exits_with_config_error(self, entry, value, path, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(make(bad_problem(entry, value)))
        assert main(["pde", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert re.match(f"config error: {path}", err) and "Traceback" not in err


def test_negative_robin_expression_fails_the_solve(tmp_path, capsys):
    # mu = x - 50 is negative on the x- face: parse_config cannot tell, the
    # maximum-principle check of the assembled L_h does
    bc = {"x-": {"kind": "robin", "value": "x - 50"}, "x+": {"kind": "dirichlet"}}
    doc = {**BASE_PDE, "problem": {**BASE_PDE["problem"], "f": {"kind": "zero"}, "bc": bc}}
    cfg = tmp_path / "robin.json"
    cfg.write_text(make(doc))
    assert main(["pde", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert re.match(r"pde solve failed: discrete maximum principle violated at level 1, node \(0,\)", err)
    assert not (tmp_path / "solution.csv").exists()


def test_coefficient_given_on_the_domain_only_solves_with_robin_face(tmp_path):
    # a = 1 + sqrt(x) is undefined left of x = 0; the x- Robin row must not
    # evaluate it at x = -h/2
    bc = {"x-": {"kind": "robin", "value": 1.0}, "x+": {"kind": "dirichlet"}}
    doc = {**BASE_PDE, "problem": {**BASE_PDE["problem"], "f": {"kind": "zero"}, "bc": bc,
                                   "coefficients": {"a": ["1 + x^0.5"]}}}
    cfg = tmp_path / "robin.json"
    cfg.write_text(make(doc))
    assert main(["pde", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "solution.csv").exists()


class TestCoefficients:
    def test_expression_coefficient(self):
        doc = json.loads(make(BASE_PDE))
        doc["problem"]["coefficients"] = {"a": ["1 + x/2"], "c": 1.0}
        cfg = parse_config(make(doc))
        # no coefficient references t, so L_h is assembled once
        assert cfg.problem.coeffs.time_dependent is False
        pts = cfg.grid.points()
        np.testing.assert_allclose(
            cfg.problem.coeffs.a[0](pts, 0.0), 1.0 + pts[:, 0] / 2
        )

    def test_time_varying_expression_coefficient(self):
        doc = json.loads(make(BASE_PDE))
        doc["problem"]["coefficients"] = {"a": ["1 + t*x"], "c": 1.0}
        cfg = parse_config(make(doc))
        assert cfg.problem.coeffs.time_dependent is True

    def test_time_varying_robin_face(self):
        # mu enters L_h, so a t-dependent Robin value alone marks it time-varying
        doc = json.loads(make(BASE_PDE))
        doc["problem"]["coefficients"] = {"a": ["1 + x/2"]}
        doc["problem"]["bc"] = {"x-": {"kind": "dirichlet"},
                                "x+": {"kind": "robin", "value": "1 + t"}}
        assert parse_config(make(doc)).problem.coeffs.time_dependent is True
        doc["problem"]["bc"]["x+"]["value"] = "1 + x"
        assert parse_config(make(doc)).problem.coeffs.time_dependent is False

    def test_constant_coefficients_not_time_dependent(self):
        doc = json.loads(make(BASE_PDE))
        doc["problem"]["coefficients"] = {"a": [2.0], "c": 0.5}
        cfg = parse_config(make(doc))
        assert cfg.problem.coeffs.time_dependent is False
        assert cfg.problem.coeffs.a == (2.0,)

    def test_variable_free_expressions_fold_to_floats(self):
        doc = json.loads(make(BASE_PDE))
        doc["grid"] = {"d": 2, "N": 6, "X": "pi"}
        doc["problem"]["coefficients"] = {"a": ["2", "1 + pi/2"], "b": ["0", "0"], "c": "0"}
        cfg = parse_config(make(doc))
        coeffs = cfg.problem.coeffs
        assert coeffs.a == (2.0, 1.0 + math.pi / 2)
        assert coeffs.b == (0.0, 0.0) and coeffs.c == 0.0
        assert not coeffs.has_convection and coeffs.time_dependent is False
        assert fast_inverse(cfg.grid, cfg.problem.coeffs, cfg.problem.bc) is not None
        # an expression with a variable stays a callable
        doc["problem"]["coefficients"] = {"a": ["2", "1 + 0*y"]}
        assert callable(parse_config(make(doc)).problem.coeffs.a[1])

    def test_infinite_at_the_origin_only_is_accepted(self):
        # parse_config evaluates at x = y = t = 0, but a is sampled at midpoints
        doc = json.loads(make(BASE_PDE))
        doc["problem"]["coefficients"] = {"a": ["1/x"]}
        a = parse_config(make(doc)).problem.coeffs.a[0]
        np.testing.assert_allclose(a(np.array([[0.5]]), 0.0), [2.0])

    def test_wrong_arity(self):
        doc = json.loads(make(BASE_PDE))
        doc["problem"]["coefficients"] = {"a": [1.0, 1.0]}
        with pytest.raises(ConfigError, match="coefficients.a"):
            parse_config(make(doc))


class TestBoundarySection:
    def test_per_face(self):
        doc = json.loads(make(BASE_PDE))
        doc["problem"]["bc"] = {
            "x-": {"kind": "dirichlet", "value": 0.0},
            "x+": {"kind": "dirichlet", "value": "t"},
        }
        cfg = parse_config(make(doc))
        assert callable(cfg.problem.bc.faces["x+"].value)

    def test_constant_string_value_is_constant_data(self):
        # "1" folds to the float 1.0, as a coefficient does: the data does not
        # vary, is taken once per operator, and the run is the run with 1
        doc = json.loads(make(BASE_PDE))
        doc["problem"]["f"] = {"kind": "fisher"}  # lam = 1 keeps M = 4 inside the step restriction
        runs = []
        for value in ("1", 1):
            doc["problem"]["bc"] = {"x-": {"kind": "dirichlet"},
                                    "x+": {"kind": "dirichlet", "value": value}}
            cfg = parse_config(make(doc))
            assert cfg.problem.bc.faces["x+"].value == 1.0
            assert not cfg.problem.bc.dirichlet_data_varies
            runs.append(solve_pde(cfg.problem, cfg.mesh, cfg.grid, cfg.solver))
        assert np.array_equal(runs[0].fields, runs[1].fields)
        assert runs[0].newton_iters == runs[1].newton_iters

    def test_periodic_shorthand(self):
        doc = json.loads(make(BASE_PDE))
        doc["problem"]["bc"] = {"all": "periodic"}
        doc["problem"]["f"] = {"kind": "zero"}
        cfg = parse_config(make(doc))
        assert all(c.kind == "periodic" for c in cfg.problem.bc.faces.values())

    def test_missing_face(self):
        doc = json.loads(make(BASE_PDE))
        doc["problem"]["bc"] = {"x-": {"kind": "dirichlet"}}
        with pytest.raises(ConfigError, match=r"x\+"):
            parse_config(make(doc))

    def test_unknown_shorthand(self):
        doc = json.loads(make(BASE_PDE))
        doc["problem"]["bc"] = {"all": "absorbing"}
        with pytest.raises(ConfigError, match="absorbing"):
            parse_config(make(doc))


class TestSolverSection:
    def test_knobs(self):
        doc = json.loads(make(BASE_PDE))
        doc["solver"] = {"nonlin_tol": 1e-12, "max_newton": 50}
        cfg = parse_config(make(doc))
        assert cfg.solver.nonlin_tol == 1e-12
        assert cfg.solver.max_newton == 50

    def test_unknown_knob(self):
        # the line-search damping is a fixed constant of the PDE solver, not a knob,
        # and a run stops on a violated step restriction by escalating the warning
        for knob, value in (("tol", 1e-8), ("damping", 0.5), ("strict_restriction", True)):
            doc = json.loads(make(BASE_PDE))
            doc["solver"] = {knob: value}
            with pytest.raises(ConfigError, match=rf"solver: unknown key\(s\) \['{knob}'\]"):
                parse_config(make(doc))

    def test_linear_solver_knobs_rejected(self):
        # the operator picks the linear solver and CG takes its tolerance from
        # the Newton tolerance: no linear tolerance or cap to set
        for knob, value in (("lin_tol", 1e-8), ("lin_max_iters", 100)):
            doc = json.loads(make(BASE_PDE))
            doc["solver"] = {knob: value}
            with pytest.raises(ConfigError, match=knob):
                parse_config(make(doc))


class TestEndToEnd:
    def test_parsed_problem_solves(self):
        cfg = parse_config(make(BASE_PDE))
        sol = solve_pde(cfg.problem, cfg.mesh, cfg.grid, cfg.solver)
        assert np.all(np.isfinite(sol.fields[-1]))

    def test_time_varying_robin_face_matches_per_level_assembly(self):
        doc = json.loads(make(BASE_PDE))
        doc["mesh"]["M"] = 8
        doc["problem"]["coefficients"] = {"a": ["1 + x/2"]}
        doc["problem"]["bc"] = {"x-": {"kind": "dirichlet"},
                                "x+": {"kind": "robin", "value": "1 + t"}}
        cfg = parse_config(make(doc))
        sol = solve_pde(cfg.problem, cfg.mesh, cfg.grid, cfg.solver)

        def solve_with(time_dependent):
            coeffs = dataclasses.replace(cfg.problem.coeffs, time_dependent=time_dependent)
            problem = dataclasses.replace(cfg.problem, coeffs=coeffs)
            return solve_pde(problem, cfg.mesh, cfg.grid, cfg.solver).fields

        np.testing.assert_array_equal(sol.fields, solve_with(True))
        # freezing mu at t_1 would change the solution
        assert np.max(np.abs(sol.fields - solve_with(False))) > 1e-6


def _face_doc(kind: str, value) -> str:
    """BASE_PDE with ``value`` on the x- face of ``kind`` (both faces when periodic)."""
    other = {"kind": kind} if kind == "periodic" else {"kind": "dirichlet"}
    bc = {"x-": {"kind": kind, "value": value}, "x+": other}
    return make({**BASE_PDE, "problem": {**BASE_PDE["problem"], "bc": bc}})


# no explain phase: it imports libcst, whose DeprecationWarning pyproject.toml makes an error
@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          phases=(Phase.generate, Phase.shrink))
@given(kind=st.sampled_from(["dirichlet", "periodic", "robin"]),
       value=st.integers(-10**6, 10**6) | st.floats(allow_nan=False, allow_infinity=False))
def test_face_value_number_and_string_parse_alike(kind, value):
    # a number and its constant-expression string are one face value: the same
    # float, or, for a negative Robin mu, the same ConfigError
    parsed = []
    for form in (value, repr(value)):
        if kind == "robin" and value < 0:
            with pytest.raises(ConfigError, match=r"problem.bc.x-.value: must be >= 0.0"):
                parse_config(_face_doc(kind, form))
            continue
        face = parse_config(_face_doc(kind, form)).problem.bc.faces["x-"].value
        assert type(face) is float
        parsed.append(face)
    assert parsed in ([], [float(value)] * 2)
