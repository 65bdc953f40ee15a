"""Fast tests of the benchmark itself, at tiny sizes.

    python -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fraxolve.pde
from fraxolve.scalar import NonconvergenceError
from perfbench import bench, tracing, verify, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _patched_now():
    return [getattr(owner, attr) for owner, attr, _ in tracing.PATCH_POINTS] + [
        fraxolve.pde.spla
    ]


class TestTracer:
    def test_restores_every_patched_attribute(self):
        before = _patched_now()
        tracer = tracing.Tracer()
        tracer.install()
        during = _patched_now()
        assert all(a is not b for a, b in zip(before, during))
        tracer.restore()
        assert all(a is b for a, b in zip(before, _patched_now()))

    def test_restores_after_an_exception(self):
        before = _patched_now()
        tracer = tracing.Tracer()
        with pytest.raises(ZeroDivisionError):
            with tracer.recording():
                1 / 0
        assert all(a is b for a, b in zip(before, _patched_now()))
        assert not tracer.enabled

    def test_patch_attr_restores(self):
        original = fraxolve.pde.solve_pde
        with pytest.raises(KeyError):
            with tracing.patch_attr(fraxolve.pde, "solve_pde", None):
                raise KeyError
        assert fraxolve.pde.solve_pde is original

    @staticmethod
    def _assert_nested(spans):
        child_sum = [0] * len(spans)
        for name, start, end, parent in spans:
            assert start <= end
            if parent >= 0:
                _, p_start, p_end, _ = spans[parent]
                assert p_start <= start and end <= p_end, name
                child_sum[parent] += end - start
        for (name, start, end, _), covered in zip(spans, child_sum):
            assert covered <= end - start, name

    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_child_spans_lie_within_their_parent(self, workload):
        tracer = tracing.Tracer()
        ops = workloads.build(workload, 1, "tiny", tracer.wrap)
        p = bench.run_pass(ops, tracer)
        assert p.failed == 0 and tracer.spans
        self._assert_nested(tracer.spans)
        assert 0.0 < p.layers["trace.coverage_frac"] <= 1.0

    def test_spans_stay_nested_under_a_thread_pool(self, monkeypatch):
        # table_run solves on FRAXOLVE_THREADS threads; more threads than cores
        monkeypatch.setenv("FRAXOLVE_THREADS", "4")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            tracer = tracing.Tracer()
            ops = workloads.build("table_slice", 1, "tiny", tracer.wrap)
            p = bench.run_pass(ops, tracer)
        finally:
            sys.setswitchinterval(interval)
        assert p.failed == 0
        self._assert_nested(tracer.spans)
        assert tracing.span_table(tracer.spans)["calls"]["pde.solve_pde"] == 4


class TestMetricNames:
    def test_benchmark_json_names(self):
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
        names += [w["name"] for w in SPEC["workloads"]]
        assert len(names) == len(set(names))
        assert all(NAME.match(n) for n in names)
        assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
        layer_map = json.loads((ROOT / "perfbench" / "layers.json").read_text())
        assert set(layer_map) == {m["name"] for m in SPEC["per_layer"]}

    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_emitted_names_and_units_match(self, workload):
        run = bench.measure(workload, 2, 0.0, trace=True, size="tiny")
        assert run.failed == 0 and not run.problems
        for key, emitted in (
            ("end_to_end", bench.end_to_end(run, [1.0])),
            ("per_layer", bench.per_layer(run)),
        ):
            assert {m["name"]: m["unit"] for m in SPEC[key]} == {
                k: bench.unit_of(k) for k in emitted
            }
            assert all(isinstance(v, (int, float)) for v in emitted.values())


class TestFailureCounting:
    def test_clean_outputs_pass(self):
        ops = workloads.build("scalar_stab", 3, "tiny")
        p = bench.run_pass(ops)
        assert (p.attempted, p.failed) == (3, 0)

    def test_pde_node_perturbed_by_1e_6_fails(self):
        (op,) = workloads.build("ac2d", 0, "tiny")
        sol = op.run()
        assert op.check(sol) == [[]]
        sol.fields[2, sol.grid.n_nodes // 2] += 1e-6
        (problems,) = op.check(sol)
        assert problems and "residual" in problems[0]

    def test_scalar_value_perturbed_by_1e_6_fails(self):
        op = workloads.build("scalar_stab", 0, "tiny")[0]
        traj = op.run()
        traj.values[7] += 1e-6
        assert op.check(traj)[0]

    def test_resolvent_value_perturbed_by_1e_6_fails(self):
        op = workloads.build("scalar_stab", 0, "tiny")[1]
        V = op.run()
        V[-1] += 1e-6
        assert op.check(V)[0]

    def test_table_row_fails_with_its_solve(self):
        (op,) = workloads.build("table_slice", 0, "tiny")
        rows, solved = op.run()
        coarse = next(sol for _, _, sol in solved if sol.mesh.M == rows[1]["M"] * 2)
        coarse.fields[-1, coarse.grid.n_nodes // 2] += 1e-6
        first, second = op.check((rows, solved))
        assert not first and second

    def test_table_row_with_a_wrong_error_fails(self):
        (op,) = workloads.build("table_slice", 0, "tiny")
        rows, solved = op.run()
        rows[1]["err"] *= 1.0 + 1e-6
        first, second = op.check((rows, solved))
        assert not first and any("err" in p for p in second)

    def test_injected_nonconvergence_is_counted(self):
        ops = workloads.build("table_slice", 0, "tiny") + workloads.build("ac2d", 0, "tiny")

        def boom():
            raise NonconvergenceError(3, 1.0)

        ops[0].run = boom
        p = bench.run_pass(ops)
        assert (p.attempted, p.failed) == (3, 2)
        assert "NonconvergenceError" in p.problems[0]

    def test_out_of_range_field_fails(self):
        assert verify.range_problems(np.array([0.0, 1.5]), (0.0, 1.0), 1e-10)
        assert not verify.range_problems(np.array([0.0, 1.0]), (0.0, 1.0), 1e-10)

    def test_reference_mismatch_fails(self):
        tol = {"x": (1e-9, 0.0)}
        assert not verify.compare({"x": [1.0, 2.0]}, {"x": [1.0, 2.0]}, tol)
        assert verify.compare({"x": [1.0, 2.0 + 1e-6]}, {"x": [1.0, 2.0]}, tol)


class TestInputs:
    def test_seed_zero_is_the_stated_problem(self):
        (op,) = workloads.build("march1d", 0, "tiny")
        sol = op.run()
        x = sol.grid.points()[:, 0]
        np.testing.assert_array_equal(sol.fields[0], 0.5 + 0.3 * np.cos(2 * x))

    @pytest.mark.parametrize("workload", ["ac2d", "march1d"])
    def test_seeds_are_reproducible_and_in_range(self, workload):
        first = [op.run().fields[0] for op in workloads.build(workload, 7, "tiny")]
        again = [op.run().fields[0] for op in workloads.build(workload, 7, "tiny")]
        other = [op.run().fields[0] for op in workloads.build(workload, 8, "tiny")]
        np.testing.assert_array_equal(first[0], again[0])
        assert not np.array_equal(first[0], other[0])
        lo = 0.0 if workload == "march1d" else -1.0
        assert lo <= first[0].min() and first[0].max() <= 1.0


class TestCommandLine:
    def test_tiny_run_prints_one_result_line(self):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "scalar_stab", "--seed", "4",
             "--seconds", "0", "--trace", "0", "--size", "tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        # a warm-up pass and one timed pass of three operations each
        assert result["correct"] and result["attempted"] == 6 and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}

    def test_fails_without_the_package_source(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ac2d", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=170,
        )
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
