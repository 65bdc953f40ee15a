"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table_slice --seed 0 --seconds 36 --trace 0

Run from the repository root; the package is imported from ``src/`` of the
same checkout.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer split with ``--trace 1``.  The
lines before it record the environment and a one-line summary that includes
``failed_frac``.  The full record, and with ``--trace 1`` the spans of the
last traced pass, are written under ``.bench_out/``.

Exit codes: 0 when every output passed its checks, 1 when a check failed
(the result is still printed), 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3


def _use_checkout_source():
    """Import fraxolve and the benchmark from this checkout only."""
    if not (SRC / "fraxolve" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'fraxolve'}", file=sys.stderr)
        sys.exit(2)
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if p and str(Path(p).resolve()) != here]
    for path in (str(ROOT), str(SRC)):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)
    import fraxolve

    if Path(fraxolve.__file__).resolve().parent != SRC / "fraxolve":
        print(f"perfbench: imported fraxolve from {fraxolve.__file__}", file=sys.stderr)
        sys.exit(2)


def _parse(argv):
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--setup-probe", type=float, default=None, metavar="T0",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _setup_probe(args):
    """Child process: build the inputs and print seconds since ``time.monotonic()`` read T0."""
    from perfbench import workloads

    reference = workloads.load_reference() if args.size == "full" and args.seed == 0 else None
    workloads.build(args.workload, args.seed, args.size, reference=reference)
    print(repr(time.monotonic() - args.setup_probe))


def setup_samples(args, n: int = SETUP_SAMPLES) -> list[float]:
    """Start-of-process to inputs-built time of ``n`` fresh interpreters.

    CLOCK_MONOTONIC is shared by all processes, so the parent's reading just
    before the spawn marks the child's process start.
    """
    samples = []
    for _ in range(n):
        t0 = time.monotonic()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size, "--setup-probe", repr(t0)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _git_sha():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS the process has loaded."""
    import ctypes

    found = {}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return found
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    def blas(cfg):
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "FRAXOLVE_THREADS": os.environ.get("FRAXOLVE_THREADS"),
        "pyamg_importable": importlib.util.find_spec("pyamg") is not None,
    }


def main(argv=None) -> int:
    _use_checkout_source()
    args = _parse(argv)
    if args.setup_probe is not None:
        _setup_probe(args)
        return 0

    from perfbench import bench

    samples = setup_samples(args)
    run = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    e2e = bench.end_to_end(run, samples)
    layers = bench.per_layer(run) if args.trace else None
    shown = layers if args.trace else e2e
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": bench.unit_of(k)} for k, v in shown.items()},
    }
    env = environment()
    for problem in run.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.size != "full":
        stem += f"-{args.size}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "size": args.size, "env": env, "end_to_end": e2e, "per_layer": layers,
              "setup_samples": samples,
              "warmup_wall_s": run.warmup.wall_s,
              "pass_wall_s": [p.wall_s for p in run.passes],
              "pass_cpu_s": [p.cpu_s for p in run.passes],
              "traced_pass_wall_s": [p.wall_s for p in run.traced],
              "problems": run.problems, "result": result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start_ns", "end_ns", "parent"], "spans": run.spans}))

    print("env " + json.dumps(env))
    print(
        f"{args.workload} seed={args.seed} timed passes={len(run.passes)}+{len(run.traced)} "
        + " ".join(f"{k}={v:.6g}" for k, v in e2e.items())
        + f" failed_frac={run.failed / run.attempted:.6g} ({run.failed}/{run.attempted})"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
