"""Benchmark for fraxolve: four solver workloads, end-to-end timings and a traced per-layer split.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; see ``perfbench/README.md``.
"""
