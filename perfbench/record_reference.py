"""Record the seed-0 reference values that the benchmark's checks compare against.

    python3 perfbench/record_reference.py

Runs every workload once at full size with seed 0, checks each output
(residuals, invariant ranges, stability) and writes ``reference.json``
only when all of them pass.  The recorded values are the sampled final
fields, the table errors and rates, the scalar and resolvent trajectories
and the long-time sup ratios.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src"),
                str(Path(__file__).resolve().parents[1])]

from perfbench import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        reference[name] = {}
        for op in workloads.build(name, 0, "full"):
            result = op.run()
            problems = [p for per_op in op.check(result) for p in per_op]
            if problems:
                print(f"{name}/{op.name}: " + "; ".join(problems), file=sys.stderr)
                return 1
            reference[name][op.name] = op.summary(result)
            print(f"{name}/{op.name}: recorded", file=sys.stderr)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
