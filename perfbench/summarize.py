"""Summarize the run records under ``.bench_out/`` per workload.

    python3 perfbench/summarize.py                 # print medians and spreads
    python3 perfbench/summarize.py --baseline FILE # also write them as JSON

For each end-to-end metric: the median over runs (one run per seed), the
first and third quartiles as ``statistics.quantiles(values, n=4)`` gives
them, and the spread (q3 - q1) / median.  Per-layer metrics are the medians
over the traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "runs": len(values)}


def summarize(out_dir: Path) -> dict:
    records = defaultdict(lambda: {"plain": [], "traced": []})
    for path in sorted(out_dir.glob("*-trace[01].json")):
        rec = json.loads(path.read_text())
        records[rec["workload"]]["traced" if rec["per_layer"] else "plain"].append(rec)
    summary = {}
    for workload, recs in sorted(records.items()):
        plain, traced = recs["plain"], recs["traced"]
        entry = {"seeds": sorted(r["seed"] for r in plain),
                 "failed": sum(r["result"]["failed"] for r in plain + traced),
                 "attempted": sum(r["result"]["attempted"] for r in plain + traced)}
        if plain:
            entry["end_to_end"] = {
                k: _stats([r["end_to_end"][k] for r in plain]) for k in plain[0]["end_to_end"]
            }
            entry["env"] = plain[0]["env"]
        if traced:
            entry["per_layer"] = {
                k: statistics.median(r["per_layer"][k] for r in traced)
                for k in traced[0]["per_layer"]
            }
            entry["traced_seeds"] = sorted(r["seed"] for r in traced)
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--baseline", type=Path, default=None)
    args = ap.parse_args(argv)
    summary = summarize(ROOT / ".bench_out")
    for workload, entry in summary.items():
        print(f"{workload}: seeds {entry['seeds']}, failed {entry['failed']}/{entry['attempted']}")
        for k, s in entry.get("end_to_end", {}).items():
            print(f"  {k:12s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}")
    if args.baseline is not None:
        args.baseline.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
