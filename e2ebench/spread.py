"""Run-to-run spread of the benchmark, the way its acceptance is judged.

Runs BENCHMARK.json's command ``--runs`` times per workload, each with
another seed, then gives for every metric the median, quartiles and
sample count of the per-run values, and the spread: the interquartile
distance as a share of the median.  A metric whose spread exceeds its
bound is flagged UNRESOLVED: a change to it smaller than the spread
cannot be told from noise.

    python3 e2ebench/spread.py --workload mesh200 --runs 10 --out spread.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from run import ROOT, quartiles, spread


def run_once(spec: Dict[str, Any], workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                  "error": proc.stderr.strip().splitlines()[-3:]}
    result["elapsed_s"] = time.perf_counter() - started
    return result


def summarise(values: Dict[str, List[float]], bounds: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    rows: Dict[str, Dict[str, Any]] = {}
    for name, series in values.items():
        # Across runs the quartiles are the ones acceptance is judged by:
        # statistics.quantiles' default (exclusive) method.
        row: Dict[str, Any] = quartiles(series, method="exclusive")
        row["spread"] = spread(row)
        if name in bounds:
            row["bound"] = bounds[name]
            row["unresolved"] = row["spread"] > bounds[name]
        rows[name] = row
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report: Dict[str, Any] = {}
    failures = 0
    for workload in workloads:
        values: Dict[str, List[float]] = {}
        for index in range(args.runs):
            seed = args.first_seed + index
            result = run_once(spec, workload, seed, args.seconds, args.trace)
            ok = result.get("correct") and not result.get("failed")
            failures += not ok
            print(f"{workload} seed={seed} correct={result.get('correct')} failed={result.get('failed')} "
                  f"elapsed={result['elapsed_s']:.1f}s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())
                             if k in bounds or args.trace), flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        report[workload] = summarise(values, bounds)
    for workload, rows in report.items():
        print(f"\n{workload}")
        for name, row in sorted(rows.items()):
            flag = "UNRESOLVED" if row.get("unresolved") else ""
            bound = f"bound {row['bound']:.3f}" if "bound" in row else ""
            print(f"  {name:<28} median {row['median']:<11.5g} q1 {row['q1']:<11.5g} q3 {row['q3']:<11.5g}"
                  f" n={row['n']:<3} spread {row['spread']:.3f} {bound} {flag}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
