"""End-to-end benchmark of the LITEWORP reproduction.

Runs one workload for about ``--seconds`` seconds as a series of passes,
each in its own fresh interpreter (``one_pass.py``), one at a time, and
checks every pass's report digest.  The last line of standard output is
the result: ``{"correct", "attempted", "failed", "metrics"}``.

    python3 e2ebench/run.py --workload mesh200 --seed 4 --seconds 60 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer table of the traced ones (see e2ebench/README.md).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("mesh200", "matrix30")
#: A run must exit within 180 s; passes are not started past this.
HARD_LIMIT_S = 165.0
#: Set-up is sampled at least this often per run: after the passes,
#: set-up-only interpreters fill the rest of ``--seconds``, and at least
#: make up what the passes did not give.
MIN_SETUP_SAMPLES = 4


def quartiles(values: Sequence[float], method: str = "inclusive") -> Dict[str, float]:
    """Median, first and third quartile (``statistics.quantiles``), count.
    The default ``inclusive`` method keeps the quartiles of the two or
    three samples a run may have between their extremes."""
    values = list(values)
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method=method)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def spread(summary: Dict[str, float]) -> float:
    """Interquartile distance as a share of the median."""
    return (summary["q3"] - summary["q1"]) / summary["median"] if summary["median"] else 0.0


def load_contract(root: pathlib.Path) -> Dict[str, Dict[str, Any]]:
    """Every metric BENCHMARK.json declares, by name (unit, bound)."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def source_digest(root: pathlib.Path) -> str:
    """SHA-256 over the program's sources: identifies the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_state(root: pathlib.Path) -> Dict[str, Any]:
    if not (root / ".git").exists():
        return {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain", "--untracked-files=no", "--", "src"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": bool(status.strip())}


def provenance(root: pathlib.Path) -> Dict[str, Any]:
    return {
        **git_state(root),
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repro_accel": os.environ.get("REPRO_ACCEL", "auto"),
        "loadavg_start": list(os.getloadavg()),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


class Runner:
    """Spawns passes and keeps their results."""

    def __init__(self, args: argparse.Namespace, root: pathlib.Path) -> None:
        self.args = args
        self.root = root
        work = root / ".e2ebench-work"
        self.workdir = work / "campaigns"
        tmp = work / "tmp"
        self.workdir.mkdir(parents=True, exist_ok=True)
        tmp.mkdir(parents=True, exist_ok=True)
        # Keep every scratch file (compiler temporaries included) in the checkout.
        self.env = dict(os.environ, TMPDIR=str(tmp))
        self.ensure_kernel()
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def ensure_kernel(self) -> None:
        """Compile the C kernel and the program's bytecode once per
        checkout, before any timing."""
        if any((self.root / "src" / "repro" / "sim").glob("_ckernel*.so")):
            return
        code = "import repro.api; from repro.sim import accel; accel.kernel_available()"
        try:
            subprocess.run(
                [sys.executable, "-c", f"import sys; sys.path.insert(0, 'src'); {code}"],
                cwd=self.root, env=self.env, capture_output=True, timeout=600,
            )
        except subprocess.TimeoutExpired:
            pass  # the passes retry the build, and report the kernel they got

    def spawn(self, traced: bool = False, setup_only: bool = False) -> Dict[str, Any]:
        """One pass in a fresh interpreter; failures come back as ``ok: False``."""
        args = self.args
        timeout = max(1.0, HARD_LIMIT_S - self.elapsed())
        cmd = [
            sys.executable, str(self.root / "e2ebench" / "one_pass.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--workdir", str(self.workdir),
        ]
        cmd += ["--trace"] * traced + ["--smoke"] * args.smoke + ["--setup-only"] * setup_only
        begun = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd + ["--spawned-at", repr(time.perf_counter())],
                cwd=self.root, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
        except subprocess.TimeoutExpired:
            result = {"ok": False, "error": f"{args.workload}: pass timed out after {timeout:.0f} s"}
        except (IndexError, ValueError):
            tail = proc.stderr.strip().splitlines()[-3:]
            result = {"ok": False, "error": f"{args.workload}: pass exited {proc.returncode}: {tail}"}
        result["elapsed_s"] = time.perf_counter() - begun
        return result

    def passes(self, seconds: float) -> List[Dict[str, Any]]:
        """Passes until the next would end past ``seconds``, but at least
        one of each kind (untraced, and traced with ``--trace 1``)."""
        kinds = [False, True] if self.args.trace else [False]
        results: List[Dict[str, Any]] = []
        longest = {kind: 0.0 for kind in kinds}
        while self.elapsed() < HARD_LIMIT_S:
            traced = kinds[len(results) % len(kinds)]
            finish = self.elapsed() + longest[traced]
            if finish > HARD_LIMIT_S or (len(results) >= len(kinds) and finish > seconds):
                break
            result = self.spawn(traced=traced)
            result["traced"] = traced
            longest[traced] = max(longest[traced], result["elapsed_s"])
            results.append(result)
        return results

    def setup_samples(self, results: List[Dict[str, Any]], seconds: float) -> List[float]:
        """Set-up seconds of the untraced passes and of set-up-only
        interpreters started until the next would end past ``seconds``,
        but at least until there are MIN_SETUP_SAMPLES."""
        samples = [r["setup_s"] for r in results if r.get("ok") and not r["traced"]]
        longest = 0.0
        while self.elapsed() < HARD_LIMIT_S - 15:
            if len(samples) >= MIN_SETUP_SAMPLES and self.elapsed() + longest > seconds:
                break
            probe = self.spawn(setup_only=True)
            if not probe.get("ok"):
                break  # the passes failed the same way, and count it
            longest = max(longest, probe["elapsed_s"])
            samples.append(probe["setup_s"])
        return samples


def check(workload: str, results: List[Dict[str, Any]]) -> List[str]:
    """Mark passes whose report differs from the pinned digest (default
    seed) or from the run's first untraced pass; returns the messages."""
    errors: List[str] = []
    ok = [r for r in results if r.get("ok")]
    pinned = next((r.get("pinned") for r in ok if r.get("pinned")), None)
    reference = pinned or next((r["digest"] for r in ok if not r["traced"]), None)
    for number, result in enumerate(results, 1):
        label = f"{workload}: pass {number} ({'traced' if result.get('traced') else 'untraced'})"
        if not result.get("ok"):
            errors.append(f"{label}: {result.get('error')}")
        elif reference is None:
            result["ok"] = False
            errors.append(f"{label}: no untraced pass to compare the traced report with")
        elif result["digest"] != reference:
            result["ok"] = False
            what = "pinned digest" if pinned else "first untraced pass"
            errors.append(f"{label}: report digest {result['digest'][:16]} != {what} {reference[:16]}")
    return errors


def end_to_end(results: List[Dict[str, Any]], setup: List[float]) -> Dict[str, Dict[str, float]]:
    untraced = [r for r in results if r.get("ok") and not r["traced"]]
    summary = {name: quartiles([r[name] for r in untraced]) for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    summary["setup_s"] = quartiles(setup)
    return summary


def per_layer(results: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    traced = [r for r in results if r.get("ok") and r["traced"]]
    untraced = [r for r in results if r.get("ok") and not r["traced"]]
    names = sorted({name for r in traced for name in r["layers"]})
    summary = {name: quartiles([r["layers"][name] for r in traced]) for name in names}
    base = statistics.median(r["build_s"] + r["wall_s"] for r in untraced) if untraced else 0.0
    overhead = [r["layers"]["bench.traced_wall_s"] / base for r in traced] if base else []
    summary["bench.trace_overhead"] = quartiles(overhead)
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny workloads (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    contract = load_contract(ROOT)

    start_info = provenance(ROOT)
    runner = Runner(args, ROOT)
    results = runner.passes(args.seconds)
    errors = check(args.workload, results)
    failed = sum(1 for r in results if not r.get("ok"))

    if args.trace:
        summary = per_layer(results)
    else:
        summary = end_to_end(results, runner.setup_samples(results, args.seconds))
    for name, row in summary.items():
        row["spread"] = spread(row)
        if "bound" in contract[name]:
            row["bound"] = contract[name]["bound"]
            row["unresolved"] = row["spread"] > row["bound"]

    info = {
        **start_info,
        "loadavg_end": list(os.getloadavg()),
        "kernel": sorted({r["kernel"] for r in results if r.get("ok")}),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "passes": len(results),
        "pass_wall_s": [r.get("wall_s") for r in results],
        "elapsed_s": runner.elapsed(),
    }
    print(f"e2ebench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(results)} passes, {failed} failed, kernel {','.join(info['kernel']) or '-'}")
    for message in errors:
        print(f"  FAILED {message}")
    for name, row in summary.items():
        flag = "  UNRESOLVED" if row.get("unresolved") else ""
        print(f"  {name:<30} median {row['median']:.6g}  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}"
              f"  n={row['n']}  spread {row['spread']:.3f}{flag}")
    print(json.dumps({"provenance": info, "summary": summary, "errors": errors}, sort_keys=True))

    metrics = {name: {"value": row["median"], "unit": contract[name]["unit"]} for name, row in summary.items()}
    correct = failed == 0 and bool(results)
    print(json.dumps({"correct": correct, "attempted": max(1, len(results)), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
