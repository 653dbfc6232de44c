"""run.py end to end, in smoke mode, as the benchmark contract runs it."""

import json
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _run(cwd, *args, timeout=120):
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("workload", ["mesh200", "matrix30"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_mode_finishes_in_seconds(workload, trace):
    started = time.monotonic()
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert time.monotonic() - started < 60
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = contract["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in metrics.items()}
    if trace == "1":
        assert metrics["bench.trace_overhead"]["value"] > 0
    assert all(m["value"] > 0 for name, m in metrics.items() if name in ("wall_s", "setup_s"))


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "mesh200", "--seed", "4", "--seconds", "1", "--trace", "0",
                timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
