"""Paper-fidelity experiment runner.

The benchmark suite defaults to scaled-down horizons so it finishes in
minutes.  This script runs the paper's actual scale — 2000-second
simulations averaged over 30 randomised runs (Table 2) — for the fig 8/9
sweep: M = 0, 2, 4 out-of-band colluders, each without and with
LITEWORP.  The sweep is one journaled campaign: every finished run is
appended to ``results/<campaign>.journal.jsonl``, so a sweep killed after
hours resumes where it stopped when the same command is run again.  The
per-point aggregate lands in ``results/<campaign>.json``.

Usage:
    python scripts/paper_scale.py            # the full fig8/9 sweep
    python scripts/paper_scale.py --runs 5   # a cheaper preview
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro import api

RESULTS = pathlib.Path(__file__).resolve().parents[1] / "results"

#: The coupled attack axis: (mode, colluders M) move together.
ATTACKS = (
    {"attack_mode": "none", "n_malicious": 0},
    {"attack_mode": "outofband", "n_malicious": 2},
    {"attack_mode": "outofband", "n_malicious": 4},
)


def build_spec(runs: int, duration: float, nodes: int) -> api.CampaignSpec:
    """The paper-scale sweep: attack (M = 0, 2, 4) × defense (none,
    liteworp), ``runs`` replications each, base seed 8."""
    return api.CampaignSpec(
        name=f"paper-scale-n{nodes}-d{duration:g}-r{runs}",
        base=api.ScenarioConfig(
            n_nodes=nodes, duration=duration, seed=8, attack_start=50.0
        ),
        axes=(("attack", ATTACKS), ("defense", ("none", "liteworp"))),
        runs=runs,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=30)
    parser.add_argument("--duration", type=float, default=2000.0)
    parser.add_argument("--nodes", type=int, default=100)
    args = parser.parse_args()

    spec = build_spec(args.runs, args.duration, args.nodes)
    journal = RESULTS / f"{spec.name}.journal.jsonl"
    print(f"journal {journal} (rerun the same command to resume)")
    started = time.time()
    progress = api.CampaignProgress(printer=lambda line: print(line, file=sys.stderr))
    result = api.campaign(spec, journal=journal, resume=True, progress=progress)
    print(result.format())
    print(f"[{time.time() - started:.1f}s]")
    if not result.complete:
        return 75
    out = RESULTS / f"{spec.name}.json"
    out.write_text(result.to_json())
    print(f"aggregate written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
