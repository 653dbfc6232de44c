"""Defense × attack matrix: every registered scheme against three wormholes.

Runs the matrix through ``repro.api`` as one journaled campaign — its
coupled ``attack`` axis sets each mode together with the malicious-node
count the mode needs, crossed with a ``defense`` axis — then renders
the markdown report the ``repro matrix`` CLI prints: detection rate,
isolation latency, delivery, and wormhole-drop grids with one row per
defense and one column per attack.

The same study, from the shell:

    python -m repro matrix --nodes 24 --duration 90 --runs 2 \
        --journal-dir .repro-matrix --md matrix.md --out matrix.json

Run:  python examples/defense_matrix.py
"""

import tempfile
from pathlib import Path

from repro import api

SPEC = api.MatrixSpec(
    name="example-matrix",
    base=api.ScenarioConfig(n_nodes=24, duration=90.0, seed=7,
                            attack_start=25.0),
    # defenses=() means "every registered defense" — including any
    # third-party plugin added via api.register_defense().
    attacks=("outofband", "highpower", "relay"),
    runs=2,
)


def main() -> None:
    print(f"defenses under test: {', '.join(api.available_defenses())}")
    print(f"{SPEC.total_jobs()} jobs "
          f"({len(SPEC.attacks)} attacks x {len(api.available_defenses())} "
          f"defenses x {SPEC.runs} runs)\n")

    with tempfile.TemporaryDirectory(prefix="repro-matrix-") as temp:
        result = api.matrix(SPEC, journal_dir=Path(temp) / "journals")
        if not result.complete:
            raise SystemExit(f"matrix interrupted: {result.format()}")
        print(result.report.to_markdown())


if __name__ == "__main__":
    main()
