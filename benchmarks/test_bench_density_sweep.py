"""Headline claim — "LITEWORP can achieve 100% detection of the wormholes
for a wide range of network densities" (paper section 6).

Sweeps the network size at Table-2 density (and one denser setting) and
measures the detected fraction of colluders.  Also exercises the inverse
computation the paper highlights: the density required for a target
detection probability at a given θ.
"""

from dataclasses import replace

from repro import api
from repro.analysis.coverage import CoverageParams, density_for_detection
from repro.experiments.scenario import ScenarioConfig

SETTINGS = (
    # (n_nodes, avg_neighbors)
    (20, 8.0),
    (50, 8.0),
    (100, 8.0),
    (50, 12.0),
)


def compute():
    rows = []
    for n_nodes, n_b in SETTINGS:
        config = ScenarioConfig(
            n_nodes=n_nodes,
            avg_neighbors=n_b,
            duration=260.0,
            seed=4,
            attack_start=50.0,
        )
        reports = api.sweep(config, runs=2)
        attacked = sum(len(r.first_activity) for r in reports)
        detected = sum(
            1
            for r in reports
            for m in r.first_activity
            if r.isolation_latency(m) is not None
        )
        rows.append((n_nodes, n_b, attacked, detected))
    return rows


def test_bench_density_sweep(benchmark, record_output):
    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    lines = ["N     N_B   colluders-active  fully-isolated"]
    for n_nodes, n_b, attacked, detected in rows:
        lines.append(f"{n_nodes:4d}  {n_b:4.0f}  {attacked:16d}  {detected:14d}")
    record_output("density_sweep_detection", "\n".join(lines))

    total_attacked = sum(r[2] for r in rows)
    total_detected = sum(r[3] for r in rows)
    assert total_attacked > 0
    # The paper claims 100%; we require near-complete isolation across the
    # sweep (short horizons can leave one end mid-isolation).
    assert total_detected >= total_attacked * 0.8


def test_bench_required_density(benchmark, record_output):
    params = CoverageParams()

    def sweep():
        return [
            (theta, density_for_detection(0.99, replace(params, theta=theta)))
            for theta in (2, 3, 4)
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["theta  N_B for 99% detection"]
    for theta, needed in rows:
        text = f"{needed:8.2f}" if needed is not None else "   n/a"
        lines.append(f"{theta:5d}  {text}")
    record_output("required_density", "\n".join(lines))
    # More guards demanded -> more density needed.
    values = [needed for _, needed in rows if needed is not None]
    assert values == sorted(values)
    assert all(2.0 < v < 60.0 for v in values)
