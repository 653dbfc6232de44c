"""The paper-scale sweep script builds one journaled campaign whose jobs
are exactly the fig 8/9 replications: attack (M = 0, 2, 4 out-of-band
colluders) × defense (none, liteworp), base seed 8."""

from __future__ import annotations

import importlib.util
import pathlib

from repro.experiments.campaign import compile_campaign, replication_configs
from repro.experiments.scenario import ScenarioConfig

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "paper_scale.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("paper_scale", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_paper_scale_jobs_are_the_fig89_replications():
    spec = _load_script().build_spec(runs=3, duration=2000.0, nodes=100)
    expected = []
    for m in (0, 2, 4):
        for defense in ("none", "liteworp"):
            config = ScenarioConfig(
                n_nodes=100,
                duration=2000.0,
                seed=8,
                attack_mode="outofband" if m else "none",
                n_malicious=m,
                attack_start=50.0,
                defense=defense,
            )
            expected.extend(replication_configs(config, 3))
    assert [job.config for job in compile_campaign(spec)] == expected


def test_paper_scale_spec_name_tracks_its_parameters():
    build_spec = _load_script().build_spec
    names = {
        build_spec(runs=30, duration=2000.0, nodes=100).name,
        build_spec(runs=5, duration=2000.0, nodes=100).name,
        build_spec(runs=30, duration=500.0, nodes=100).name,
        build_spec(runs=30, duration=2000.0, nodes=60).name,
    }
    # One journal per parameter set, so a resume never meets another
    # sweep's spec.
    assert len(names) == 4
