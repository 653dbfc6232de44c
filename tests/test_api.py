"""Tests for the stable public facade in :mod:`repro.api`."""

import json

import pytest

from repro import api
from repro.experiments.scenario import run_scenario


def test_all_names_resolve():
    for name in api.__all__:
        assert getattr(api, name) is not None


def test_run_accepts_kwargs_config_and_overrides():
    config = api.ScenarioConfig(n_nodes=16, duration=30.0, seed=4,
                                attack_start=10.0)
    from_config = api.run(config)
    from_kwargs = api.run(n_nodes=16, duration=30.0, seed=4, attack_start=10.0)
    reference = run_scenario(config)
    assert from_config.to_state() == reference.to_state()
    assert from_kwargs.to_state() == reference.to_state()
    overridden = api.run(config, seed=5)
    assert overridden.to_state() == run_scenario(
        api.ScenarioConfig(n_nodes=16, duration=30.0, seed=5, attack_start=10.0)
    ).to_state()


def test_sweep_replications_and_path_cache(tmp_path):
    config = api.ScenarioConfig(n_nodes=16, duration=30.0, seed=4,
                                attack_start=10.0)
    cold = api.sweep(config, runs=2, cache=tmp_path / "cache")
    assert len(cold) == 2
    assert cold[0].to_state() != cold[1].to_state()  # distinct derived seeds
    warm = api.sweep(config, runs=2, cache=tmp_path / "cache")
    assert [r.to_state() for r in warm] == [r.to_state() for r in cold]
    assert any((tmp_path / "cache").rglob("*.json"))


def test_sweep_rejects_zero_runs():
    with pytest.raises(ValueError):
        api.sweep(api.ScenarioConfig(n_nodes=16, duration=30.0), runs=0)


def test_campaign_accepts_mapping_and_journal_path(tmp_path):
    spec = {
        "name": "facade",
        "runs": 1,
        "base": {"n_nodes": 16, "duration": 30.0, "attack_start": 10.0},
        "axes": {"n_malicious": [0, 2]},
    }
    journal = tmp_path / "facade.journal.jsonl"
    result = api.campaign(spec, journal=journal, cache=tmp_path / "cache")
    assert result.complete
    assert result.total_jobs == 2
    assert journal.exists()
    resumed = api.campaign(spec, journal=journal, resume=True)
    assert resumed.executed == 0
    assert json.dumps(resumed.aggregate, sort_keys=True) == json.dumps(
        result.aggregate, sort_keys=True
    )


def test_campaign_is_run_campaign_and_reports_progress(tmp_path):
    from repro.experiments.campaign import run_campaign

    assert api.campaign is run_campaign
    spec = {
        "name": "facade-progress",
        "base": {"n_nodes": 16, "duration": 30.0, "attack_start": 10.0},
        "axes": {"n_malicious": [0, 2]},
    }
    lines = []
    result = api.campaign(
        spec,
        cache=tmp_path / "cache",
        progress=api.CampaignProgress(printer=lines.append),
    )
    assert result.complete
    assert lines[0] == "[facade-progress] 0/2 jobs"
    assert "[facade-progress] 2/2 jobs (run)" in lines
    assert len(list((tmp_path / "cache").rglob("*.json"))) == 2


def test_report_from_records_and_path(tmp_path):
    from repro.obs.sinks import JsonlSink

    config = api.ScenarioConfig(n_nodes=16, duration=30.0, seed=4,
                                attack_start=10.0)
    scenario = api.build_scenario(config)
    path = tmp_path / "trace.jsonl"
    scenario.trace.attach_sink(JsonlSink(path))
    scenario.run()
    scenario.trace.close_sinks()

    from_records = api.report(list(scenario.trace))
    from_path = api.report(path)
    assert isinstance(from_records, api.RunReport)
    assert from_path.payload["summary"] == from_records.payload["summary"]


def test_removed_legacy_flag_raises():
    with pytest.raises(ValueError, match="liteworp_enabled was removed"):
        api.ScenarioConfig(n_nodes=16, liteworp_enabled=False)


def test_defense_registry_surface_reexported():
    # Third-party plugins work entirely through api.* names.
    assert set(api.available_defenses()) >= {
        "geo_leash", "liteworp", "none", "rtt", "snd", "temporal_leash",
    }
    spec = api.DefenseSpec.coerce("liteworp")
    assert spec.name == "liteworp"
    assert issubclass(api.get_defense("rtt").__class__, api.Defense)
