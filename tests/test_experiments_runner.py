"""Sweeps on the campaign loop: determinism, ordering, caching, failures."""

import json

import pytest

from repro import api
from repro.experiments import campaign
from repro.experiments.cache import ResultCache
from repro.experiments.campaign import (
    CampaignError,
    replication_configs,
    resolve_jobs,
    run_configs,
)
from repro.experiments.figures import run_fig8
from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.experiments.seeds import child_seed
from repro.obs.config import ObsConfig

TINY = ScenarioConfig(n_nodes=16, duration=40.0, seed=4, attack_start=20.0)


def _canonical(reports):
    return [json.dumps(r.to_state(), sort_keys=True) for r in reports]


def test_resolve_jobs_policy():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(0) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(-1) >= 1


def test_replication_configs_use_hash_seeds():
    configs = replication_configs(TINY, 3)
    assert [c.seed for c in configs] == [child_seed(4, i) for i in range(3)]
    assert configs[0] == TINY  # index 0 is the base config itself
    with pytest.raises(ValueError):
        replication_configs(TINY, 0)


def test_parallel_equals_serial_byte_identical():
    """The acceptance property: the process backend returns byte-identical
    MetricsReports to the inline one for the same configs, in order."""
    configs = replication_configs(TINY, 3)
    serial = run_configs(configs)
    parallel = run_configs(configs, jobs=2)
    assert serial == parallel
    assert _canonical(serial) == _canonical(parallel)


def test_api_sweep_parallel_matches_serial():
    serial = api.sweep(TINY, 3)
    parallel = api.sweep(TINY, 3, jobs=2)
    assert _canonical(serial) == _canonical(parallel)


def test_cache_hit_returns_identical_report(tmp_path):
    configs = replication_configs(TINY, 2)
    cold = ResultCache(tmp_path)
    computed = run_configs(configs, cache=cold)
    assert cold.stats() == {"hits": 0, "misses": 2}

    warm = ResultCache(tmp_path)
    cached = run_configs(configs, cache=warm)
    assert warm.stats() == {"hits": 2, "misses": 0}
    assert cached == computed
    assert _canonical(cached) == _canonical(computed)


def test_partial_cache_only_computes_misses(tmp_path):
    configs = replication_configs(TINY, 3)
    run_configs(configs[:1], cache=ResultCache(tmp_path))
    mixed = ResultCache(tmp_path)
    reports = run_configs(configs, cache=mixed)
    assert mixed.stats() == {"hits": 1, "misses": 2}
    assert _canonical(reports) == _canonical(run_configs(configs))


def test_exporting_configs_bypass_cache_reads(tmp_path):
    """A run streaming its trace must execute even when its report is
    cached, or the export would silently miss its records."""
    export = tmp_path / "trace.jsonl"
    config = ScenarioConfig(
        n_nodes=16, duration=40.0, seed=4, attack_start=20.0,
        obs=ObsConfig(trace_path=str(export)),
    )
    cache = ResultCache(tmp_path / "cache")
    first = run_configs([config], cache=cache)
    assert any((tmp_path / "cache").rglob("*.json"))  # still written back
    export.unlink()
    second = run_configs([config], cache=cache)
    assert cache.hits == 0
    assert export.read_text().strip()
    assert _canonical(second) == _canonical(first)


def test_single_config_matches_run_scenario():
    assert run_configs([TINY]) == [run_scenario(TINY)]
    assert run_configs([]) == []


def test_failing_replication_raises_instead_of_short_result(monkeypatch):
    """A replication that fails every retry must abort the sweep (naming
    the job), never hand back fewer reports than were asked for."""

    def flaky(config):
        if config.seed != TINY.seed:
            raise RuntimeError("injected replication failure")
        return run_scenario(config)

    monkeypatch.setattr(campaign, "run_scenario", flaky)
    with pytest.raises(CampaignError, match="job 1 .*injected replication failure"):
        api.sweep(TINY, 2)
    with pytest.raises(CampaignError, match="injected replication failure"):
        run_fig8(base=TINY, malicious_counts=(2,), runs=2)
