"""Content-addressed result cache: digests, round-trips, invalidation."""

import dataclasses
import json

import pytest

from repro.experiments.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    canonical_value,
    code_salt,
    config_digest,
)
from repro.experiments.doctor import audit_cache
from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.metrics.collector import MetricsReport

TINY = ScenarioConfig(n_nodes=16, duration=40.0, seed=4, attack_start=20.0)


def test_digest_is_stable():
    assert config_digest(TINY) == config_digest(TINY)
    rebuilt = ScenarioConfig(n_nodes=16, duration=40.0, seed=4, attack_start=20.0)
    assert config_digest(TINY) == config_digest(rebuilt)


def test_digest_changes_with_any_field():
    assert config_digest(TINY) != config_digest(dataclasses.replace(TINY, seed=5))
    assert config_digest(TINY) != config_digest(
        dataclasses.replace(TINY, duration=41.0)
    )


def test_digest_sees_nested_dataclass_fields():
    deeper = dataclasses.replace(
        TINY, liteworp=dataclasses.replace(TINY.liteworp, theta=TINY.liteworp.theta + 1)
    )
    assert config_digest(TINY) != config_digest(deeper)


def test_canonical_value_tags_dataclass_types():
    rendered = canonical_value(TINY)
    assert rendered["__type__"] == "ScenarioConfig"
    assert rendered["__fields__"]["seed"] == 4


def test_canonical_value_rejects_unhashable_junk():
    with pytest.raises(TypeError):
        canonical_value(object())


def test_code_salt_is_memoized_and_hexadecimal():
    salt = code_salt()
    assert salt == code_salt()
    assert len(salt) == 64
    int(salt, 16)


def test_cache_round_trip_is_identical(tmp_path):
    report = run_scenario(TINY)
    cache = ResultCache(tmp_path)
    assert cache.get(TINY) is None  # miss before put
    path = cache.put(TINY, report)
    assert path.exists()
    fetched = ResultCache(tmp_path).get(TINY)
    assert fetched == report
    # Byte-identical through the serialisation the sweep runner compares.
    assert json.dumps(fetched.to_state(), sort_keys=True) == json.dumps(
        report.to_state(), sort_keys=True
    )


def test_metrics_report_state_round_trip():
    report = run_scenario(TINY)
    assert MetricsReport.from_state(
        json.loads(json.dumps(report.to_state()))
    ) == report


def test_salt_change_invalidates(tmp_path):
    report = run_scenario(TINY)
    ResultCache(tmp_path, salt="a" * 64).put(TINY, report)
    assert ResultCache(tmp_path, salt="a" * 64).get(TINY) == report
    assert ResultCache(tmp_path, salt="b" * 64).get(TINY) is None


def test_corrupt_entry_is_a_miss(tmp_path):
    report = run_scenario(TINY)
    cache = ResultCache(tmp_path)
    path = cache.put(TINY, report)
    path.write_text("{not json")
    fresh = ResultCache(tmp_path)
    assert fresh.get(TINY) is None
    assert fresh.stats() == {"hits": 0, "misses": 1}


def test_hit_and_miss_counters(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get(TINY) is None
    cache.put(TINY, run_scenario(TINY))
    assert cache.get(TINY) is not None
    assert cache.stats() == {"hits": 1, "misses": 1}


ATTACKED = ScenarioConfig(
    n_nodes=24, duration=60.0, seed=3, attack_mode="outofband",
    n_malicious=2, attack_start=20.0, defense="liteworp",
)


def test_latency_stages_round_trip_through_cache(tmp_path):
    report = run_scenario(ATTACKED)
    assert report.latency_stages  # the attack must have been observed
    cache = ResultCache(tmp_path)
    cache.put(ATTACKED, report)
    fetched = ResultCache(tmp_path).get(ATTACKED)
    assert fetched.latency_stages == report.latency_stages
    for node in report.latency_stages:
        assert fetched.detection_latency(node) == report.detection_latency(node)
        assert fetched.latency_decomposition(node) == report.latency_decomposition(node)
    assert fetched.mean_detection_latency() == report.mean_detection_latency()


def test_foreign_schema_entry_is_a_miss(tmp_path):
    """ResultCache.get and the doctor's cache audit share one entry
    decoder: an entry whose schema is not this build's is a miss, and the
    audit flags that same entry ``bad_version``."""
    report = run_scenario(TINY)
    cache = ResultCache(tmp_path)
    path = cache.put(TINY, report)
    state = report.to_state()
    del state["latency_stages"]  # the version-2 on-disk shape
    for schema in (2, CACHE_SCHEMA_VERSION - 1):
        path.write_text(json.dumps(
            {"schema": schema, "config": repr(TINY), "report": state}
        ))
        fresh = ResultCache(tmp_path)
        assert fresh.get(TINY) is None
        assert fresh.stats() == {"hits": 0, "misses": 1}
        (problem,) = audit_cache(tmp_path)
        assert (problem.path, problem.kind) == (path, "bad_version")
    # The report state itself still decodes without latency stages.
    loaded = MetricsReport.from_state(state)
    assert loaded.latency_stages == {}
    assert loaded.mean_detection_latency() is None
    assert loaded.originated == report.originated
