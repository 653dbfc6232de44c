"""Tests for the campaign orchestrator: spec loading, compilation,
journaling, resume byte-identity, backends, and retry."""

import json

import pytest

from repro.experiments.cache import ResultCache, config_digest
from repro.experiments.campaign import (
    CampaignError,
    CampaignJournal,
    CampaignRunner,
    CampaignSpec,
    InlineBackend,
    ProcessBackend,
    RetryPolicy,
    SupervisionPolicy,
    apply_overrides,
    compile_campaign,
    load_journal,
    load_spec,
    make_backend,
    run_campaign,
    run_configs,
)
from repro.core.config import LiteworpConfig
from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.obs.progress import CampaignProgress


def tiny_spec(name="tiny", runs=2, **base_overrides):
    base = ScenarioConfig(
        n_nodes=16, duration=30.0, seed=4, attack_start=10.0, **base_overrides
    )
    return CampaignSpec(
        name=name,
        base=base,
        axes=(("n_malicious", (0, 2)),),
        runs=runs,
    )


# ----------------------------------------------------------------------
# Overrides + spec
# ----------------------------------------------------------------------
def test_apply_overrides_top_level_and_dotted():
    config = ScenarioConfig(n_nodes=20)
    out = apply_overrides(config, {"n_malicious": 2, "liteworp.theta": 4})
    assert out.n_malicious == 2
    assert out.liteworp.theta == 4
    # Untouched fields survive, the input is not mutated.
    assert out.n_nodes == 20
    assert config.liteworp.theta != 4 or config.n_malicious == 0


def test_apply_overrides_rejects_unknown_field():
    with pytest.raises(CampaignError, match="no_such_field"):
        apply_overrides(ScenarioConfig(), {"no_such_field": 1})
    with pytest.raises(CampaignError, match="nested"):
        apply_overrides(ScenarioConfig(), {"liteworp.nested": 1})


def test_spec_axes_sorted_and_points_are_cartesian():
    spec = CampaignSpec(
        name="grid",
        axes=(("seed", (1, 2)), ("n_malicious", (0, 2, 4))),
        runs=1,
    )
    assert [axis for axis, _ in spec.axes] == ["n_malicious", "seed"]
    points = spec.points()
    assert len(points) == 6
    assert points[0] == (("n_malicious", 0), ("seed", 1))


def test_spec_validation():
    with pytest.raises(CampaignError):
        CampaignSpec(name="")
    with pytest.raises(CampaignError):
        CampaignSpec(name="x", runs=0)
    with pytest.raises(CampaignError):
        CampaignSpec(name="x", axes=(("n_malicious", ()),))
    # A label axis (not a ScenarioConfig field) takes only override tables.
    with pytest.raises(CampaignError, match="table of field overrides"):
        CampaignSpec(name="x", axes=(("attack", ("relay",)),))
    with pytest.raises(CampaignError, match="unknown ScenarioConfig field 'n_evil'"):
        CampaignSpec(name="x", axes=(("attack", ({"n_evil": 1},)),))
    with pytest.raises(CampaignError, match="unknown ScenarioConfig field 'liteworp.nested'"):
        CampaignSpec(name="x", axes=(("tuning", ({"liteworp.nested": 1},)),))
    # Two axes may not set the same field (or one inside the other).
    with pytest.raises(CampaignError, match="both set field 'n_malicious'"):
        CampaignSpec(name="x", axes=(
            ("attack", ({"attack_mode": "relay", "n_malicious": 1},)),
            ("n_malicious", (0, 2)),
        ))
    with pytest.raises(CampaignError, match="both set field 'liteworp'"):
        CampaignSpec(name="x", axes=(
            ("liteworp", (LiteworpConfig(),)),
            ("tuning", ({"liteworp.theta": 4},)),
        ))


def _coupled_spec_payload():
    return {
        "name": "coupled",
        "base": {"n_nodes": 16, "duration": 30.0, "seed": 4, "attack_start": 10.0},
        "axes": {
            "attack": [
                {"attack_mode": "outofband", "n_malicious": 2},
                {"attack_mode": "relay", "n_malicious": 1},
            ],
            "defense": ["none", {"name": "rtt", "config": {"alpha": 2.5}}],
        },
    }


def test_coupled_axes_compile_to_the_pinned_base_jobs():
    from_dict = CampaignSpec.from_dict(_coupled_spec_payload())
    jobs = compile_campaign(from_dict)
    # Each attack table sets both fields together; the defense axis keeps
    # its plain-field meaning, mappings included.
    assert [(j.config.attack_mode, j.config.n_malicious, j.config.defense.name)
            for j in jobs] == [
        ("outofband", 2, "none"), ("outofband", 2, "rtt"),
        ("relay", 1, "none"), ("relay", 1, "rtt"),
    ]
    assert jobs[1].config.defense.config.alpha == 2.5
    # The coupled campaign compiles to the same jobs as a base pinned per
    # attack: job digests depend only on the concrete config.
    pinned = CampaignSpec(
        name="pinned",
        base=apply_overrides(from_dict.base, {"attack_mode": "relay", "n_malicious": 1}),
        axes=(("defense", ("none", {"name": "rtt", "config": {"alpha": 2.5}})),),
    )
    assert [j.digest for j in compile_campaign(pinned)] == [j.digest for j in jobs[2:]]
    # Points are hashable, and tables render as JSON objects.
    assert len({job.point for job in jobs}) == 4
    assert json.loads(json.dumps(dict(jobs[1].point)))["attack"] == {
        "attack_mode": "outofband", "n_malicious": 2
    }


def test_spec_from_dict_rejects_unknown_keys():
    with pytest.raises(CampaignError, match="bogus"):
        CampaignSpec.from_dict({"name": "x", "bogus": 1})
    with pytest.raises(CampaignError, match="name"):
        CampaignSpec.from_dict({"runs": 1})


def test_load_spec_toml_and_json_agree(tmp_path):
    toml_path = tmp_path / "study.toml"
    toml_path.write_text(
        'name = "study"\n'
        "runs = 2\n"
        "[base]\n"
        "n_nodes = 16\n"
        "duration = 30.0\n"
        "attack_start = 10.0\n"
        '"liteworp.theta" = 4\n'
        "[axes]\n"
        "n_malicious = [0, 2]\n"
    )
    json_path = tmp_path / "study.json"
    json_path.write_text(json.dumps({
        "name": "study",
        "runs": 2,
        "base": {"n_nodes": 16, "duration": 30.0, "attack_start": 10.0,
                 "liteworp.theta": 4},
        "axes": {"n_malicious": [0, 2]},
    }))
    from_toml = load_spec(toml_path)
    from_json = load_spec(json_path)
    assert from_toml == from_json
    assert from_toml.digest() == from_json.digest()
    assert from_toml.base.liteworp.theta == 4

    # Coupled (label) axes and table-valued field axes load the same way.
    coupled_toml = tmp_path / "coupled.toml"
    coupled_toml.write_text(
        'name = "coupled"\n'
        "[base]\n"
        "n_nodes = 16\n"
        "duration = 30.0\n"
        "seed = 4\n"
        "attack_start = 10.0\n"
        "[axes]\n"
        'attack = [{attack_mode = "outofband", n_malicious = 2},\n'
        '          {attack_mode = "relay", n_malicious = 1}]\n'
        'defense = ["none", {name = "rtt", config = {alpha = 2.5}}]\n'
    )
    coupled_json = tmp_path / "coupled.json"
    coupled_json.write_text(json.dumps(_coupled_spec_payload()))
    assert load_spec(coupled_toml) == load_spec(coupled_json)
    assert load_spec(coupled_toml).digest() == load_spec(coupled_json).digest()


def test_load_spec_bad_file(tmp_path):
    missing = tmp_path / "nope.toml"
    with pytest.raises(CampaignError, match="cannot read"):
        load_spec(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CampaignError, match="invalid JSON"):
        load_spec(bad)


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
def test_compile_is_deterministic_and_content_addressed():
    spec = tiny_spec()
    jobs_a = compile_campaign(spec)
    jobs_b = compile_campaign(spec)
    assert [j.digest for j in jobs_a] == [j.digest for j in jobs_b]
    assert len(jobs_a) == 2 * spec.runs
    # Replication 0 keeps the base seed; later replications derive new ones.
    by_rep = {(j.point, j.replication): j for j in jobs_a}
    assert by_rep[(("n_malicious", 0),), 0].config.seed == spec.base.seed
    assert by_rep[(("n_malicious", 0),), 1].config.seed != spec.base.seed
    for job in jobs_a:
        assert job.digest == config_digest(job.config)


def test_compile_rejects_invalid_point_value():
    spec = CampaignSpec(
        name="bad", base=ScenarioConfig(n_nodes=16), axes=(("defense", ("prayer",)),)
    )
    with pytest.raises(CampaignError, match="invalid sweep point"):
        compile_campaign(spec)


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
def test_journal_roundtrip(tmp_path):
    spec = tiny_spec(runs=1)
    jobs = compile_campaign(spec)
    report = run_scenario(jobs[0].config)
    path = tmp_path / "j.jsonl"
    with CampaignJournal(path) as journal:
        journal.begin(spec, total_jobs=len(jobs))
        journal.record(jobs[0], report)
    state = load_journal(path)
    assert state.spec_digest == spec.digest()
    assert state.total_jobs == len(jobs)
    assert len(state) == 1
    loaded = state.reports[jobs[0].digest]
    assert loaded.to_state() == report.to_state()


def test_journal_tolerates_truncated_final_line(tmp_path):
    spec = tiny_spec(runs=1)
    jobs = compile_campaign(spec)
    report = run_scenario(jobs[0].config)
    path = tmp_path / "j.jsonl"
    with CampaignJournal(path) as journal:
        journal.begin(spec, total_jobs=len(jobs))
        journal.record(jobs[0], report)
    # Simulate a writer killed mid-append: chop the final line in half.
    text = path.read_text()
    path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
    state = load_journal(path)
    assert state.partial_lines == 1
    assert len(state) == 0


def test_journal_rejects_midfile_corruption_and_bad_version(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_text("garbage\n" + json.dumps({"event": "begin"}) + "\n")
    with pytest.raises(CampaignError, match="corrupt"):
        load_journal(path)
    path.write_text(json.dumps({"event": "begin", "version": 99}) + "\n")
    with pytest.raises(CampaignError, match="version"):
        load_journal(path)
    path.write_text(json.dumps({"event": "mystery"}) + "\n")
    with pytest.raises(CampaignError, match="unknown journal event"):
        load_journal(path)


# ----------------------------------------------------------------------
# Resume byte-identity (the acceptance criterion)
# ----------------------------------------------------------------------
class _RecordingWorker:
    """Picklable worker spy: appends each executed digest to a file (so it
    also observes jobs run inside process-pool workers)."""

    def __init__(self, log_path):
        self.log_path = str(log_path)

    def __call__(self, config):
        with open(self.log_path, "a", encoding="utf-8") as handle:
            handle.write(config_digest(config) + "\n")
        return run_scenario(config)



@pytest.mark.parametrize("backend_name", ["inline", "process"])
def test_interrupted_campaign_resumes_byte_identical(tmp_path, backend_name):
    spec = tiny_spec(runs=2)

    baseline = run_campaign(
        spec, backend=make_backend(backend_name, jobs=2),
        journal=tmp_path / "full.jsonl",
    )
    assert baseline.complete and baseline.executed == 4

    # Interrupt after 3 of 4 jobs, then resume the rest.
    journal = tmp_path / "interrupted.jsonl"
    first = run_campaign(
        spec, backend=make_backend(backend_name, jobs=2),
        journal=journal, max_jobs=3,
    )
    assert not first.complete
    assert first.executed == 3
    assert first.aggregate is None
    journaled_before_resume = set(load_journal(journal).reports)
    assert len(journaled_before_resume) == 3

    call_log = tmp_path / "calls.log"
    resumed = CampaignRunner(
        spec, make_backend(backend_name, jobs=2),
        journal_path=journal, resume=True, worker=_RecordingWorker(call_log),
    ).run()
    calls = call_log.read_text().split()
    assert resumed.complete
    assert resumed.from_journal == 3
    assert resumed.executed == 1
    # Exactly the one unjournaled job ran; no completed job ran again.
    assert len(calls) == 1
    assert calls[0] not in journaled_before_resume

    a = json.dumps(baseline.aggregate, sort_keys=True)
    b = json.dumps(resumed.aggregate, sort_keys=True)
    assert a == b


def test_resume_with_complete_journal_runs_nothing(tmp_path):
    spec = tiny_spec(runs=1)
    journal = tmp_path / "j.jsonl"
    full = run_campaign(spec, journal=journal)
    assert full.complete

    def exploding_worker(config):
        raise AssertionError("no job should execute on a finished journal")

    replay = CampaignRunner(
        spec, journal_path=journal, resume=True, worker=exploding_worker
    ).run()
    assert replay.executed == 0
    assert replay.from_journal == replay.total_jobs
    assert json.dumps(replay.aggregate, sort_keys=True) == json.dumps(
        full.aggregate, sort_keys=True
    )


def test_campaign_hands_back_reports_in_job_order(tmp_path):
    """A campaign and a plain config list run on the same loop: the
    campaign's reports equal ``run_configs`` over its compiled configs,
    whether executed or replayed from the journal."""
    spec = tiny_spec(runs=2)
    journal = tmp_path / "j.jsonl"
    assert run_campaign(spec, journal=journal, max_jobs=1).reports is None
    full = run_campaign(spec, journal=journal, resume=True)
    plain = run_configs([job.config for job in compile_campaign(spec)])
    assert [r.to_state() for r in full.reports] == [r.to_state() for r in plain]
    replay = run_campaign(spec, journal=journal, resume=True)
    assert replay.executed == 0
    assert [r.to_state() for r in replay.reports] == [r.to_state() for r in plain]


def test_defense_table_axis_aggregates_and_resumes(tmp_path):
    """A ``defense`` axis of ``{name, config}`` tables (the form
    docs/DEFENSES.md shows) journals, aggregates, and resumes — tables
    are hashable points and render as JSON objects."""
    spec = CampaignSpec.from_dict({
        "name": "rtt-alpha",
        "base": {"n_nodes": 16, "duration": 30.0, "seed": 4, "attack_start": 10.0},
        "axes": {"defense": [
            {"name": "rtt", "config": {"alpha": alpha}} for alpha in (2.0, 3.0)
        ]},
    })
    journal = tmp_path / "j.jsonl"
    straight = run_campaign(spec, journal=journal)
    assert straight.complete
    points = [entry["point"] for entry in json.loads(straight.to_json())["points"]]
    assert points == [
        {"defense": {"config": {"alpha": 2.0}, "name": "rtt"}},
        {"defense": {"config": {"alpha": 3.0}, "name": "rtt"}},
    ]
    resumed = run_campaign(spec, journal=journal, resume=True)
    assert resumed.from_journal == 2
    assert resumed.to_json() == straight.to_json()


def test_resume_rejects_spec_mismatch(tmp_path):
    journal = tmp_path / "j.jsonl"
    run_campaign(tiny_spec(name="alpha"), journal=journal, max_jobs=1)
    with pytest.raises(CampaignError, match="different campaign spec"):
        run_campaign(tiny_spec(name="beta"), journal=journal, resume=True)


def test_resume_requires_journal_path():
    with pytest.raises(CampaignError, match="journal"):
        CampaignRunner(tiny_spec(), resume=True)


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
def test_make_backend_names():
    assert isinstance(make_backend("inline"), InlineBackend)
    assert isinstance(make_backend("process", jobs=2), ProcessBackend)
    for name in ("quantum", "thread"):
        with pytest.raises(CampaignError, match="unknown backend"):
            make_backend(name)


def test_cache_serves_second_campaign(tmp_path):
    spec = tiny_spec(runs=1)
    cache = ResultCache(tmp_path / "cache")
    cold = run_campaign(spec, cache=cache)
    warm = run_campaign(spec, cache=cache)
    assert cold.executed == warm.from_cache == cold.total_jobs
    assert warm.executed == 0
    assert json.dumps(cold.aggregate, sort_keys=True) == json.dumps(
        warm.aggregate, sort_keys=True
    )


# ----------------------------------------------------------------------
# Retry
# ----------------------------------------------------------------------
def test_retry_policy_validation_and_backoff():
    policy = RetryPolicy(retries=3, backoff=0.5, multiplier=2.0)
    assert policy.delay(1) == 0.5
    assert policy.delay(2) == 1.0
    with pytest.raises(ValueError):
        RetryPolicy(retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff=-0.1)


def test_flaky_worker_retried_to_success(tmp_path):
    spec = tiny_spec(runs=1)
    failed_once = set()
    sleeps = []

    def flaky(config):
        digest = config_digest(config)
        if digest not in failed_once:
            failed_once.add(digest)
            raise RuntimeError("transient crash")
        return run_scenario(config)

    progress = CampaignProgress(printer=lambda line: None)
    result = CampaignRunner(
        spec,
        worker=flaky,
        retry=RetryPolicy(retries=2, backoff=0.01),
        sleep=sleeps.append,
        progress=progress,
    ).run()
    assert result.complete
    assert result.retried == result.total_jobs
    assert sleeps  # backoff was honoured (via the injected sleep)
    assert progress.retries == result.retried
    reference = run_campaign(spec)
    assert json.dumps(result.aggregate, sort_keys=True) == json.dumps(
        reference.aggregate, sort_keys=True
    )


def test_retry_exhaustion_raises_campaign_error():
    # With quarantine off, exhausting the retry budget is fatal (the
    # pre-supervision behaviour).
    spec = tiny_spec(runs=1)

    def always_fails(config):
        raise RuntimeError("hopeless")

    with pytest.raises(CampaignError, match="failed after"):
        CampaignRunner(
            spec,
            worker=always_fails,
            retry=RetryPolicy(retries=1, backoff=0.0),
            supervision=SupervisionPolicy(quarantine=False),
            sleep=lambda _s: None,
        ).run()


# ----------------------------------------------------------------------
# Progress + trace
# ----------------------------------------------------------------------
def test_progress_counters_and_trace_records(tmp_path):
    from repro.sim.trace import TraceLog

    spec = tiny_spec(runs=1)
    lines = []
    progress = CampaignProgress(printer=lines.append)
    trace = TraceLog()
    result = run_campaign(
        spec, journal=tmp_path / "j.jsonl", progress=progress, trace=trace
    )
    assert result.complete
    assert progress.total == result.total_jobs
    assert progress.executed == result.total_jobs
    assert lines  # at least one progress line rendered
    records = [r for r in trace if r.kind == "campaign_job"]
    assert len(records) == result.total_jobs
    assert all(r.fields["source"] == "run" for r in records)
