"""Matrix campaigns: spec compilation, execution, resume byte-identity.

The matrix is one ordinary campaign — these tests pin the parts the
matrix adds on top: the coupled attack axis (malicious count co-varies
with the mode), its single journal, cell aggregation through the
*plugin's* detection verdict, and the interrupt/resume →
byte-identical-report guarantee the CI smoke job re-checks end to end.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.campaign import (
    CampaignError,
    CampaignResult,
    aggregate_campaign,
    compile_campaign,
    load_journal,
)
from repro.experiments.matrix import (
    DEFAULT_MATRIX_ATTACKS,
    MatrixSpec,
    aggregate_matrix,
    attack_malicious,
    run_matrix,
)
from repro.experiments.scenario import ScenarioConfig
from repro.metrics.collector import MetricsReport
from repro.obs.report import MatrixReport


#: SHA-256 of ``_small_spec()``'s MatrixReport JSON, as rendered when each
#: attack column was its own campaign; folding the matrix into one
#: campaign must not move a byte.
SMALL_MATRIX_REPORT_SHA256 = (
    "5d19236871c6932245e1c18091b436edbe80e802c3504bd81b6ebce69a0fc875"
)


def _small_spec(**overrides):
    defaults = dict(
        name="testmatrix",
        base=ScenarioConfig(n_nodes=16, duration=40.0, seed=3, attack_start=10.0),
        defenses=("none", "liteworp"),
        attacks=("outofband", "relay"),
        runs=1,
    )
    defaults.update(overrides)
    return MatrixSpec(**defaults)


# ----------------------------------------------------------------------
# Spec compilation
# ----------------------------------------------------------------------
def test_attack_malicious_covaries_with_mode():
    assert attack_malicious("none") == 0
    assert attack_malicious("outofband") == 2
    assert attack_malicious("encapsulation", colluders=3) == 3
    assert attack_malicious("highpower") == 1
    assert attack_malicious("relay") == 1
    assert attack_malicious("rushing") == 1


def test_default_defenses_are_every_registered_one():
    from repro.defenses import available_defenses

    spec = MatrixSpec()
    assert spec.defenses == available_defenses()
    assert spec.attacks == DEFAULT_MATRIX_ATTACKS


def test_campaign_per_attack_pins_mode_and_malicious_count():
    spec = _small_spec(attacks=("none", "outofband", "relay"))
    campaign = spec.to_campaign()
    assert campaign.name == "testmatrix"
    assert campaign.axes_dict() == {
        "attack": tuple(
            {"attack_mode": attack, "n_malicious": attack_malicious(attack)}
            for attack in spec.attacks
        ),
        "defense": ("none", "liteworp"),
    }
    # Attack-major job order: every attack's cells are contiguous.
    cells = [
        (job.config.attack_mode, job.config.n_malicious, job.config.defense.name)
        for job in compile_campaign(campaign)
    ]
    assert cells == [
        (attack, attack_malicious(attack), defense)
        for attack in spec.attacks
        for defense in spec.defenses
    ]


def test_spec_validation():
    with pytest.raises(CampaignError, match="unknown attack mode"):
        _small_spec(attacks=("teleport",))
    with pytest.raises(CampaignError, match="unknown defense"):
        _small_spec(defenses=("prayer",))
    with pytest.raises(CampaignError, match="duplicate"):
        _small_spec(attacks=("relay", "relay"))
    with pytest.raises(CampaignError, match="runs"):
        _small_spec(runs=0)
    with pytest.raises(CampaignError, match="colluders"):
        _small_spec(colluders=1)


def test_total_jobs():
    assert _small_spec(runs=3).total_jobs() == 2 * 2 * 3


def test_point_labels_print_tables_as_key_value_items():
    """Job labels and the result summary share one point-label helper:
    a coupled-axis table prints as ``{key=value,...}``, never a repr."""
    campaign = MatrixSpec().to_campaign()
    jobs = compile_campaign(campaign)
    assert jobs[0].label() == (
        f"attack={{attack_mode=outofband,n_malicious=2}},"
        f"defense={campaign.axes_dict()['defense'][0]} #0"
    )
    report = MetricsReport(
        duration=1.0, originated=1, delivered=1, wormhole_drops=0,
        routes_established=1, malicious_routes=0, drop_times=(),
        isolation_times={}, first_activity={}, detections=0, isolations=0,
    )
    aggregate = aggregate_campaign(
        campaign, jobs, {job.index: report for job in jobs}
    )
    text = CampaignResult(
        spec=campaign, total_jobs=len(jobs), executed=len(jobs), from_cache=0,
        from_journal=0, retried=0, complete=True, aggregate=aggregate,
    ).format()
    labels = [job.label() for job in jobs]
    for label in labels:
        assert "'" not in label and "attack={attack_mode=" in label
    for line in text.splitlines()[1:]:
        assert "'" not in line
        assert line.split()[0] + " #0" in labels


# ----------------------------------------------------------------------
# Execution + aggregation
# ----------------------------------------------------------------------
def test_matrix_end_to_end(tmp_path):
    spec = _small_spec()
    result = run_matrix(spec, journal_dir=tmp_path)
    assert result.complete
    assert result.executed == spec.total_jobs()
    assert isinstance(result.report, MatrixReport)
    assert (
        hashlib.sha256(result.report.to_json().encode()).hexdigest()
        == SMALL_MATRIX_REPORT_SHA256
    )
    # One journal for the whole matrix, readable like any campaign's.
    assert [path.name for path in tmp_path.iterdir()] == ["testmatrix.journal.jsonl"]
    state = load_journal(tmp_path / "testmatrix.journal.jsonl")
    assert state.spec_digest == spec.to_campaign().digest()
    assert len(state) == state.total_jobs == spec.total_jobs()

    payload = result.report.payload
    assert payload["attacks"] == list(spec.attacks)
    assert payload["defenses"] == list(spec.defenses)
    assert len(payload["cells"]) == len(spec.attacks) * len(spec.defenses)
    for entry in payload["cells"]:
        metrics = entry["metrics"]
        assert metrics["runs"] == spec.runs
        assert 0.0 <= metrics["detection_rate"] <= 1.0
        assert 0.0 <= metrics["delivery_fraction"] <= 1.0

    # LITEWORP catches the out-of-band tunnel; the null defense never
    # alarms anywhere.
    assert result.report.cell("outofband", "liteworp")["detection_rate"] == 1.0
    for attack in spec.attacks:
        assert result.report.cell(attack, "none")["detection_rate"] == 0.0

    markdown = result.report.to_markdown()
    assert "## Detection rate" in markdown
    assert "| liteworp |" in markdown
    json.loads(result.report.to_json())  # payload is valid JSON


def test_matrix_interrupt_resume_byte_identity(tmp_path):
    spec = _small_spec()
    straight = run_matrix(spec, journal_dir=tmp_path / "straight")

    chopped_dir = tmp_path / "chopped"
    partial = run_matrix(spec, journal_dir=chopped_dir, max_jobs=1)
    assert not partial.complete
    assert partial.report is None
    assert partial.executed == 1

    resumed = run_matrix(spec, journal_dir=chopped_dir, resume=True)
    assert resumed.complete
    assert resumed.executed == spec.total_jobs() - 1
    assert resumed.report.to_json() == straight.report.to_json()


def test_aggregate_requires_complete_journals(tmp_path):
    spec = _small_spec()
    with pytest.raises(CampaignError, match="0 of its 4 job reports"):
        aggregate_matrix(spec, [])
    partial = run_matrix(spec, journal_dir=tmp_path, max_jobs=1)
    assert partial.campaign.reports is None
    state = load_journal(tmp_path / "testmatrix.journal.jsonl")
    assert len(state) == 1 and state.interrupts == 1
    journaled = list(state.reports.values())
    with pytest.raises(CampaignError, match="1 of its 4 job reports"):
        aggregate_matrix(spec, journaled)


def test_matrix_stop_callable_interrupts(tmp_path):
    spec = _small_spec()
    calls = {"n": 0}

    def stop():
        calls["n"] += 1
        return calls["n"] > 2

    result = run_matrix(spec, journal_dir=tmp_path, stop=stop)
    assert not result.complete
    assert result.report is None


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_matrix_runs_and_resumes(tmp_path, capsys):
    from repro.cli import main

    journal_dir = str(tmp_path / "journals")
    out_path = tmp_path / "matrix.json"
    base_args = [
        "matrix", "--name", "climatrix",
        "--defense", "none", "--defense", "snd",
        "--attack", "relay", "--attack", "outofband",
        "--nodes", "16", "--duration", "40", "--attack-start", "10",
        "--runs", "1", "--journal-dir", journal_dir, "--no-cache",
        "--no-fsync", "--quiet",
    ]
    # Budget-limited first leg stops with the resumable exit code.
    assert main(base_args + ["--max-jobs", "1"]) == 75
    assert "matrix stopped after --max-jobs 1; 1/4 jobs" in capsys.readouterr().err
    # The matrix journal is an ordinary campaign journal.
    journal = str(tmp_path / "journals" / "climatrix.journal.jsonl")
    assert main(["campaign", "status", journal]) == 0
    assert "1 completed job(s)" in capsys.readouterr().out
    assert main(["campaign", "doctor", journal]) == 0
    capsys.readouterr()
    # Resume finishes and renders the matrix.
    assert main(base_args + ["--resume", "--out", str(out_path)]) == 0
    captured = capsys.readouterr()
    assert "# Defense × attack matrix: climatrix" in captured.out
    payload = json.loads(out_path.read_text())
    assert payload["defenses"] == ["none", "snd"]
    assert len(payload["cells"]) == 4
