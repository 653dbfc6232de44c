"""Property tests: a campaign journal truncated at *any* byte offset
either resumes to byte-identical aggregates or fails with a clean,
located diagnostic — never a silent wrong aggregate."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.campaign import (
    CampaignError,
    CampaignRunner,
    CampaignSpec,
    load_journal,
)
from repro.experiments.doctor import repair_journal
from repro.experiments.scenario import ScenarioConfig
from repro.metrics.collector import MetricsReport

SPEC = CampaignSpec(
    name="truncation-property",
    base=ScenarioConfig(n_nodes=16, duration=30.0, seed=4, attack_start=10.0),
    axes=(("n_malicious", (0, 2)),),
    runs=2,
)


class _FakeWorker:
    """Instant deterministic worker so each hypothesis example is cheap."""

    def __call__(self, config):
        return MetricsReport(
            duration=config.duration,
            originated=10 + config.seed % 7,
            delivered=8,
            wormhole_drops=config.n_malicious,
            routes_established=9,
            malicious_routes=config.n_malicious,
            drop_times=(1.0,),
            isolation_times={},
            first_activity={},
            detections=config.n_malicious,
            isolations=0,
        )


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """One fault-free journal + its aggregate, shared by every example."""
    root = tmp_path_factory.mktemp("truncation")
    journal = root / "full.jsonl"
    result = CampaignRunner(
        SPEC, worker=_FakeWorker(), journal_path=journal, fsync=False
    ).run()
    assert result.complete
    return journal.read_bytes(), json.dumps(result.aggregate, sort_keys=True)


@settings(
    deadline=None,
    max_examples=80,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_truncation_at_any_offset_resumes_byte_identical(baseline, data):
    raw, reference = baseline
    offset = data.draw(st.integers(min_value=0, max_value=len(raw)))
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "truncated.jsonl"
        path.write_bytes(raw[:offset])
        # A pure prefix damages at most the final line, a torn tail that
        # loading skips — loading never raises, and every
        # report it does return is one the full journal contains.
        state = load_journal(path)
        assert state.partial_lines <= 1
        full = load_journal_reports(raw, workdir)
        for digest, report in state.reports.items():
            assert report == full[digest]
        # Resume from the prefix completes and lands byte-identically
        # on the fault-free aggregate.
        resumed = CampaignRunner(
            SPEC,
            worker=_FakeWorker(),
            journal_path=path,
            resume=True,
            fsync=False,
        ).run()
        assert resumed.complete
        assert json.dumps(resumed.aggregate, sort_keys=True) == reference


def load_journal_reports(raw, workdir):
    path = Path(workdir) / "full-reference.jsonl"
    path.write_bytes(raw)
    return load_journal(path).reports


@settings(
    deadline=None,
    max_examples=40,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_midfile_garbage_fails_located_then_repairs(baseline, data):
    raw, reference = baseline
    lines = raw.splitlines(keepends=True)
    # Inject a non-JSON line anywhere strictly before the final line, so
    # it is never mistakable for an interrupted final append.
    where = data.draw(st.integers(min_value=0, max_value=len(lines) - 2))
    garbage = data.draw(
        st.binary(min_size=1, max_size=40).filter(
            lambda b: b.strip()
            and b"\n" not in b
            and b"\r" not in b
            and not _is_json(b)
        )
    )
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "corrupt.jsonl"
        path.write_bytes(
            b"".join(lines[: where + 1]) + garbage + b"\n"
            + b"".join(lines[where + 1 :])
        )
        # Never a silent wrong aggregate: the load fails, and the
        # diagnostic carries the line, the byte offset, and the cure.
        with pytest.raises(CampaignError) as excinfo:
            load_journal(path)
        message = str(excinfo.value)
        assert f":{where + 2}:" in message
        assert "byte offset" in message
        assert "repro campaign doctor" in message
        # The cure works: repair quarantines the garbage, resume matches.
        result = repair_journal(path)
        assert result.repaired and result.quarantined == 1
        resumed = CampaignRunner(
            SPEC,
            worker=_FakeWorker(),
            journal_path=path,
            resume=True,
            fsync=False,
        ).run()
        assert resumed.complete
        assert json.dumps(resumed.aggregate, sort_keys=True) == reference


def _is_json(blob):
    try:
        json.loads(blob.decode("utf-8", errors="strict"))
        return True
    except (ValueError, UnicodeDecodeError):
        return False
