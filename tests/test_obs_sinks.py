"""Trace streaming: ring-buffer residency, sinks, and JSONL round-trip."""

import pytest

from repro.obs.sinks import (
    JsonlSink,
    MemorySink,
    ReadStats,
    read_jsonl,
    record_to_json,
)
from repro.sim.trace import TraceLog


def fill(trace, count, kind="checkpoint"):
    for i in range(count):
        trace.emit(float(i), kind, index=i)


def test_unbounded_log_keeps_everything():
    trace = TraceLog()
    fill(trace, 100)
    assert len(trace) == 100
    assert trace.total_emitted == 100
    assert trace.dropped_records == 0
    assert trace.peak_resident == 100


def test_ring_mode_bounds_residency():
    trace = TraceLog(capacity=10)
    fill(trace, 100)
    assert len(trace) == 10
    assert trace.resident_records == 10
    assert trace.total_emitted == 100
    assert trace.dropped_records == 90
    assert trace.peak_resident == 10
    # The resident window is the newest records.
    assert [r["index"] for r in trace.of_kind("checkpoint")] == list(range(90, 100))


def test_ring_capacity_must_be_positive():
    with pytest.raises(ValueError):
        TraceLog(capacity=0)


def test_sinks_see_records_evicted_from_the_ring():
    trace = TraceLog(capacity=5)
    sink = MemorySink()
    trace.attach_sink(sink)
    fill(trace, 50)
    assert len(sink) == 50
    assert [r["index"] for r in sink.records] == list(range(50))


def test_subscribers_fire_despite_eviction():
    trace = TraceLog(capacity=1)
    seen = []
    trace.subscribe("checkpoint", seen.append)
    fill(trace, 20)
    assert len(seen) == 20


def test_attach_sink_requires_write_method():
    trace = TraceLog()
    with pytest.raises(TypeError):
        trace.attach_sink(object())


def test_detach_and_close_sinks():
    trace = TraceLog()
    sink = MemorySink()
    trace.attach_sink(sink)
    assert trace.sinks == (sink,)
    trace.detach_sink(sink)
    assert trace.sinks == ()
    fill(trace, 3)
    assert len(sink) == 0

    again = MemorySink()
    trace.attach_sink(again)
    trace.close_sinks()
    assert again.closed
    assert trace.sinks == ()


def test_jsonl_sink_round_trips(tmp_path):
    path = tmp_path / "trace.jsonl"
    trace = TraceLog()
    trace.attach_sink(JsonlSink(path, run="run-a"))
    trace.emit(1.5, "alert_sent", guard=0, accused=4, recipient=2)
    trace.emit(2.0, "isolation", node=2, accused=4, alerts=3)
    trace.close_sinks()

    records = list(read_jsonl(path))
    assert [r.kind for r in records] == ["alert_sent", "isolation"]
    assert records[0].time == 1.5
    assert records[0]["guard"] == 0
    assert all(r["__run__"] == "run-a" for r in records)


def test_jsonl_sink_appends_across_writers(tmp_path):
    """Two sinks (as two parallel workers would) share one file safely."""
    path = tmp_path / "trace.jsonl"
    for run in ("run-a", "run-b"):
        trace = TraceLog()
        trace.attach_sink(JsonlSink(path, run=run))
        fill(trace, 5)
        trace.close_sinks()
    records = list(read_jsonl(path))
    assert len(records) == 10
    assert {r["__run__"] for r in records} == {"run-a", "run-b"}


def test_jsonl_serialises_awkward_field_values(tmp_path):
    trace = TraceLog()
    path = tmp_path / "trace.jsonl"
    trace.attach_sink(JsonlSink(path))
    trace.emit(
        0.0, "checkpoint",
        colluders=(3, 7),
        packet=("REQ", 1, 2),
        reach=frozenset({2, 1}),
        nested={"a": (1, 2)},
    )
    trace.close_sinks()
    (record,) = read_jsonl(path)
    assert record["colluders"] == [3, 7]
    assert record["reach"] == [1, 2]
    assert record["nested"] == {"a": [1, 2]}


def test_read_jsonl_reports_malformed_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"time": 0.0, "kind": "ok", "fields": {}}\nnot-json\n')
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        list(read_jsonl(path))


def truncated_export(tmp_path, keep=2):
    """A real export with its final line chopped mid-JSON, as a writer
    killed between ``write`` and flush would leave it."""
    path = tmp_path / "trace.jsonl"
    trace = TraceLog()
    trace.attach_sink(JsonlSink(path))
    fill(trace, keep + 1)
    trace.close_sinks()
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    path.write_text("".join(lines[:keep]) + lines[keep][: len(lines[keep]) // 2])
    return path


def test_read_jsonl_tolerate_partial_skips_and_counts(tmp_path):
    path = truncated_export(tmp_path, keep=2)
    stats = ReadStats()
    records = list(read_jsonl(path, stats=stats))
    assert len(records) == 2
    assert stats.records == 2
    assert stats.partial_lines == 1


def test_tolerate_partial_still_rejects_midfile_corruption(tmp_path):
    path = tmp_path / "corrupt.jsonl"
    path.write_text(
        '{"time": 0.0, "kind": "ok", "fie\n'
        '{"time": 1.0, "kind": "ok", "fields": {}}\n'
    )
    stats = ReadStats()
    with pytest.raises(ValueError, match="corrupt.jsonl:1"):
        list(read_jsonl(path, stats=stats))
    assert stats.partial_lines == 0


def test_read_jsonl_skips_complete_json_without_newline(tmp_path):
    """The torn-tail rule is about the newline, not the JSON: a final
    line with no newline is torn even when it happens to parse, and a
    newline-terminated malformed final line is corruption."""
    good = '{"time": 0.0, "kind": "ok", "fields": {}}\n'
    path = tmp_path / "tail.jsonl"
    path.write_text(good + good.rstrip("\n"))
    stats = ReadStats()
    assert len(list(read_jsonl(path, stats=stats))) == 1
    assert stats.partial_lines == 1
    path.write_text(good + '{"time": 1.0, "ki\n')
    with pytest.raises(ValueError, match="tail.jsonl:2"):
        list(read_jsonl(path))


def test_tolerate_partial_is_a_noop_on_clean_files(tmp_path):
    path = tmp_path / "trace.jsonl"
    trace = TraceLog()
    trace.attach_sink(JsonlSink(path))
    fill(trace, 3)
    trace.close_sinks()
    stats = ReadStats()
    assert len(list(read_jsonl(path, stats=stats))) == 3
    assert stats.partial_lines == 0


def test_record_to_json_is_deterministic():
    trace = TraceLog()
    record = trace.emit(1.0, "checkpoint", b=2, a=1)
    assert record_to_json(record) == record_to_json(record)
    assert '"kind":"checkpoint"' in record_to_json(record)


def test_clear_keeps_sinks_and_counts():
    trace = TraceLog(capacity=4)
    sink = MemorySink()
    trace.attach_sink(sink)
    fill(trace, 6)
    trace.clear()
    assert len(trace) == 0
    assert trace.total_emitted == 6
    fill(trace, 1)
    assert len(sink) == 7
