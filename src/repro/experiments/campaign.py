"""Campaign orchestration: the one executor for batches of scenario runs.

Every batch of simulations in this package — a declarative campaign, a
figure sweep, :func:`repro.api.sweep` — runs through the single dispatch
loop of :class:`JobRunner`: cache lookup, then :class:`ExecutionBackend`
``run_batch`` waves with retry, then cache write-back.

A *campaign* is a declarative description of a whole study — a base
:class:`~repro.experiments.scenario.ScenarioConfig`, a grid of field
overrides (``axes``), and a replication count — compiled into a flat job
list.  :class:`CampaignRunner` wraps the loop in a journal so the study
survives being killed; :func:`run_configs` runs a plain config list (a
figure's points need not form a grid) with no journal at all.

- **Content-addressed jobs** — every job is keyed by the existing
  :func:`~repro.experiments.cache.config_digest` of its concrete config,
  so "is this job done?" is a pure function of the spec, independent of
  process, host, or ordering.
- **Append-only journal** — each completed job is appended to a JSONL
  journal (one atomic line per job, like
  :class:`~repro.obs.sinks.JsonlSink`) together with its full-fidelity
  report state.  Appends are fsynced by default, and a journal whose
  previous writer died mid-append is self-healed on reopen (the
  unterminated tail fragment is truncated before new lines land).
  Resuming loads the journal, skips every recorded job, and produces
  byte-identical aggregates to an uninterrupted run.
- **Pluggable execution** — ``inline`` (serial, in-process) and
  ``process`` (a worker-process pool, one future per job) backends share
  one retry/backoff loop: a crashed worker fails only its own job, which
  is re-dispatched up to :class:`RetryPolicy.retries` times.
- **Supervision** — a :class:`SupervisionPolicy` adds per-job wall-clock
  timeouts (hung workers are preempted and their pool torn down), result
  payload validation, and poison-job quarantine: a job that keeps
  killing its worker is dead-lettered to the journal with its traceback
  instead of wedging the campaign.  Crash-suspect jobs are re-dispatched
  in *isolation* (one fresh single-worker pool each) so a poison job
  cannot take innocent neighbours down with it twice.
- **Interruptibility** — a ``stop`` callable (the CLI wires SIGINT /
  SIGTERM to it) halts dispatch between jobs, flushes a final
  ``interrupt`` journal line, and reports the partial result; the CLI
  exits 75 exactly like ``--max-jobs``.

Every one of those failure paths is reproducible through
:mod:`repro.faults.harness`: a :class:`HarnessFaultController` injects
worker crashes, hangs, corrupt payloads, and torn journal writes, and a
campaign resumed after injected churn must produce byte-identical
aggregates to a fault-free run (see tests/test_campaign_supervision.py
and the ``campaign-chaos`` CI job).  ``repro campaign doctor``
(:mod:`repro.experiments.doctor`) audits and repairs damaged journals.

Specs load from TOML or JSON (:func:`load_spec`) or are built in Python;
``repro campaign {run,plan,status,doctor}`` is the CLI surface and
:func:`repro.api.campaign` the stable programmatic entry point.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import time
import traceback as traceback_module
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.cache import ResultCache, config_digest
from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.experiments.seeds import child_seed
from repro.experiments.stats import summarize, summarize_optional
from repro.faults.harness import HarnessFaultController, HarnessInterrupt
from repro.metrics.collector import MetricsReport
from repro.obs.progress import CampaignProgress
from repro.obs.sinks import jsonl_lines
from repro.obs.spans import span
from repro.sim.trace import TraceLog

#: Journal line format version (bump on shape changes; old journals are
#: rejected with a clear error rather than misread).
JOURNAL_VERSION = 1


class CampaignError(RuntimeError):
    """A campaign could not be compiled, resumed, or completed."""


class JobTimeoutError(CampaignError):
    """A job exceeded the supervision wall-clock timeout."""


class WorkerLostError(CampaignError):
    """A worker (or its whole pool) died before the job finished."""


class CorruptResultError(CampaignError):
    """A worker completed but returned a payload that is not a report."""


class WorkerPreempted(CampaignError):
    """A job was torn down through no fault of its own (its pool was
    killed because a *neighbour* hung or crashed).  Collateral failures
    are always re-dispatched and never count toward dead-lettering."""

    collateral = True


# ----------------------------------------------------------------------
# Spec: the declarative description of a campaign
# ----------------------------------------------------------------------
def apply_overrides(config: ScenarioConfig, overrides: Mapping[str, Any]) -> ScenarioConfig:
    """Return ``config`` with dotted-path field overrides applied.

    ``{"n_malicious": 2}`` replaces a top-level field;
    ``{"liteworp.theta": 4}`` recurses into the nested dataclass.  Unknown
    field names raise :class:`CampaignError` naming the offender.
    """
    # Group dotted paths by head so sibling overrides of one nested config
    # (liteworp.theta + liteworp.gamma) collapse into a single replace.
    flat: Dict[str, Any] = {}
    nested: Dict[str, Dict[str, Any]] = {}
    for name in sorted(overrides):
        value = overrides[name]
        if "." in name:
            head, rest = name.split(".", 1)
            nested.setdefault(head, {})[rest] = value
        else:
            flat[name] = value
    field_names = {f.name for f in dataclasses.fields(config)}
    for name in itertools.chain(flat, nested):
        if name not in field_names:
            raise CampaignError(
                f"unknown {type(config).__name__} field {name!r} in campaign overrides"
            )
    for head, sub in nested.items():
        inner = getattr(config, head)
        if not dataclasses.is_dataclass(inner):
            raise CampaignError(
                f"cannot apply dotted override to non-dataclass field {head!r}"
            )
        flat[head] = apply_overrides(inner, sub)
    return dataclasses.replace(config, **flat)


class AxisTable(dict):
    """A table-valued axis entry (a ``{name, config}`` defense, or one
    coupled setting of a label axis).

    A plain dict that hashes by its items, so sweep points stay usable as
    keys, while ``json`` still renders it as an object and
    :func:`~repro.experiments.cache.config_digest` sees an ordinary
    mapping.  The spec freezes every table it is given; nothing mutates
    one afterwards.
    """

    def __hash__(self) -> int:  # type: ignore[override]
        return hash(tuple(sorted(self.items())))


def _freeze(value: Any) -> Any:
    """Recursively turn mappings into :class:`AxisTable` and lists into
    tuples, so an axis value is hashable (digest rendering unchanged)."""
    if isinstance(value, Mapping):
        return AxisTable((str(k), _freeze(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


def _is_field_path(config: Any, path: str) -> bool:
    """Whether dotted ``path`` names a field of ``config`` (recursing into
    nested dataclass fields)."""
    for part in path.split("."):
        if not dataclasses.is_dataclass(config) or part not in {
            f.name for f in dataclasses.fields(config)
        }:
            return False
        config = getattr(config, part)
    return True


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative campaign: base config × axis grid × replications.

    ``axes`` maps an axis name to the sequence of values to sweep; the
    campaign is the cartesian product over all axes in sorted-name order,
    each point replicated ``runs`` times with hash-derived seeds.  What a
    value means depends only on the axis name:

    - an axis named after a (possibly dotted) :class:`ScenarioConfig`
      field path sets that field, e.g. ``defense`` over
      ``["none", {"name": "rtt", "config": {"alpha": 2.5}}]``;
    - any other name is a *label*: each value is a table of dotted-path
      overrides applied together (a *coupled* axis), e.g. ``attack`` over
      ``[{"attack_mode": "outofband", "n_malicious": 2},
      {"attack_mode": "relay", "n_malicious": 1}]``.

    A label value that is not a table, a table naming an unknown field,
    and two axes setting the same field all raise :class:`CampaignError`.
    """

    name: str
    base: ScenarioConfig = field(default_factory=ScenarioConfig)
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    runs: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("campaign needs a non-empty name")
        if self.runs < 1:
            raise CampaignError(f"runs must be at least 1, got {self.runs!r}")
        normalized = tuple(
            (str(axis), tuple(_freeze(value) for value in values))
            for axis, values in sorted(self.axes, key=lambda item: str(item[0]))
        )
        owners: Dict[str, str] = {}
        for axis, values in normalized:
            if not values:
                raise CampaignError(f"axis {axis!r} has no values")
            for path in self._axis_fields(axis, values):
                for other_path, owner in owners.items():
                    if (path == other_path or path.startswith(other_path + ".")
                            or other_path.startswith(path + ".")):
                        raise CampaignError(
                            f"axes {owner!r} and {axis!r} both set field "
                            f"{min(path, other_path, key=len)!r}"
                        )
                owners[path] = axis
        object.__setattr__(self, "axes", normalized)

    def _is_label(self, axis: str) -> bool:
        """A label axis is one not named after a ``base`` field (path)."""
        head = axis.split(".", 1)[0]
        return head not in {f.name for f in dataclasses.fields(self.base)}

    def _axis_fields(self, axis: str, values: Tuple[Any, ...]) -> List[str]:
        """The field paths ``axis`` sets (validating label-axis tables)."""
        if not self._is_label(axis):
            return [axis]
        paths: Dict[str, None] = {}
        for value in values:
            if not isinstance(value, Mapping):
                raise CampaignError(
                    f"axis {axis!r} is not a ScenarioConfig field, so each of "
                    f"its values must be a table of field overrides; got {value!r}"
                )
            for path in value:
                if not _is_field_path(self.base, path):
                    raise CampaignError(
                        f"unknown {type(self.base).__name__} field {path!r} "
                        f"in axis {axis!r}"
                    )
                paths[path] = None
        return list(paths)

    def overrides(self, point: Tuple[Tuple[str, Any], ...]) -> Dict[str, Any]:
        """The dotted-path overrides one sweep point applies to ``base``
        (label-axis tables expanded in place)."""
        merged: Dict[str, Any] = {}
        for axis, value in point:
            if self._is_label(axis):
                merged.update(value)
            else:
                merged[axis] = value
        return merged

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignSpec":
        """Build a spec from the TOML/JSON document shape::

            {"name": ..., "runs": 2,
             "base": {"n_nodes": 30, "liteworp.theta": 4, ...},
             "axes": {"n_malicious": [0, 2], "defense": ["none", "liteworp"]}}

        ``base`` accepts dotted paths for nested configs exactly like the
        axes do; a label axis lists override tables, e.g.
        ``"attack": [{"attack_mode": "relay", "n_malicious": 1}]``.
        """
        payload = dict(payload)
        unknown = set(payload) - {"name", "base", "axes", "runs"}
        if unknown:
            raise CampaignError(f"unknown campaign spec key(s) {sorted(unknown)}")
        if "name" not in payload:
            raise CampaignError("campaign spec needs a 'name'")
        try:
            base = apply_overrides(ScenarioConfig(), dict(payload.get("base", {})))
        except (TypeError, ValueError) as exc:
            raise CampaignError(f"bad campaign base config: {exc}") from exc
        axes_raw = payload.get("axes", {})
        axes = tuple((name, tuple(values)) for name, values in axes_raw.items())
        return cls(
            name=str(payload["name"]),
            base=base,
            axes=axes,
            runs=int(payload.get("runs", 1)),
        )

    def axes_dict(self) -> Dict[str, Tuple[Any, ...]]:
        """The axis grid as a plain mapping (sorted by axis name)."""
        return dict(self.axes)

    def points(self) -> List[Tuple[Tuple[str, Any], ...]]:
        """Every sweep point as a tuple of ``(axis, value)`` pairs, in
        deterministic grid order (axes sorted by name, values as given)."""
        if not self.axes:
            return [()]
        names = [axis for axis, _ in self.axes]
        grids = [values for _, values in self.axes]
        return [
            tuple(zip(names, combo)) for combo in itertools.product(*grids)
        ]

    def digest(self) -> str:
        """Stable identity of this spec (guards journal/resume mismatches)."""
        return config_digest(
            {
                "campaign": self.name,
                "base": self.base,
                "axes": {axis: list(values) for axis, values in self.axes},
                "runs": self.runs,
            }
        )


def load_spec(path: Union[str, Path]) -> CampaignSpec:
    """Load a campaign spec from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CampaignError(f"cannot read campaign spec {path}: {exc}") from exc
    if path.suffix.lower() == ".toml":
        import tomllib

        try:
            payload = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise CampaignError(f"{path}: invalid TOML: {exc}") from exc
    else:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CampaignError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, Mapping):
        raise CampaignError(f"{path}: campaign spec must be a table/object")
    return CampaignSpec.from_dict(payload)


# ----------------------------------------------------------------------
# Compilation: spec -> content-addressed job list
# ----------------------------------------------------------------------
def replication_configs(config: ScenarioConfig, runs: int) -> List[ScenarioConfig]:
    """The ``runs`` child configs of one sweep point (hash-derived seeds;
    index 0 is ``config`` itself)."""
    if runs < 1:
        raise ValueError("runs must be at least 1")
    return [
        dataclasses.replace(config, seed=child_seed(config.seed, index))
        for index in range(runs)
    ]


def _label_value(value: Any) -> str:
    if isinstance(value, Mapping):
        return "{" + ",".join(f"{k}={_label_value(v)}" for k, v in value.items()) + "}"
    return str(value)


def point_label(point: Iterable[Tuple[str, Any]]) -> str:
    """``axis=value,...`` for one sweep point (``-`` for the empty point);
    a table value prints as compact ``{key=value,...}`` items."""
    return ",".join(f"{axis}={_label_value(value)}" for axis, value in point) or "-"


@dataclass(frozen=True)
class CampaignJob:
    """One concrete simulation of the campaign, keyed by config digest."""

    index: int
    point: Tuple[Tuple[str, Any], ...]
    replication: int
    config: ScenarioConfig
    digest: str

    def label(self) -> str:
        """Human-readable ``axis=value,... #rep`` tag."""
        return f"{point_label(self.point)} #{self.replication}"


def compile_campaign(spec: CampaignSpec) -> List[CampaignJob]:
    """Expand ``spec`` into its flat, deterministic job list.

    Point order is the sorted-axis cartesian product; within a point,
    replications use the hash-derived child seeds of
    :func:`replication_configs`.
    """
    with span("campaign.compile"):
        jobs: List[CampaignJob] = []
        for point in spec.points():
            try:
                point_config = apply_overrides(spec.base, spec.overrides(point))
            except (TypeError, ValueError) as exc:
                raise CampaignError(
                    f"invalid sweep point {dict(point)!r}: {exc}"
                ) from exc
            for replication, config in enumerate(
                replication_configs(point_config, spec.runs)
            ):
                jobs.append(
                    CampaignJob(
                        index=len(jobs),
                        point=point,
                        replication=replication,
                        config=config,
                        digest=config_digest(config),
                    )
                )
        return jobs


# ----------------------------------------------------------------------
# Journal: append-only completion log
# ----------------------------------------------------------------------
class CampaignJournal:
    """Append-only JSONL journal of completed campaign jobs.

    Crash-consistency discipline:

    - every entry is one line-buffered ``O_APPEND`` write, fsynced by
      default (``fsync=False`` trades durability for speed — the bench
      measures the difference);
    - reopening a journal whose previous writer died mid-append
      truncates the unterminated tail fragment first (the bytes are
      unrecoverable; the job simply re-runs on resume), so a fresh
      ``begin`` line can never be glued onto a torn one;
    - with a :class:`~repro.faults.harness.HarnessFaultController`
      attached, planned :class:`~repro.faults.harness.TornJournalWrite`
      faults cut a completion append short and raise
      :class:`~repro.faults.harness.HarnessInterrupt` — the reproducible
      stand-in for dying at the worst possible byte.
    """

    def __init__(
        self,
        path: Union[str, Path],
        fsync: bool = True,
        faults: Optional[HarnessFaultController] = None,
    ) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.faults = faults
        self._handle = None
        self.entries_written = 0
        self.completions = 0
        self.torn = False
        self.repaired_tail_bytes = 0

    def _repair_tail(self) -> None:
        # A writer killed mid-append leaves an unterminated final line;
        # appending after it would glue two entries into one corrupt
        # mid-file line.  Truncate back to the last newline instead.
        try:
            size = self.path.stat().st_size
        except OSError:
            return
        if size == 0:
            return
        with open(self.path, "rb+") as handle:
            handle.seek(size - 1)
            if handle.read(1) == b"\n":
                return
            last_newline = -1
            position = size
            while position > 0 and last_newline < 0:
                start = max(0, position - 4096)
                handle.seek(start)
                chunk = handle.read(position - start)
                found = chunk.rfind(b"\n")
                if found >= 0:
                    last_newline = start + found
                position = start
            handle.truncate(last_newline + 1)
            if self.fsync:
                handle.flush()
                os.fsync(handle.fileno())
        self.repaired_tail_bytes = size - (last_newline + 1)

    def _write_raw(self, text: str) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._repair_tail()
            self._handle = open(self.path, "a", buffering=1, encoding="utf-8")
        self._handle.write(text)
        if self.fsync:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def _append(self, payload: Dict[str, Any]) -> None:
        self._write_raw(json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n")
        self.entries_written += 1

    def begin(self, spec: CampaignSpec, total_jobs: int) -> None:
        """Record a (re)start: spec identity + compiled job count."""
        with span("campaign.journal"):
            self._append(
                {
                    "event": "begin",
                    "version": JOURNAL_VERSION,
                    "campaign": spec.name,
                    "spec": spec.digest(),
                    "jobs": total_jobs,
                }
            )

    def record(self, job: CampaignJob, report: MetricsReport) -> None:
        """Record one completed job with its full-fidelity report state.

        Raises :class:`~repro.faults.harness.HarnessInterrupt` when an
        injected torn write fires on this completion entry — the partial
        line is on disk, nothing else is, and the caller must stop as if
        the process died.
        """
        with span("campaign.journal"):
            payload = {
                "event": "complete",
                "digest": job.digest,
                "index": job.index,
                "point": {axis: value for axis, value in job.point},
                "replication": job.replication,
                "seed": job.config.seed,
                "report": report.to_state(),
            }
            entry = self.completions
            self.completions += 1
            if self.faults is not None:
                fault = self.faults.claim_torn_write(entry)
                if fault is not None:
                    line = (
                        json.dumps(payload, separators=(",", ":"), sort_keys=True)
                        + "\n"
                    )
                    keep = max(1, int(len(line) * fault.fraction))
                    self._write_raw(line[:keep])
                    self.torn = True
                    raise HarnessInterrupt(
                        f"injected torn journal write at completion entry {entry}"
                    )
            self._append(payload)

    def dead_letter(
        self, job: CampaignJob, error: BaseException, attempts: int
    ) -> None:
        """Quarantine a poison job: record its identity and traceback so
        the campaign can continue (and a human can post-mortem)."""
        with span("campaign.journal"):
            self._append(
                {
                    "event": "dead_letter",
                    "digest": job.digest,
                    "index": job.index,
                    "point": {axis: value for axis, value in job.point},
                    "replication": job.replication,
                    "attempts": attempts,
                    "error": f"{type(error).__name__}: {error}",
                    "traceback": "".join(
                        traceback_module.format_exception(
                            type(error), error, error.__traceback__
                        )
                    ),
                }
            )

    def interrupt(self, reason: str, completed: int) -> None:
        """Record a graceful stop (signal / --max-jobs) as the final
        journal line, so post-mortems can tell a clean interrupt from a
        crash."""
        if self.torn:
            # The previous append was deliberately left unterminated;
            # writing after it would corrupt the torn line further.
            return
        with span("campaign.journal"):
            self._append(
                {"event": "interrupt", "reason": reason, "completed": completed}
            )

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


@dataclass(frozen=True)
class Problem:
    """One defect in a journal, pinned to its exact location.

    ``kind`` is a stable string (tests and CI grep for it):

    - ``torn_tail`` — the bytes after the last newline (the writer died
      mid-append), whatever they contain;
    - ``corrupt`` — a newline-terminated line that is not a JSON object;
    - ``bad_version`` — a ``begin`` from a different :data:`JOURNAL_VERSION`;
    - ``malformed_entry`` — valid JSON with required fields missing or
      broken;
    - ``unknown_event`` — an event tag this build does not know;
    - ``spec_mix`` — a ``begin`` for a second campaign spec.
    """

    lineno: int
    offset: int
    kind: str
    message: str

    def format(self) -> str:
        return f"line {self.lineno} (byte {self.offset}): {self.kind}: {self.message}"


@dataclass(frozen=True)
class JournalLine:
    """One non-blank physical journal line, as :func:`scan_journal` read it.

    ``raw`` keeps the original bytes (a torn tail has no newline) so a
    repair can rewrite the file without re-encoding anything; ``spec`` is
    the digest of the campaign whose ``begin`` most recently preceded the
    line; ``event`` is None when the line did not decode.
    """

    raw: bytes
    spec: Optional[str]
    event: Optional[str]
    problem: Optional[Problem]


@dataclass
class JournalState:
    """One scan of a journal: its lines, every defect located, and the
    healthy entries folded into completed-job reports."""

    path: Path
    lines: List[JournalLine] = field(default_factory=list)
    spec_digests: List[str] = field(default_factory=list)
    total_jobs: Optional[int] = None
    reports: Dict[str, MetricsReport] = field(default_factory=dict)
    dead_letters: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.reports)

    @property
    def spec_digest(self) -> Optional[str]:
        """The spec digest of the journal's first valid ``begin``."""
        return self.spec_digests[0] if self.spec_digests else None

    @property
    def problems(self) -> List[Problem]:
        return [line.problem for line in self.lines if line.problem is not None]

    @property
    def healthy(self) -> bool:
        return not self.problems

    @property
    def partial_lines(self) -> int:
        return sum(1 for problem in self.problems if problem.kind == "torn_tail")

    def count(self, event: str) -> int:
        """Healthy lines carrying ``event``."""
        return sum(
            1 for line in self.lines if line.problem is None and line.event == event
        )

    @property
    def begins(self) -> int:
        return self.count("begin")

    @property
    def completes(self) -> int:
        return self.count("complete")

    @property
    def interrupts(self) -> int:
        return self.count("interrupt")

    def format(self) -> str:
        """Stable multi-line audit report (``repro campaign doctor``)."""
        state = "healthy" if self.healthy else f"{len(self.problems)} problem(s)"
        lines = [
            f"journal {self.path}: {state}",
            f"  lines={len(self.lines)} begins={self.begins} "
            f"completes={self.completes} dead_letters={self.count('dead_letter')} "
            f"interrupts={self.interrupts}",
        ]
        lines.extend(f"  spec {digest[:16]}" for digest in self.spec_digests)
        lines.extend(f"  {problem.format()}" for problem in self.problems)
        return "\n".join(lines)


def scan_journal(path: Union[str, Path]) -> JournalState:
    """Read a journal byte-exactly, classifying every line.

    The one reader of journal lines: resume (:func:`load_journal`),
    ``repro campaign status`` and ``repro campaign doctor`` all see the
    file through it.  It never raises for damage — each damaged line
    carries a located :class:`Problem` — and folds the healthy ``complete``/``dead_letter`` entries into
    ``reports``/``dead_letters`` by job digest.
    """
    path = Path(path)
    state = JournalState(path=path)
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise CampaignError(f"cannot read campaign journal {path}: {exc}") from exc
    spec: Optional[str] = None
    with handle:
        # Binary lines keep byte offsets exact even when the damage is
        # invalid UTF-8 (a diagnostic must never crash on the very bytes
        # it is diagnosing).
        for lineno, offset, raw, torn in jsonl_lines(handle):
            if not raw.strip():
                continue
            event: Optional[str] = None
            kind: Optional[str] = None
            message = ""
            payload: Dict[str, Any] = {}
            if torn:
                kind = "torn_tail"
                message = (
                    f"unterminated final line ({len(raw)} bytes); the writer "
                    f"died mid-append"
                )
            else:
                try:
                    payload = json.loads(raw)
                    if not isinstance(payload, dict):
                        raise ValueError(
                            f"entry is {type(payload).__name__}, not an object"
                        )
                except ValueError as exc:  # JSON or UTF-8 decode failure
                    kind, message = "corrupt", str(exc)
                else:
                    event = payload.get("event")
            if kind is not None:
                pass  # torn or undecodable: there is no event to check
            elif event == "begin":
                digest = payload.get("spec")
                version = payload.get("version")
                if isinstance(digest, str):
                    spec = digest
                if version != JOURNAL_VERSION:
                    kind = "bad_version"
                    message = (
                        f"journal version {version!r}, this build writes "
                        f"{JOURNAL_VERSION}"
                    )
                elif not isinstance(digest, str):
                    kind, message = "malformed_entry", "begin entry without a spec digest"
                else:
                    if digest not in state.spec_digests:
                        state.spec_digests.append(digest)
                    if digest != state.spec_digests[0]:
                        kind = "spec_mix"
                        message = (
                            f"journal mixes two campaign specs: begin for spec "
                            f"{digest[:16]} in a journal opened by spec "
                            f"{state.spec_digests[0][:16]}"
                        )
                    else:
                        state.total_jobs = payload.get("jobs")
            elif event == "complete":
                try:
                    report = MetricsReport.from_state(payload["report"])
                    digest = payload["digest"]
                    if not isinstance(digest, str):
                        raise TypeError(
                            f"digest is {type(digest).__name__}, not a string"
                        )
                except (KeyError, TypeError, ValueError) as exc:
                    kind = "malformed_entry"
                    message = f"completion entry does not decode to a report: {exc}"
                else:
                    state.reports[digest] = report
            elif event == "dead_letter":
                digest = payload.get("digest")
                if isinstance(digest, str):
                    state.dead_letters[digest] = payload
                else:
                    kind, message = "malformed_entry", "dead_letter entry without a job digest"
            elif event != "interrupt":
                kind, message = "unknown_event", f"unknown journal event {event!r}"
            problem = None if kind is None else Problem(lineno, offset, kind, message)
            state.lines.append(JournalLine(raw, spec, event, problem))
    return state


def load_journal(path: Union[str, Path]) -> JournalState:
    """Read a journal for resume: :func:`scan_journal`, refusing damage.

    A torn tail (the writer was killed mid-append) is skipped and counted
    in ``partial_lines``; its job simply re-runs.  Any other problem
    raises :class:`CampaignError` naming the line, its byte offset, its
    problem kind, and the ``repro campaign doctor`` invocation that can
    repair the file.
    """
    state = scan_journal(path)
    for problem in state.problems:
        if problem.kind != "torn_tail":
            raise CampaignError(
                f"{state.path}:{problem.lineno}: {problem.kind} journal line at "
                f"byte offset {problem.offset}: {problem.message}; run 'repro "
                f"campaign doctor {state.path} --repair' to quarantine it"
            )
    return state


# ----------------------------------------------------------------------
# Execution backends
# ----------------------------------------------------------------------
#: Worker signature: one concrete config in, its report out.
JobFn = Callable[[ScenarioConfig], MetricsReport]


def run_config(config: ScenarioConfig) -> MetricsReport:
    """The default job body: module-level, so process pools can pickle it."""
    return run_scenario(config)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Worker-count policy: None/0/1 -> serial, -1 -> all CPUs, n -> n."""
    if jobs is None or jobs == 0 or jobs == 1:
        return 1
    if jobs < 0:
        return max(1, os.cpu_count() or 1)
    return int(jobs)


class ExecutionBackend:
    """How one wave of campaign jobs is executed.

    ``run_batch`` maps ``fn`` over ``(key, config)`` items and *never
    raises for a job failure*: it returns per-key results and per-key
    exceptions so the campaign's retry loop can re-dispatch exactly the
    failed jobs.  Supervision hooks:

    - ``timeout`` — per-job wall-clock seconds; overdue jobs fail with
      :class:`JobTimeoutError` (pool backends preempt the hung worker by
      tearing the pool down; inline enforces post-hoc).
    - ``should_stop`` — polled between jobs/completions; when it turns
      true the backend returns early, leaving undispatched items in
      *neither* dict.
    - ``isolate`` — run each item in its own fresh single-worker pool so
      a crash is attributed to exactly one job (the poison-job probe).
    """

    name = "abstract"

    def run_batch(
        self,
        fn: JobFn,
        items: Sequence[Tuple[int, ScenarioConfig]],
        *,
        timeout: Optional[float] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        isolate: bool = False,
    ) -> Tuple[Dict[int, MetricsReport], Dict[int, BaseException]]:
        raise NotImplementedError


class InlineBackend(ExecutionBackend):
    """Serial in-process execution — the deterministic reference backend.

    A single thread cannot preempt a hung job, so ``timeout`` is
    enforced post-hoc: a job that ran past the deadline still finished,
    but its result is discarded and recorded as a
    :class:`JobTimeoutError` (deadline semantics stay uniform across
    backends)."""

    name = "inline"

    def run_batch(self, fn, items, *, timeout=None, should_stop=None, isolate=False):
        results: Dict[int, MetricsReport] = {}
        failures: Dict[int, BaseException] = {}
        for key, config in items:
            if should_stop is not None and should_stop():
                break
            started = time.monotonic()
            try:
                result = fn(config)
            except Exception as exc:  # noqa: BLE001 - collected for retry
                failures[key] = exc
                continue
            elapsed = time.monotonic() - started
            if timeout is not None and elapsed > timeout:
                failures[key] = JobTimeoutError(
                    f"job took {elapsed:.3f}s, past the {timeout:g}s wall-clock timeout"
                )
            else:
                results[key] = result
        return results, failures


def _future_error(future: Any) -> Optional[BaseException]:
    """The future's exception, with cancellation reported as an error
    rather than raised (``Future.exception()`` raises on cancelled)."""
    try:
        return future.exception()
    except BaseException as exc:  # noqa: BLE001 - CancelledError
        return exc


def _reset_worker_signals() -> None:
    """Restore default signal dispositions in pool worker processes.

    Fork-started workers inherit whatever SIGINT/SIGTERM handlers the
    parent CLI installed, which would make them *survive* the
    ``terminate()`` used to preempt hung jobs (the inherited handler
    merely sets the parent's stop flag).  Workers must die on SIGTERM
    and leave Ctrl-C handling to the supervising parent.
    """
    import signal as signal_module

    try:
        signal_module.signal(signal_module.SIGTERM, signal_module.SIG_DFL)
        signal_module.signal(signal_module.SIGINT, signal_module.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass


class ProcessBackend(ExecutionBackend):
    """Process-pool execution, one future per job so a crashed worker
    fails only its own job.  The only process pool in the package."""

    name = "process"

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = jobs

    def _kill(self, executor: Executor) -> None:
        """Tear an executor down without waiting for hung workers.

        ``ProcessPoolExecutor`` offers no per-future kill, so preemption
        is wholesale: terminate the worker processes, then discard the
        pool."""
        processes = getattr(executor, "_processes", None)
        if processes:
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:  # noqa: BLE001 - already-dead workers
                    pass
        executor.shutdown(wait=False, cancel_futures=True)

    def run_batch(self, fn, items, *, timeout=None, should_stop=None, isolate=False):
        results: Dict[int, MetricsReport] = {}
        failures: Dict[int, BaseException] = {}
        if not items:
            return results, failures
        if isolate:
            # Poison-probe mode: one fresh single-worker pool per job, so
            # a pool-killing crash is attributed to exactly that job.
            for key, config in items:
                if should_stop is not None and should_stop():
                    break
                sub_results, sub_failures = self._run_window(
                    fn, [(key, config)], 1, timeout, should_stop
                )
                results.update(sub_results)
                failures.update(sub_failures)
            return results, failures
        workers = min(resolve_jobs(self.jobs), len(items))
        return self._run_window(fn, list(items), max(1, workers), timeout, should_stop)

    def _run_window(self, fn, queue, workers, timeout, should_stop):
        results: Dict[int, MetricsReport] = {}
        failures: Dict[int, BaseException] = {}
        executor = ProcessPoolExecutor(
            max_workers=workers, initializer=_reset_worker_signals
        )
        inflight: Dict[Any, Tuple[int, float]] = {}
        broken = False
        if timeout is not None:
            poll = max(0.01, min(0.1, timeout / 4.0))
        elif should_stop is not None:
            poll = 0.1
        else:
            poll = None
        try:
            while queue or inflight:
                # Keep at most ``workers`` jobs in flight so a job's
                # wall clock starts at dispatch, not at batch submission
                # (a queued job must not "time out" while waiting).
                while queue and len(inflight) < workers:
                    key, config = queue.pop(0)
                    try:
                        future = executor.submit(fn, config)
                    except BaseException as exc:  # noqa: BLE001 - pool already broken
                        failures[key] = exc
                        broken = True
                        break
                    inflight[future] = (key, time.monotonic())
                if broken:
                    break
                if not inflight:
                    continue
                try:
                    done, _ = wait(
                        set(inflight), timeout=poll, return_when=FIRST_COMPLETED
                    )
                except BaseException:  # noqa: BLE001 - pool died under wait
                    broken = True
                    break
                for future in done:
                    key, _started = inflight.pop(future)
                    try:
                        results[key] = future.result()
                    except Exception as exc:  # noqa: BLE001 - collected for retry
                        failures[key] = exc
                        if isinstance(exc, BrokenExecutor):
                            broken = True
                if broken:
                    break
                if should_stop is not None and should_stop():
                    # Graceful stop: abandon in-flight work silently (the
                    # runner sees the missing keys and records the
                    # interruption); nothing is marked failed.
                    self._kill(executor)
                    inflight.clear()
                    queue.clear()
                    return results, failures
                if timeout is not None:
                    now = time.monotonic()
                    overdue = [
                        future
                        for future, (_key, started) in inflight.items()
                        if now - started > timeout
                    ]
                    if overdue:
                        for future in overdue:
                            key, started = inflight.pop(future)
                            failures[key] = JobTimeoutError(
                                f"job exceeded the {timeout:g}s wall-clock "
                                f"timeout ({now - started:.3f}s elapsed)"
                            )
                        # No per-worker kill exists, so preempt wholesale:
                        # the pool dies, innocents come back as collateral.
                        self._kill(executor)
                        for future, (key, _started) in inflight.items():
                            if future.done() and _future_error(future) is None:
                                results[key] = future.result()
                            else:
                                failures[key] = WorkerPreempted(
                                    "pool torn down while a neighbour job hung"
                                )
                        inflight.clear()
                        for key, _config in queue:
                            failures[key] = WorkerPreempted(
                                "pool torn down before dispatch"
                            )
                        queue.clear()
                        return results, failures
            if broken:
                # The pool itself died: in-flight jobs are crash suspects
                # (counted failures); never-dispatched ones are collateral.
                for future, (key, _started) in list(inflight.items()):
                    if key in results or key in failures:
                        continue
                    exc = _future_error(future) if future.done() else None
                    failures[key] = exc if exc is not None else WorkerLostError(
                        "worker pool broke before the job finished"
                    )
                for key, _config in queue:
                    failures[key] = WorkerPreempted("pool broke before dispatch")
        finally:
            # A broken pool is discarded wholesale; the next wave gets a
            # fresh one.
            executor.shutdown(wait=False, cancel_futures=True)
        return results, failures


BACKENDS: Dict[str, Callable[..., ExecutionBackend]] = {
    "inline": lambda jobs=None: InlineBackend(),
    "process": ProcessBackend,
}


def make_backend(name: str, jobs: Optional[int] = None) -> ExecutionBackend:
    """Instantiate a backend by name (``inline`` or ``process``)."""
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise CampaignError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        ) from None
    return factory(jobs=jobs)


@dataclass(frozen=True)
class RetryPolicy:
    """Per-job retry with exponential backoff between waves."""

    retries: int = 2
    backoff: float = 0.1
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be non-negative, got {self.retries!r}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be non-negative, got {self.backoff!r}")

    def delay(self, attempt: int) -> float:
        """Sleep before retry wave ``attempt`` (1-based)."""
        return self.backoff * (self.multiplier ** max(0, attempt - 1))


@dataclass(frozen=True)
class SupervisionPolicy:
    """How the campaign watches its workers.

    Parameters
    ----------
    timeout:
        Per-job wall-clock seconds before a worker counts as hung and is
        preempted (None disables deadline enforcement).
    quarantine:
        When a job exhausts its :class:`RetryPolicy` budget, dead-letter
        it to the journal (error + traceback) and keep going, instead of
        raising :class:`CampaignError` and abandoning every other job.
    """

    timeout: Optional[float] = None
    quarantine: bool = True

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(
                f"timeout must be positive or None, got {self.timeout!r}"
            )


# ----------------------------------------------------------------------
# Aggregation + result
# ----------------------------------------------------------------------
def _summary_dict(summary) -> Dict[str, object]:
    return {"mean": summary.mean, "std": summary.std, "count": summary.count}


def aggregate_campaign(
    spec: CampaignSpec, jobs: Sequence[CampaignJob], reports: Mapping[int, MetricsReport]
) -> Dict[str, object]:
    """Per-point metric summaries over every replication.

    Pure function of the reports: running the same campaign twice — or
    interrupting and resuming it — yields byte-identical JSON.
    """
    points: List[Dict[str, object]] = []
    by_point: Dict[Tuple[Tuple[str, Any], ...], List[MetricsReport]] = {}
    order: List[Tuple[Tuple[str, Any], ...]] = []
    for job in jobs:
        if job.point not in by_point:
            by_point[job.point] = []
            order.append(job.point)
        by_point[job.point].append(reports[job.index])
    for point in order:
        group = by_point[point]
        metrics = {
            "originated": _summary_dict(summarize([r.originated for r in group])),
            "delivered": _summary_dict(summarize([r.delivered for r in group])),
            "wormhole_drops": _summary_dict(summarize([r.wormhole_drops for r in group])),
            "fraction_wormhole_dropped": _summary_dict(
                summarize([r.fraction_wormhole_dropped for r in group])
            ),
            "fraction_malicious_routes": _summary_dict(
                summarize([r.fraction_malicious_routes for r in group])
            ),
            "detections": _summary_dict(summarize([r.detections for r in group])),
            "isolations": _summary_dict(summarize([r.isolations for r in group])),
            "mean_isolation_latency": _summary_dict(
                summarize_optional([r.mean_isolation_latency() for r in group])
            ),
            "mean_detection_latency": _summary_dict(
                summarize_optional([r.mean_detection_latency() for r in group])
            ),
        }
        points.append(
            {
                "point": {axis: value for axis, value in point},
                "jobs": len(group),
                "metrics": metrics,
            }
        )
    return {
        "campaign": spec.name,
        "spec": spec.digest(),
        "runs": spec.runs,
        "points": points,
    }


@dataclass
class CampaignResult:
    """Outcome of one :meth:`CampaignRunner.run` invocation."""

    spec: CampaignSpec
    total_jobs: int
    executed: int
    from_cache: int
    from_journal: int
    retried: int
    complete: bool
    aggregate: Optional[Dict[str, object]] = None
    timeouts: int = 0
    dead_lettered: int = 0
    interrupted: Optional[str] = None
    #: Every job's report in job order, once the campaign is complete.
    reports: Optional[List[MetricsReport]] = None

    @property
    def completed_jobs(self) -> int:
        return self.executed + self.from_cache + self.from_journal

    def to_json(self) -> str:
        """Deterministic aggregate JSON (the campaign's published output)."""
        if self.aggregate is None:
            raise CampaignError("campaign is incomplete; no aggregate to render")
        return json.dumps(self.aggregate, indent=2, sort_keys=True) + "\n"

    def format(self) -> str:
        """Stable one-screen text summary."""
        header = (
            f"campaign {self.spec.name}"
            f" jobs={self.total_jobs}"
            f" executed={self.executed}"
            f" cache={self.from_cache}"
            f" journal={self.from_journal}"
            f" retried={self.retried}"
            f" complete={'yes' if self.complete else 'no'}"
        )
        if self.timeouts:
            header += f" timeouts={self.timeouts}"
        if self.dead_lettered:
            header += f" dead_lettered={self.dead_lettered}"
        if self.interrupted is not None:
            header += f" interrupted={self.interrupted}"
        lines = [header]
        if self.aggregate is not None:
            for entry in self.aggregate["points"]:
                point = point_label(entry["point"].items())
                drops = entry["metrics"]["fraction_wormhole_dropped"]["mean"]
                routes = entry["metrics"]["fraction_malicious_routes"]["mean"]
                lines.append(
                    f"  {point:<40s} drop={drops:.4f} malroutes={routes:.4f}"
                    f" (n={entry['jobs']})"
                )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The dispatch loop and the orchestrator
# ----------------------------------------------------------------------
@dataclass
class DispatchTally:
    """What one :meth:`JobRunner.dispatch` call did."""

    from_cache: int = 0
    executed: int = 0
    retried: int = 0
    timeouts: int = 0
    dead_lettered: int = 0
    interrupted: Optional[str] = None
    truncated: bool = False


class JobRunner:
    """The dispatch loop every batch of scenario runs goes through:
    cache lookup, then backend waves with retry, then cache write-back.

    Parameters
    ----------
    backend:
        An :class:`ExecutionBackend` instance (default: inline).
    cache:
        Optional :class:`~repro.experiments.cache.ResultCache`; consulted
        before dispatch and populated after every executed job.  Jobs that
        stream a trace export bypass cache reads (their records must hit
        the sink); their results are still written back.
    retry:
        Per-job :class:`RetryPolicy` for worker crashes.
    supervision:
        :class:`SupervisionPolicy` — per-job timeout and poison-job
        quarantine.  The default enables quarantine with no timeout.
    progress:
        Optional :class:`~repro.obs.progress.CampaignProgress` receiving
        live counter updates.
    trace:
        Optional :class:`~repro.sim.trace.TraceLog`; ``campaign_job``,
        ``worker_timeout``, ``campaign_retry``, ``campaign_dead_letter``
        and ``campaign_interrupted`` records are emitted (wall-clock
        seconds since start), so attached sinks stream live.
    max_jobs:
        Execute at most this many *new* jobs, then stop (journal intact,
        result marked incomplete).  The deterministic interruption hook
        used by the resume tests and the CI smoke job.
    stop:
        Zero-argument callable polled between jobs and waves; returning
        True stops dispatch gracefully (journal flushed, result marked
        ``interrupted="signal"``).  The CLI wires SIGINT/SIGTERM here.
    harness_faults:
        Optional :class:`~repro.faults.harness.HarnessFaultController`
        injecting worker/journal faults for chaos testing.
    worker:
        Job body override (tests inject flaky workers); defaults to
        :func:`run_config`.
    sleep:
        Backoff sleep override for tests.
    """

    def __init__(
        self,
        backend: Optional[ExecutionBackend] = None,
        *,
        cache: Optional[ResultCache] = None,
        retry: RetryPolicy = RetryPolicy(),
        supervision: SupervisionPolicy = SupervisionPolicy(),
        progress: Optional[CampaignProgress] = None,
        trace: Optional[TraceLog] = None,
        max_jobs: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
        harness_faults: Optional[HarnessFaultController] = None,
        worker: JobFn = run_config,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.backend = backend or InlineBackend()
        self.cache = cache
        self.retry = retry
        self.supervision = supervision
        self.progress = progress
        self.trace = trace
        self.max_jobs = max_jobs
        self.stop = stop
        self.harness_faults = harness_faults
        self.worker = worker
        self.sleep = sleep
        self._started = time.perf_counter()

    # -- helpers -------------------------------------------------------
    def _should_stop(self) -> bool:
        return self.stop is not None and bool(self.stop())

    def _note(self, job: CampaignJob, source: str) -> None:
        if self.progress is not None:
            self.progress.job_done(source)
        if self.trace is not None:
            self.trace.emit(
                time.perf_counter() - self._started,
                "campaign_job",
                job=job.index,
                digest=job.digest[:12],
                source=source,
                replication=job.replication,
            )

    def _emit(self, kind: str, **fields: Any) -> None:
        if self.trace is not None:
            self.trace.emit(time.perf_counter() - self._started, kind, **fields)

    # -- the loop ------------------------------------------------------
    def dispatch(
        self,
        jobs: Sequence[CampaignJob],
        reports: Dict[int, MetricsReport],
        journal: Optional[CampaignJournal] = None,
    ) -> DispatchTally:
        """Run every job of ``jobs`` whose index is not yet in ``reports``.

        ``reports`` is filled in place (job index -> report).  Jobs end
        with a report, dead-lettered (quarantine on), or not at all when
        the run stops early; a job that exhausts its retries with
        quarantine off raises :class:`CampaignError` naming it.  Each
        completion is recorded to ``journal`` (when given) before it
        counts.
        """
        tally = DispatchTally()
        pending = [job for job in jobs if job.index not in reports]
        if self.cache is not None:
            with span("campaign.cache"):
                still: List[CampaignJob] = []
                for job in pending:
                    exporting = (
                        job.config.obs is not None
                        and job.config.obs.trace_path is not None
                    )
                    cached = None if exporting else self.cache.get(job.config)
                    if cached is not None:
                        try:
                            if journal is not None:
                                journal.record(job, cached)
                        except HarnessInterrupt:
                            tally.interrupted = "torn_write"
                            break
                        reports[job.index] = cached
                        tally.from_cache += 1
                        self._note(job, "cache")
                    else:
                        still.append(job)
                pending = still

        if self.max_jobs is not None and len(pending) > self.max_jobs:
            pending = pending[: self.max_jobs]
            tally.truncated = True

        by_index = {job.index: job for job in jobs}
        worker = self.worker
        if self.harness_faults is not None:
            worker = self.harness_faults.wrap_worker(
                worker, {job.digest: job.index for job in jobs}
            )
        batch = [(job.index, job.config) for job in pending]
        fail_counts: Dict[int, int] = {}
        wave = 0
        isolate = False
        # Progress guard: every productive wave either completes,
        # dead-letters, or burns a retry; anything past this bound is
        # supervision spinning its wheels.
        max_waves = self.retry.retries + len(batch) + 3
        with span("campaign.execute"):
            while batch and tally.interrupted is None:
                if self._should_stop():
                    tally.interrupted = "signal"
                    break
                wave += 1
                if wave > max_waves:
                    raise CampaignError(
                        f"supervision made no progress after {wave - 1} "
                        f"dispatch waves; aborting"
                    )
                results, failures = self.backend.run_batch(
                    worker,
                    batch,
                    timeout=self.supervision.timeout,
                    should_stop=self.stop,
                    isolate=isolate,
                )
                isolate = False
                # A worker can finish yet hand back garbage (injected
                # payload corruption, a broken custom worker): validate
                # before anything touches the journal or cache.
                for index in sorted(results):
                    if not isinstance(results[index], MetricsReport):
                        failures[index] = CorruptResultError(
                            f"worker returned "
                            f"{type(results[index]).__name__!r}, "
                            f"not a MetricsReport"
                        )
                for index in sorted(results):
                    if index in failures:
                        continue
                    job = by_index[index]
                    report = results[index]
                    try:
                        if journal is not None:
                            journal.record(job, report)
                    except HarnessInterrupt:
                        # The torn line never became durable: the job
                        # is *not* complete; resume re-runs it.
                        tally.interrupted = "torn_write"
                        break
                    reports[index] = report
                    tally.executed += 1
                    if self.cache is not None:
                        self.cache.put(job.config, report)
                    self._note(job, "run")
                if tally.interrupted is not None:
                    break

                retry_keys: List[int] = []
                dead_now: List[int] = []
                for index in sorted(failures):
                    exc = failures[index]
                    if isinstance(exc, JobTimeoutError):
                        tally.timeouts += 1
                        if self.progress is not None:
                            self.progress.timeout(1)
                        self._emit(
                            "worker_timeout",
                            job=index,
                            digest=by_index[index].digest[:12],
                            seconds=self.supervision.timeout,
                        )
                    if getattr(exc, "collateral", False):
                        retry_keys.append(index)
                        continue
                    fail_counts[index] = fail_counts.get(index, 0) + 1
                    if fail_counts[index] > self.retry.retries:
                        dead_now.append(index)
                    else:
                        retry_keys.append(index)

                if dead_now and not self.supervision.quarantine:
                    causes = "; ".join(
                        f"job {i} ({by_index[i].label()}, seed "
                        f"{by_index[i].config.seed}): {failures[i]}"
                        for i in dead_now[:3]
                    )
                    raise CampaignError(
                        f"{len(dead_now)} job(s) failed after "
                        f"{self.retry.retries} retr(ies): {causes}"
                    )
                for index in dead_now:
                    job = by_index[index]
                    if journal is not None:
                        journal.dead_letter(
                            job, failures[index], attempts=fail_counts[index]
                        )
                    tally.dead_lettered += 1
                    if self.progress is not None:
                        self.progress.dead_letter(1)
                    self._emit(
                        "campaign_dead_letter",
                        job=index,
                        digest=job.digest[:12],
                        error=f"{type(failures[index]).__name__}: "
                        f"{failures[index]}",
                        attempts=fail_counts[index],
                    )

                # Jobs the backend returned in neither dict were never
                # dispatched — that only happens on a graceful stop.
                missing = [
                    key
                    for key, _config in batch
                    if key not in results and key not in failures
                ]
                if missing:
                    if self._should_stop():
                        tally.interrupted = "signal"
                        break
                    retry_keys.extend(missing)

                if not retry_keys:
                    break
                # If any failure this wave broke its whole pool, probe
                # the suspects one-per-pool next wave so the poison job
                # is identified instead of dragging innocents down.
                isolate = any(
                    isinstance(failures.get(index), (BrokenExecutor, WorkerLostError))
                    for index in retry_keys
                )
                tally.retried += len(retry_keys)
                if self.progress is not None:
                    self.progress.retry(len(retry_keys))
                self._emit("campaign_retry", count=len(retry_keys), wave=wave)
                delay = self.retry.delay(wave)
                if delay > 0:
                    self.sleep(delay)
                batch = [
                    (index, by_index[index].config)
                    for index in sorted(retry_keys)
                ]
        return tally


def run_configs(
    configs: Sequence[ScenarioConfig],
    *,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> List[MetricsReport]:
    """Run a plain config list on the dispatch loop; reports in input order.

    The journal-free path that figure sweeps and :func:`repro.api.sweep`
    take.  ``jobs`` picks the backend: in-process when
    :func:`resolve_jobs` gives 1, a pool of that many worker processes
    otherwise; both return byte-identical reports.  Quarantine is off, so
    a config that still fails after the default retries raises
    :class:`CampaignError` naming it — a figure never silently averages
    fewer runs than it asked for.
    """
    batch = [
        CampaignJob(
            index=index,
            point=(),
            replication=index,
            config=config,
            digest=config_digest(config),
        )
        for index, config in enumerate(configs)
    ]
    backend = InlineBackend() if resolve_jobs(jobs) == 1 else ProcessBackend(jobs)
    runner = JobRunner(
        backend, cache=cache, supervision=SupervisionPolicy(quarantine=False)
    )
    reports: Dict[int, MetricsReport] = {}
    runner.dispatch(batch, reports)
    return [reports[job.index] for job in batch]


class CampaignRunner(JobRunner):
    """Compiles a campaign spec and runs its jobs on the dispatch loop,
    journaled and resumable.

    Parameters
    ----------
    spec:
        The campaign to run.
    journal_path:
        Where to append the completion journal; None disables journaling
        (and therefore resume).
    resume:
        Load the journal first and skip every job it records.  The
        journal's spec digest must match ``spec``.  Dead-lettered jobs
        are *not* skipped — a resume gives every poison job a fresh
        chance.
    fsync:
        fsync every journal append (default True; see
        :class:`CampaignJournal`).

    The remaining parameters are :class:`JobRunner`'s.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        backend: Optional[ExecutionBackend] = None,
        *,
        cache: Optional[ResultCache] = None,
        journal_path: Optional[Union[str, Path]] = None,
        resume: bool = False,
        retry: RetryPolicy = RetryPolicy(),
        supervision: SupervisionPolicy = SupervisionPolicy(),
        progress: Optional[CampaignProgress] = None,
        trace: Optional[TraceLog] = None,
        max_jobs: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
        fsync: bool = True,
        harness_faults: Optional[HarnessFaultController] = None,
        worker: JobFn = run_config,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if resume and journal_path is None:
            raise CampaignError("--resume needs a journal path")
        super().__init__(
            backend,
            cache=cache,
            retry=retry,
            supervision=supervision,
            progress=progress,
            trace=trace,
            max_jobs=max_jobs,
            stop=stop,
            harness_faults=harness_faults,
            worker=worker,
            sleep=sleep,
        )
        self.spec = spec
        self.journal_path = Path(journal_path) if journal_path is not None else None
        self.resume = resume
        self.fsync = fsync

    def run(self) -> CampaignResult:
        self._started = time.perf_counter()
        jobs = compile_campaign(self.spec)
        if self.progress is not None:
            self.progress.start(total=len(jobs), name=self.spec.name)
        reports: Dict[int, MetricsReport] = {}
        from_journal = 0

        if self.resume and self.journal_path is not None and self.journal_path.exists():
            with span("campaign.resume"):
                state = load_journal(self.journal_path)
            if state.spec_digest is not None and state.spec_digest != self.spec.digest():
                raise CampaignError(
                    f"journal {self.journal_path} records a different campaign "
                    f"spec ({state.spec_digest[:12]} != {self.spec.digest()[:12]})"
                )
            for job in jobs:
                report = state.reports.get(job.digest)
                if report is not None:
                    reports[job.index] = report
                    from_journal += 1
                    self._note(job, "journal")

        journal = (
            CampaignJournal(
                self.journal_path, fsync=self.fsync, faults=self.harness_faults
            )
            if self.journal_path is not None
            else None
        )
        try:
            if journal is not None:
                journal.begin(self.spec, total_jobs=len(jobs))
            tally = self.dispatch(jobs, reports, journal)
            if journal is not None:
                if tally.interrupted is not None:
                    journal.interrupt(reason=tally.interrupted, completed=len(reports))
                elif tally.truncated:
                    journal.interrupt(reason="max_jobs", completed=len(reports))
        finally:
            if journal is not None:
                journal.close()

        if tally.interrupted is not None:
            if self.progress is not None:
                self.progress.interrupt(tally.interrupted)
            self._emit(
                "campaign_interrupted",
                reason=tally.interrupted, completed=len(reports),
            )
        complete = (
            len(reports) == len(jobs)
            and not tally.truncated
            and tally.interrupted is None
            and not tally.dead_lettered
        )
        aggregate = None
        if complete:
            with span("campaign.aggregate"):
                aggregate = aggregate_campaign(self.spec, jobs, reports)
        return CampaignResult(
            spec=self.spec,
            total_jobs=len(jobs),
            executed=tally.executed,
            from_cache=tally.from_cache,
            from_journal=from_journal,
            retried=tally.retried,
            complete=complete,
            aggregate=aggregate,
            timeouts=tally.timeouts,
            dead_lettered=tally.dead_lettered,
            interrupted=tally.interrupted,
            reports=[reports[job.index] for job in jobs] if complete else None,
        )


def run_campaign(
    spec: Union[CampaignSpec, Mapping[str, Any], str, Path],
    *,
    backend: Union[str, ExecutionBackend] = "inline",
    jobs: Optional[int] = None,
    cache: Optional[Union[ResultCache, str, Path]] = None,
    journal: Optional[Union[str, Path]] = None,
    resume: bool = False,
    retry: RetryPolicy = RetryPolicy(),
    supervision: SupervisionPolicy = SupervisionPolicy(),
    progress: Optional[CampaignProgress] = None,
    trace: Optional[TraceLog] = None,
    max_jobs: Optional[int] = None,
    stop: Optional[Callable[[], bool]] = None,
    fsync: bool = True,
    harness_faults: Optional[HarnessFaultController] = None,
) -> CampaignResult:
    """Execute (or resume) a campaign in one call; this is
    :func:`repro.api.campaign`.

    ``spec`` may be a :class:`CampaignSpec`, a dict in the
    :meth:`CampaignSpec.from_dict` shape, or a path to a TOML/JSON spec
    file.  ``backend`` is a name (``inline``/``process``) or a
    ready :class:`ExecutionBackend` instance.  ``cache`` is a
    :class:`~repro.experiments.cache.ResultCache` or its directory (then
    opened with the same ``fsync`` setting as the journal).  The other
    keywords are :class:`CampaignRunner`'s.
    """
    if isinstance(cache, (str, Path)):
        cache = ResultCache(cache, fsync=fsync)
    if isinstance(spec, (str, Path)):
        spec = load_spec(spec)
    elif isinstance(spec, Mapping):
        spec = CampaignSpec.from_dict(spec)
    if isinstance(backend, str):
        backend = make_backend(backend, jobs=jobs)
    runner = CampaignRunner(
        spec,
        backend,
        cache=cache,
        journal_path=journal,
        resume=resume,
        retry=retry,
        supervision=supervision,
        progress=progress,
        trace=trace,
        max_jobs=max_jobs,
        stop=stop,
        fsync=fsync,
        harness_faults=harness_faults,
    )
    return runner.run()


__all__ = [
    "AxisTable",
    "BACKENDS",
    "CampaignError",
    "CampaignJob",
    "CampaignJournal",
    "CampaignProgress",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "CorruptResultError",
    "DispatchTally",
    "ExecutionBackend",
    "InlineBackend",
    "JobRunner",
    "JobTimeoutError",
    "JournalLine",
    "JournalState",
    "Problem",
    "ProcessBackend",
    "RetryPolicy",
    "SupervisionPolicy",
    "WorkerLostError",
    "WorkerPreempted",
    "aggregate_campaign",
    "apply_overrides",
    "compile_campaign",
    "load_journal",
    "load_spec",
    "make_backend",
    "point_label",
    "replication_configs",
    "resolve_jobs",
    "run_campaign",
    "run_config",
    "run_configs",
    "scan_journal",
]
