"""Experiment record persistence.

Long sweeps (the paper-scale 30-run averages take hours) deserve durable,
comparable artifacts.  An :class:`ExperimentRecord` bundles a name, the
scenario parameters that produced it, and the per-run metric reports, and
round-trips through JSON so results survive the process and can be
diffed across code versions.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.experiments.campaign import replication_configs, run_configs
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.stats import Summary, summarize, summarize_optional
from repro.metrics.collector import MetricsReport


def _config_to_dict(config: ScenarioConfig) -> Dict[str, Any]:
    """Flatten a scenario config (nested dataclasses included) to JSON."""
    return dataclasses.asdict(config)


@dataclass
class ExperimentRecord:
    """A named, persisted experiment result."""

    name: str
    config: Dict[str, Any]
    reports: List[Dict[str, Any]] = field(default_factory=list)
    notes: str = ""

    @classmethod
    def from_runs(
        cls,
        name: str,
        config: ScenarioConfig,
        reports: Sequence[MetricsReport],
        notes: str = "",
    ) -> "ExperimentRecord":
        """Build a record from live reports."""
        return cls(
            name=name,
            config=_config_to_dict(config),
            reports=[report.to_dict() for report in reports],
            notes=notes,
        )

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def metric(self, key: str) -> Summary:
        """Summary of a numeric per-run metric (e.g. ``wormhole_drops``)."""
        return summarize([report[key] for report in self.reports])

    def isolation_latency_summary(self) -> Summary:
        """Summary over all isolated malicious nodes in all runs."""
        latencies: List[Optional[float]] = []
        for report in self.reports:
            latencies.extend(report.get("isolation_latencies", {}).values())
        return summarize_optional(latencies)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write the record as pretty-printed JSON; returns the path."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "name": self.name,
            "config": self.config,
            "reports": self.reports,
            "notes": self.notes,
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "ExperimentRecord":
        """Read a record written by :meth:`save`."""
        payload = json.loads(pathlib.Path(path).read_text())
        return cls(
            name=payload["name"],
            config=payload["config"],
            reports=payload["reports"],
            notes=payload.get("notes", ""),
        )


def run_and_record(
    name: str,
    config: ScenarioConfig,
    runs: int,
    path: Optional[Union[str, pathlib.Path]] = None,
    notes: str = "",
) -> ExperimentRecord:
    """Run ``runs`` replications and (optionally) persist the record."""
    reports = run_configs(replication_configs(config, runs))
    record = ExperimentRecord.from_runs(name, config, reports, notes=notes)
    if path is not None:
        record.save(path)
    return record
