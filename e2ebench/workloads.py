"""The benchmark's workloads: what one pass builds, runs and digests.

Every workload is a function of its seed alone.  A pass is split in two
timed halves so the harness can report set-up separately from the work:

- :meth:`Workload.setup` builds the scenario (for ``matrix30``, the
  campaign's base scenario, which the campaign then rebuilds per job);
- :meth:`Workload.run` executes the workload, and the untimed
  :meth:`Workload.check` validates the outcome and returns its canonical
  report JSON, whose SHA-256 is pinned at the default seed.

``smoke=True`` shrinks each workload to a few simulated seconds so the
benchmark's own tests can drive the full pipeline quickly; smoke digests
are not pinned.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import shutil
import tempfile
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from repro import api
from repro.experiments.campaign import CampaignSpec, compile_campaign, load_journal
from repro.experiments.scenario import ScenarioConfig

DEFAULT_SEED = 4

#: SHA-256 of each workload's canonical report JSON at DEFAULT_SEED.
PINNED_DIGESTS: Dict[str, str] = {
    "mesh200": "8ee427ac30b60e88aba7a3ff564b8d8b77077bc3c9571d03df61661cdb5c3bbc",
    "matrix30": "bb34f95c68f17f8781492f45a2d2ba61cecbd666e9ab056907c02e9390dac45f",
}

#: Replications per defense in matrix30 (6 plugins x 2 = 12 jobs).
MATRIX_RUNS = 2


def canonical(state: Any) -> str:
    """The canonical JSON the identity benchmark compares reports by."""
    return json.dumps(state, sort_keys=True)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def mesh_config(seed: int, smoke: bool = False) -> ScenarioConfig:
    """ROADMAP's reference scenario: n=200, four out-of-band colluders
    forming a tunnel mesh from t=20 s, 60 s simulated, LITEWORP on."""
    config = ScenarioConfig(
        n_nodes=200,
        avg_neighbors=12.0,
        duration=60.0,
        seed=seed,
        attack_start=20.0,
        n_malicious=4,
        defense="liteworp",
    )
    if smoke:
        config = replace(config, n_nodes=60, duration=8.0, attack_start=3.0)
    return config


def matrix_spec(seed: int, smoke: bool = False) -> CampaignSpec:
    """The fig8 setup (n=30, 300 s) with every registered defense as the
    campaign's only axis, MATRIX_RUNS replications each."""
    base = ScenarioConfig(
        n_nodes=30, duration=300.0, seed=seed, attack_start=40.0, n_malicious=2
    )
    runs = MATRIX_RUNS
    if smoke:
        base = replace(base, n_nodes=16, duration=10.0, attack_start=4.0)
        runs = 1
    return CampaignSpec(
        name="matrix30",
        base=base,
        axes=(("defense", api.available_defenses()),),
        runs=runs,
    )


@dataclass
class Workload:
    """One named workload at one seed."""

    name: str
    seed: int
    smoke: bool = False
    workdir: Optional[pathlib.Path] = None

    def __post_init__(self) -> None:
        if self.name not in PINNED_DIGESTS:
            raise ValueError(
                f"unknown workload {self.name!r}; choose from {sorted(PINNED_DIGESTS)}"
            )
        self._scenario = None

    @property
    def pinned(self) -> Optional[str]:
        """The digest this pass must reproduce, or None when unpinned."""
        if self.smoke or self.seed != DEFAULT_SEED:
            return None
        return PINNED_DIGESTS[self.name]

    def base_config(self) -> ScenarioConfig:
        if self.name == "matrix30":
            return matrix_spec(self.seed, self.smoke).base
        return mesh_config(self.seed, self.smoke)

    def setup(self) -> None:
        """Build the scenario this workload starts from."""
        self._scenario = api.build_scenario(self.base_config())

    def run(self) -> Any:
        """Execute the workload (the timed part); returns its raw outcome."""
        scenario, self._scenario = self._scenario, None
        if self.name == "matrix30":
            # A cold cache and an fsync'd journal in a fresh directory:
            # every job really runs and every write really lands.
            tmp = pathlib.Path(tempfile.mkdtemp(prefix="matrix30-", dir=self.workdir))
            try:
                result = api.campaign(
                    matrix_spec(self.seed, self.smoke),
                    backend="inline",
                    cache=tmp / "cache",
                    journal=tmp / "journal.jsonl",
                    fsync=True,
                )
            except BaseException:
                shutil.rmtree(tmp, ignore_errors=True)
                raise
            return result, tmp
        if scenario is None:
            raise RuntimeError("setup() must run before run()")
        return scenario.run()

    def check(self, outcome: Any) -> str:
        """Validate ``run()``'s outcome (untimed); returns the canonical
        report JSON whose digest is pinned."""
        if self.name != "matrix30":
            report = outcome
            if report.originated <= 0 or report.delivered <= 0:
                raise RuntimeError(
                    f"{self.name}: empty report (originated={report.originated}, "
                    f"delivered={report.delivered})"
                )
            return canonical(report.to_state())
        result, tmp = outcome
        try:
            jobs = compile_campaign(result.spec)
            if not result.complete or result.executed != len(jobs) or result.from_cache:
                raise RuntimeError(f"matrix30: incomplete campaign: {result.format()}")
            reports = load_journal(tmp / "journal.jsonl").reports
            states = [reports[job.digest].to_state() for job in jobs]
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return canonical({"aggregate": result.aggregate, "reports": states})
