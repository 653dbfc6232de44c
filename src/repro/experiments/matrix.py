"""Cross-defense × cross-attack matrix campaigns.

``repro matrix`` (and :func:`repro.api.matrix`) answers the survey
question the single-defense figures cannot: *which* registered defense
detects *which* wormhole variant, at what isolation latency and what
cost.  A :class:`MatrixSpec` compiles into one
:class:`~repro.experiments.campaign.CampaignSpec` with two axes: a
coupled ``attack`` label axis whose tables set the mode *and* the
malicious-node count it needs (tunnel modes need two colluders, the
single-attacker modes exactly one, the control column none), and a
``defense`` axis over every requested registry name.

Execution is an ordinary campaign run: journaled to
``<name>.journal.jsonl`` under the journal directory, cached, supervised,
and resumable, and ``--max-jobs`` / SIGINT stop it with exit 75 exactly
like ``repro campaign run`` (``repro campaign status`` and ``doctor``
read the matrix journal like any other).  Once the campaign is complete,
:func:`aggregate_matrix` folds each cell's replications into detection
rate (the *plugin's* :meth:`Defense.detected` verdict, so schemes that
flag without LITEWORP-style isolation still count), isolation/detection
latency, delivery and drop fractions, and the plugin's own
:meth:`Defense.metrics_contribution` surface — rendered as one markdown +
JSON :class:`~repro.obs.report.MatrixReport`.  Aggregation is a pure
function of the campaign's reports, so a matrix interrupted and resumed
produces byte-identical output to an uninterrupted one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.attacks.coordinator import TUNNEL_MODES
from repro.defenses import available_defenses, get_defense
from repro.experiments.cache import ResultCache
from repro.experiments.campaign import (
    CampaignError,
    CampaignResult,
    CampaignSpec,
    ExecutionBackend,
    RetryPolicy,
    SupervisionPolicy,
    compile_campaign,
    run_campaign,
)
from repro.experiments.scenario import ATTACK_MODES, ScenarioConfig
from repro.metrics.collector import MetricsReport
from repro.obs.progress import CampaignProgress
from repro.obs.report import MatrixReport
from repro.obs.spans import span
from repro.sim.trace import TraceLog

#: Attack columns the CLI sweeps by default: one tunnel variant plus both
#: physical-layer variants, so every built-in defense has at least one
#: column it catches and one it provably cannot (see docs/DEFENSES.md).
DEFAULT_MATRIX_ATTACKS: Tuple[str, ...] = ("outofband", "highpower", "relay")


def attack_malicious(mode: str, colluders: int = 2) -> int:
    """The malicious-node count ``mode`` requires.

    Tunnel modes need at least two colluding endpoints, the
    single-attacker modes exactly one, and the ``none`` control column
    zero — which is why the matrix's ``attack`` axis is a coupled label
    axis instead of a plain ``attack_mode`` axis.
    """
    if mode == "none":
        return 0
    if mode in TUNNEL_MODES:
        return max(2, colluders)
    return 1


@dataclass(frozen=True)
class MatrixSpec:
    """A declarative defense × attack matrix.

    Parameters
    ----------
    name:
        Matrix name; also the campaign's name, journaled to
        ``<name>.journal.jsonl``.
    base:
        Scenario template every cell is built from.  ``attack_mode``,
        ``n_malicious`` and ``defense`` are overwritten per cell; all
        other knobs (size, duration, seed, per-defense config blocks)
        carry through unchanged.
    defenses:
        Registry names forming the rows; empty means *every* defense
        registered at construction time.
    attacks:
        Attack modes forming the columns.
    runs:
        Replications per cell (hash-derived seeds, exactly like any
        campaign).
    colluders:
        Colluding endpoints for tunnel-mode columns (min 2).
    """

    name: str = "matrix"
    base: ScenarioConfig = field(default_factory=ScenarioConfig)
    defenses: Tuple[str, ...] = ()
    attacks: Tuple[str, ...] = DEFAULT_MATRIX_ATTACKS
    runs: int = 1
    colluders: int = 2

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("matrix needs a non-empty name")
        if self.runs < 1:
            raise CampaignError(f"runs must be at least 1, got {self.runs!r}")
        if self.colluders < 2:
            raise CampaignError(
                f"tunnel modes need at least 2 colluders, got {self.colluders!r}"
            )
        attacks = tuple(self.attacks)
        if not attacks:
            raise CampaignError("matrix needs at least one attack mode")
        for attack in attacks:
            if attack not in ATTACK_MODES:
                raise CampaignError(
                    f"unknown attack mode {attack!r}; choose from {ATTACK_MODES}"
                )
        if len(set(attacks)) != len(attacks):
            raise CampaignError("duplicate attack modes in matrix spec")
        defenses = tuple(self.defenses) or available_defenses()
        for defense in defenses:
            if defense not in available_defenses():
                raise CampaignError(
                    f"unknown defense {defense!r}; available: "
                    f"{', '.join(available_defenses())}"
                )
        if len(set(defenses)) != len(defenses):
            raise CampaignError("duplicate defenses in matrix spec")
        object.__setattr__(self, "attacks", attacks)
        object.__setattr__(self, "defenses", defenses)

    def to_campaign(self) -> CampaignSpec:
        """The one campaign behind the matrix: a coupled ``attack`` axis
        (mode plus its required malicious count) × the ``defense`` axis.
        Axes sort by name, so jobs run attack-major, then defense."""
        attack_axis = tuple(
            {"attack_mode": attack,
             "n_malicious": attack_malicious(attack, self.colluders)}
            for attack in self.attacks
        )
        return CampaignSpec(
            name=self.name,
            base=self.base,
            axes=(("attack", attack_axis), ("defense", self.defenses)),
            runs=self.runs,
        )

    def total_jobs(self) -> int:
        """Cells × replications across the whole matrix."""
        return len(self.attacks) * len(self.defenses) * self.runs


# ----------------------------------------------------------------------
# Aggregation: campaign reports -> MatrixReport
# ----------------------------------------------------------------------
def _mean(values: List[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def _cell_metrics(defense: str, reports: List[MetricsReport]) -> Dict[str, Any]:
    """Fold one cell's replications into its headline numbers.

    Detection is the *plugin's* verdict — :meth:`Defense.detected` — not
    a raw ``detections > 0`` test, so schemes with their own evidence
    surface (SND's unverified-link counters) are judged on their own
    terms.  The plugin's :meth:`Defense.metrics_contribution` keys are
    averaged into the ``contribution`` block.
    """
    plugin = get_defense(defense)
    config = plugin.resolve_config(None)
    contribution: Dict[str, List[float]] = {}
    for report in reports:
        for key, value in plugin.metrics_contribution(report, config).items():
            contribution.setdefault(key, []).append(float(value))
    return {
        "runs": len(reports),
        "detection_rate": _mean(
            [1.0 if plugin.detected(r) else 0.0 for r in reports]
        ),
        "detections": _mean([float(r.detections) for r in reports]),
        "isolations": _mean([float(r.isolations) for r in reports]),
        "false_isolations": _mean(
            [float(sum(r.false_isolations.values())) for r in reports]
        ),
        "mean_isolation_latency": _mean(
            [v for v in (r.mean_isolation_latency() for r in reports) if v is not None]
        ),
        "mean_detection_latency": _mean(
            [v for v in (r.mean_detection_latency() for r in reports) if v is not None]
        ),
        "delivery_fraction": _mean(
            [r.delivered / max(1, r.originated) for r in reports]
        ),
        "wormhole_drop_fraction": _mean(
            [r.fraction_wormhole_dropped for r in reports]
        ),
        "contribution": {
            key: _mean(values) for key, values in sorted(contribution.items())
        },
    }


def aggregate_matrix(
    spec: MatrixSpec, reports: Sequence[MetricsReport]
) -> MatrixReport:
    """Fold the matrix campaign's reports (in job order, as
    :attr:`CampaignResult.reports` holds them) into one
    :class:`~repro.obs.report.MatrixReport`.

    Raises :class:`~repro.experiments.campaign.CampaignError` when the
    reports do not cover every job — run the matrix to completion
    (``--resume`` after an interruption) first.
    """
    with span("matrix.aggregate"):
        jobs = compile_campaign(spec.to_campaign())
        if len(reports) != len(jobs):
            raise CampaignError(
                f"matrix {spec.name!r} has {len(reports)} of its {len(jobs)} "
                f"job reports; run the matrix to completion (--resume) first"
            )
        by_cell: Dict[Tuple[str, str], List[MetricsReport]] = {}
        for job, report in zip(jobs, reports):
            cell = (job.config.attack_mode, dict(job.point)["defense"])
            by_cell.setdefault(cell, []).append(report)
        cells = [
            {
                "attack": attack,
                "defense": defense,
                "metrics": _cell_metrics(defense, by_cell[(attack, defense)]),
            }
            for attack in spec.attacks
            for defense in spec.defenses
        ]
        return MatrixReport(
            payload={
                "matrix": spec.name,
                "attacks": list(spec.attacks),
                "defenses": list(spec.defenses),
                "runs": spec.runs,
                "base": {
                    "n_nodes": spec.base.n_nodes,
                    "duration": spec.base.duration,
                    "seed": spec.base.seed,
                    "attack_start": spec.base.attack_start,
                },
                "cells": cells,
            }
        )


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
@dataclass
class MatrixResult:
    """Outcome of one :func:`run_matrix` invocation: the matrix campaign's
    result, plus the rendered report once it is complete."""

    spec: MatrixSpec
    campaign: CampaignResult
    report: Optional[MatrixReport] = None

    @property
    def complete(self) -> bool:
        return self.campaign.complete

    @property
    def executed(self) -> int:
        return self.campaign.executed

    @property
    def completed_jobs(self) -> int:
        return self.campaign.completed_jobs

    @property
    def interrupted(self) -> Optional[str]:
        return self.campaign.interrupted

    def format(self) -> str:
        """Stable one-screen execution summary (the report renders the
        matrix itself)."""
        result = self.campaign
        line = (
            f"matrix {self.spec.name}"
            f" cells={len(self.spec.attacks) * len(self.spec.defenses)}"
            f" jobs={result.total_jobs}"
            f" completed={result.completed_jobs}"
            f" complete={'yes' if result.complete else 'no'}"
            f"\n  executed={result.executed}"
            f" cache={result.from_cache}"
            f" journal={result.from_journal}"
            f" retried={result.retried}"
        )
        if result.dead_lettered:
            line += f" dead_lettered={result.dead_lettered}"
        return line


def run_matrix(
    spec: MatrixSpec,
    *,
    journal_dir: Union[str, Path],
    backend: Union[str, ExecutionBackend] = "inline",
    jobs: Optional[int] = None,
    cache: Optional[Union[ResultCache, str, Path]] = None,
    resume: bool = False,
    retry: RetryPolicy = RetryPolicy(),
    supervision: SupervisionPolicy = SupervisionPolicy(),
    progress: Optional[CampaignProgress] = None,
    trace: Optional[TraceLog] = None,
    max_jobs: Optional[int] = None,
    stop: Optional[Callable[[], bool]] = None,
    fsync: bool = True,
) -> MatrixResult:
    """Run (or resume) the matrix campaign, then aggregate.

    The journal is ``<journal_dir>/<name>.journal.jsonl`` (journals of
    the older one-campaign-per-attack layout are not resumed; their
    cached job results still hit, because job digests are unchanged).
    ``max_jobs`` and ``stop`` interrupt it like any campaign: the result
    comes back incomplete and a later ``resume=True`` call picks up
    where it stopped, producing a byte-identical report to an
    uninterrupted run.
    """
    with span("matrix.run"):
        result = run_campaign(
            spec.to_campaign(),
            backend=backend,
            jobs=jobs,
            cache=cache,
            journal=Path(journal_dir) / f"{spec.name}.journal.jsonl",
            resume=resume,
            retry=retry,
            supervision=supervision,
            progress=progress,
            trace=trace,
            max_jobs=max_jobs,
            stop=stop,
            fsync=fsync,
        )
    report = aggregate_matrix(spec, result.reports) if result.complete else None
    return MatrixResult(spec=spec, campaign=result, report=report)


__all__ = [
    "DEFAULT_MATRIX_ATTACKS",
    "MatrixResult",
    "MatrixSpec",
    "aggregate_matrix",
    "attack_malicious",
    "run_matrix",
]
