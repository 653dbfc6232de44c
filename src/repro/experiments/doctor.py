"""Audit and repair campaign journals and result caches.

A campaign journal is append-only JSONL, fsynced line by line — but the
world still finds ways to damage it: a writer killed mid-append leaves a
torn tail, a bad disk flips bytes mid-file, an old binary leaves
version-skewed entries, two campaigns accidentally share one path.
:func:`~repro.experiments.campaign.scan_journal` classifies every line
(see :class:`~repro.experiments.campaign.Problem` for the kinds), and
:func:`~repro.experiments.campaign.load_journal` refuses to resume from
anything but a torn tail; this module is the guessing that *is* safe:

- :func:`audit_journal` reports every defect with its line number and
  byte offset, without modifying anything;
- :func:`repair_journal` rewrites the journal atomically (temp + fsync +
  rename), keeping every healthy line byte-for-byte and quarantining the
  damaged ones to ``<journal>.quarantine.jsonl`` for post-mortems —
  repair never destroys bytes, it only relocates them;
- :func:`audit_cache` / :func:`repair_cache` do the same for the
  content-addressed :class:`~repro.experiments.cache.ResultCache`
  (corrupt or version-skewed entries are renamed to ``*.quarantine``).

``repro campaign doctor`` is the CLI wrapper; exit status 0 means
healthy (or successfully repaired), 2 means problems were found in
audit-only mode.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from repro.experiments.cache import CacheEntryError, atomic_write, read_entry
from repro.experiments.campaign import JournalState, scan_journal
from repro.obs.spans import span


def audit_journal(path: Union[str, Path]) -> JournalState:
    """Classify every defect in a journal without touching it."""
    with span("doctor.audit"):
        return scan_journal(path)


@dataclass
class RepairResult:
    """Outcome of :func:`repair_journal`."""

    audit: JournalState
    kept: int = 0
    quarantined: int = 0
    dropped_foreign: int = 0
    quarantine_path: Optional[Path] = None
    repaired: bool = False

    def format(self) -> str:
        if not self.repaired:
            return f"journal {self.audit.path}: already healthy, nothing to repair"
        lines = [
            f"journal {self.audit.path}: repaired "
            f"(kept {self.kept}, quarantined {self.quarantined}"
            + (f", dropped {self.dropped_foreign} foreign-spec" if self.dropped_foreign else "")
            + ")"
        ]
        if self.quarantine_path is not None:
            lines.append(f"  damaged lines preserved in {self.quarantine_path}")
        return "\n".join(lines)


def repair_journal(
    path: Union[str, Path], spec_digest: Optional[str] = None
) -> RepairResult:
    """Rewrite ``path`` keeping only healthy lines (byte-for-byte).

    Damaged lines are appended verbatim to ``<path>.quarantine.jsonl``
    rather than deleted.  With ``spec_digest``, lines belonging to any
    *other* campaign spec are dropped too (quarantined), resolving
    ``spec_mix`` journals; without it, a mixed journal keeps both specs'
    healthy lines.  The rewrite is atomic (temp file, fsync, rename, and
    a directory fsync), so a crash mid-repair leaves the original file
    intact.
    """
    with span("doctor.repair"):
        audit = scan_journal(path)
        path = audit.path

        def foreign(spec: Optional[str]) -> bool:
            return spec_digest is not None and spec is not None and spec != spec_digest

        if audit.healthy and not any(foreign(line.spec) for line in audit.lines):
            return RepairResult(audit=audit)
        result = RepairResult(audit=audit, repaired=True)
        keep: List[bytes] = []
        quarantine: List[bytes] = []
        for line in audit.lines:
            if line.problem is not None:
                quarantine.append(line.raw if line.raw.endswith(b"\n") else line.raw + b"\n")
                result.quarantined += 1
            elif foreign(line.spec):
                quarantine.append(line.raw)
                result.dropped_foreign += 1
            else:
                keep.append(line.raw)
                result.kept += 1
        if quarantine:
            result.quarantine_path = path.with_name(path.name + ".quarantine.jsonl")
            with open(result.quarantine_path, "ab") as handle:
                handle.write(b"".join(quarantine))
                handle.flush()
                os.fsync(handle.fileno())
        atomic_write(path, b"".join(keep))
        return result


# ----------------------------------------------------------------------
# Cache auditing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CacheProblem:
    """One damaged or version-skewed cache entry."""

    path: Path
    kind: str  # corrupt | malformed_entry | bad_version
    message: str

    def format(self) -> str:
        return f"{self.path}: {self.kind}: {self.message}"


def audit_cache(root: Union[str, Path]) -> List[CacheProblem]:
    """Scan every ``<salt>/<digest>.json`` entry under ``root``.

    Entries from a different code salt are *not* problems (the salt
    directory partitions them already); entries that
    :meth:`~repro.experiments.cache.ResultCache.get` would refuse are.
    """
    with span("doctor.audit"):
        problems: List[CacheProblem] = []
        for entry in sorted(Path(root).glob("*/*.json")):
            try:
                read_entry(entry)
            except CacheEntryError as exc:
                problems.append(CacheProblem(entry, exc.kind, str(exc)))
        return problems


def repair_cache(root: Union[str, Path]) -> List[CacheProblem]:
    """Quarantine every damaged cache entry (rename to ``*.quarantine``).

    The cache treats unreadable entries as misses already, so repair is
    about keeping the store auditable: damaged bytes move aside instead
    of being re-read (and re-logged) forever.  Returns the problems that
    were quarantined.
    """
    with span("doctor.repair"):
        problems = audit_cache(root)
        for problem in problems:
            target = problem.path.with_name(problem.path.name + ".quarantine")
            try:
                os.replace(problem.path, target)
            except OSError:
                pass
        return problems


__all__ = [
    "CacheProblem",
    "RepairResult",
    "audit_cache",
    "audit_journal",
    "repair_cache",
    "repair_journal",
]
