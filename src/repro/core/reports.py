"""Anomaly reports and classified alerts.

The detection stage emits :class:`AnomalyReport` objects — "anomaly
reports, composed of all the logs linked to the identified anomalous
sequence" (paper §II).  The classification stage wraps them into
:class:`ClassifiedAlert` with a type (pool) and criticality.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.detection.base import DetectionResult
from repro.logs.record import ParsedLog, Severity


@dataclass(frozen=True, slots=True)
class AnomalyReport:
    """One detected anomalous sequence with all its linked logs."""

    report_id: int
    session_id: str
    events: tuple[ParsedLog, ...]
    detection: DetectionResult

    @property
    def sources(self) -> tuple[str, ...]:
        """The distinct log sources involved, in first-seen order."""
        seen: list[str] = []
        for event in self.events:
            if event.source not in seen:
                seen.append(event.source)
        return tuple(seen)

    @property
    def start_time(self) -> float:
        return min(event.timestamp for event in self.events)

    @property
    def end_time(self) -> float:
        return max(event.timestamp for event in self.events)

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def max_severity(self) -> Severity:
        return max(event.record.severity for event in self.events)

    @property
    def templates(self) -> tuple[str, ...]:
        """Distinct templates involved, in first-seen order."""
        seen: list[str] = []
        for event in self.events:
            if event.template not in seen:
                seen.append(event.template)
        return tuple(seen)

    def summary(self) -> str:
        """One-line human summary for dashboards and tests."""
        return (
            f"report #{self.report_id} session={self.session_id} "
            f"events={len(self.events)} sources={','.join(self.sources)} "
            f"severity={self.max_severity.name} score={self.detection.score:.3f}"
        )


@dataclass(frozen=True, slots=True)
class ClassifiedAlert:
    """An anomaly report with its assigned pool and criticality."""

    report: AnomalyReport
    pool: str
    criticality: str
    confidence: float = 0.0

    def moved_to(self, pool: str) -> "ClassifiedAlert":
        """The alert after an administrator moved it to another pool."""
        return replace(self, pool=pool)

    def with_criticality(self, criticality: str) -> "ClassifiedAlert":
        """The alert after an administrator edited the criticality."""
        return replace(self, criticality=criticality)
