"""The Detector API and detection results.

A detector consumes *sessions*: ordered lists of
:class:`~repro.logs.record.ParsedLog` events (the structured stream of
Fig. 1, windowed by :mod:`repro.detection.windows`).  Training takes a
list of sessions plus optional boolean labels — the unsupervised
detectors (everything except LogRobust) ignore labels and learn the
normal execution flow only, which is the deployment regime the paper's
experiment X1 argues for.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.logs.record import ParsedLog

Session = Sequence[ParsedLog]


@dataclass(frozen=True, slots=True)
class DetectionResult:
    """Verdict for one session.

    ``score`` is a detector-specific anomaly score (higher = more
    anomalous); ``anomalous`` is the thresholded verdict; ``reasons``
    carries human-readable evidence (used by anomaly reports and the
    classifier featurization).
    """

    anomalous: bool
    score: float = 0.0
    reasons: tuple[str, ...] = ()


class Detector:
    """Base class for all anomaly detectors.

    Subclasses implement :meth:`fit` and :meth:`detect`.  ``supervised``
    declares whether labelled anomalies are required at training time.
    """

    name: str = "detector"
    supervised: bool = False

    def fit(
        self,
        sessions: list[Session],
        labels: list[bool] | None = None,
    ) -> "Detector":
        raise NotImplementedError

    def detect(self, session: Session) -> DetectionResult:
        raise NotImplementedError

    def predict(self, session: Session) -> bool:
        """Boolean convenience wrapper over :meth:`detect`."""
        return self.detect(session).anomalous

    def predict_many(self, sessions: list[Session]) -> list[bool]:
        return [self.predict(session) for session in sessions]

    def _require_fitted(self, attribute: str) -> None:
        if getattr(self, attribute, None) is None:
            raise RuntimeError(
                f"{type(self).__name__} is not fitted; call fit() first"
            )


def template_sequence(session: Session) -> list[int]:
    """The template-id sequence of a session (the LSTM input view)."""
    return [event.template_id for event in session]


def numeric_variables(event: ParsedLog) -> list[float]:
    """The numeric variable values of one event (quantitative view)."""
    values: list[float] = []
    for variable in event.variables:
        try:
            values.append(float(variable))
        except ValueError:
            continue
    return values
