"""Core log data model.

The paper (section IV) splits a log line into a HEADER — structured
fields such as timestamp, criticality level and source — and a MESSAGE,
a free-text field composed of a static *template* part and a variable
part.  :class:`LogRecord` models the raw line; :class:`ParsedLog` models
the output of the parsing stage (Fig. 2): the same header plus the
discovered ``(template, variables)`` decomposition of the message.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

#: Token used in templates where a variable was identified.  This is the
#: conventional wildcard used by Drain and the LogHub benchmarks.
WILDCARD = "<*>"

#: Tenant assigned to records that arrive without an explicit tenant.
#: Single-stream deployments never mention tenancy and everything lands
#: here; the multi-tenant gateway (repro.gateway) stamps real tenant
#: ids at the transport edge.
DEFAULT_TENANT = "default"


class Severity(enum.IntEnum):
    """Syslog-style criticality levels for the log HEADER.

    Ordered so that comparisons express severity: ``Severity.ERROR >
    Severity.INFO`` holds.
    """

    TRACE = 0
    DEBUG = 1
    INFO = 2
    WARNING = 3
    ERROR = 4
    CRITICAL = 5

    @classmethod
    def from_text(cls, text: str) -> "Severity":
        """Parse a severity name leniently (case, common aliases).

        >>> Severity.from_text("warn")
        <Severity.WARNING: 3>
        """
        normalized = text.strip().upper()
        aliases = {
            "WARN": "WARNING",
            "ERR": "ERROR",
            "FATAL": "CRITICAL",
            "CRIT": "CRITICAL",
            "FINE": "DEBUG",
            "SEVERE": "ERROR",
            "NOTICE": "INFO",
        }
        normalized = aliases.get(normalized, normalized)
        try:
            return cls[normalized]
        except KeyError:
            raise ValueError(f"unknown severity: {text!r}") from None


def tokenize(message: str) -> list[str]:
    """Split a message into tokens.

    The paper defines a token as "a sequence delimited by spaces inside a
    log message"; the Eq. 1 metric and all parsers share this definition.
    Any run of whitespace delimits: ``str.split()`` treats exactly the
    code points that the regex class ``\\s`` matches as whitespace.

    >>> tokenize("Sending 138 bytes")
    ['Sending', '138', 'bytes']
    """
    return message.split()


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One raw log line: HEADER fields plus the free-text MESSAGE.

    ``source`` identifies the emitting system (one of the many log
    sources feeding MoniLog), ``timestamp`` is seconds since an
    arbitrary epoch, and ``session_id`` optionally carries the execution
    context (e.g. an HDFS block id) used for session windowing.
    ``sequence`` is the emission order within the source; stream noise
    may deliver records out of ``sequence`` order.  ``tenant`` names the
    customer the record belongs to in a multi-tenant deployment; legacy
    single-stream paths leave it at :data:`DEFAULT_TENANT`.
    """

    timestamp: float
    source: str
    severity: Severity
    message: str
    session_id: str | None = None
    sequence: int = 0
    labels: frozenset[str] = frozenset()
    tenant: str = DEFAULT_TENANT

    @property
    def tokens(self) -> list[str]:
        """Tokens of the MESSAGE field (space-delimited, paper §IV)."""
        return tokenize(self.message)

    @property
    def is_anomalous(self) -> bool:
        """Ground-truth flag: ``True`` if tagged with the ``anomaly`` label.

        Ground truth is carried on records by the synthetic dataset
        generators; production streams simply leave ``labels`` empty.
        """
        return "anomaly" in self.labels

    def with_message(self, message: str) -> "LogRecord":
        """Return a copy with a replaced MESSAGE (used by noise injectors)."""
        return replace(self, message=message)

    def with_labels(self, *extra: str) -> "LogRecord":
        """Return a copy with additional ground-truth labels."""
        return replace(self, labels=self.labels | frozenset(extra))

    def render(self) -> str:
        """Render to the classic one-line textual form (Fig. 2 layout)."""
        return (
            f"{self.timestamp:.3f} - {self.source} - "
            f"{self.severity.name} - {self.message}"
        )


@dataclass(frozen=True, slots=True)
class ParsedLog:
    """A structured log event: output of the parsing stage (Fig. 2).

    ``template`` is the static part of the MESSAGE with variables
    replaced by :data:`WILDCARD`; ``variables`` holds the extracted
    values in token order.  ``template_id`` is the parser-assigned
    identifier of the log class, stable within one parser instance.
    ``payload`` carries key/values recovered by the structured-data
    extraction preliminary step (paper §IV); it is None when that step
    did not run or found nothing, which saves an empty dict per event.
    """

    record: LogRecord
    template_id: int
    template: str
    variables: tuple[str, ...] = ()
    payload: dict[str, object] | None = None

    @property
    def timestamp(self) -> float:
        return self.record.timestamp

    @property
    def source(self) -> str:
        return self.record.source

    @property
    def session_id(self) -> str | None:
        return self.record.session_id

    @property
    def tenant(self) -> str:
        return self.record.tenant

    @property
    def windowing_key(self) -> str:
        """The session key windowing groups this event under.

        The session id when the substrate provides one, else a
        per-source pseudo-session key.  The streaming sessionizer
        buckets by this key and the sharded runtime routes windows to
        detector shards by hashing it, so the two MUST agree — that is
        why the scheme lives here, on the event, and not in either
        consumer.
        """
        return self.record.session_id or f"source:{self.record.source}"

    def reconstruct(self) -> str:
        """Re-substitute variables into the template.

        Useful to verify a lossless parse: for a correct parse the
        reconstruction token count matches the original message.
        """
        parts: list[str] = []
        variables = iter(self.variables)
        for token in tokenize(self.template):
            if token == WILDCARD:
                parts.append(next(variables, WILDCARD))
            else:
                parts.append(token)
        return " ".join(parts)


def template_of(message: str, variable_positions: set[int]) -> tuple[str, tuple[str, ...]]:
    """Build a ``(template, variables)`` pair from a message.

    ``variable_positions`` are token indices to replace with
    :data:`WILDCARD`.  This helper is shared by dataset generators
    (which know ground truth) and parser tests.

    >>> template_of("Sending 138 bytes", {1})
    ('Sending <*> bytes', ('138',))
    """
    tokens = tokenize(message)
    out: list[str] = []
    variables: list[str] = []
    for index, token in enumerate(tokens):
        if index in variable_positions:
            out.append(WILDCARD)
            variables.append(token)
        else:
            out.append(token)
    return " ".join(out), tuple(variables)
