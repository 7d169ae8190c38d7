"""Regex masking: the expert-crafted preprocessing step.

"During the preprocessing step, algorithms use human crafted regular
expressions to identify common variables such as URLs or IP addresses.
Preprocessing needs experts to define the regular expressions, which
has a cost in time and can lead to mistakes impacting the parsing
efficiency." (paper §IV)

Masking is therefore modelled as an explicit, optional component so the
parser benchmark (experiment X4) can ablate it: every parser accepts a
:class:`Masker`, and :func:`default_masker` provides the usual
community rule set (IPs, numbers, hex ids, paths).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.logs.record import WILDCARD


@dataclass(frozen=True)
class MaskingRule:
    """One masking regex with a descriptive name.

    ``required`` lists literals of which every match of ``pattern``
    contains at least one.  :class:`Masker` skips the rule on a message
    that contains none of them: the regex could not match there, so
    skipping it is exact, and on most log lines it saves most of the
    rule set's ``re.sub`` calls.  The empty tuple (the default, and
    the only safe value for a rule nobody has checked) means the rule
    always runs.
    """

    name: str
    pattern: re.Pattern[str]
    required: tuple[str, ...] = ()

    @classmethod
    def make(cls, name: str, pattern: str,
             required: tuple[str, ...] = ()) -> "MaskingRule":
        return cls(name=name, pattern=re.compile(pattern),
                   required=required)


class Masker:
    """Applies masking rules, replacing matches with the wildcard token.

    Rules run in order; earlier rules win on overlaps (the replacement
    text cannot be re-matched because the wildcard contains no word
    characters the rules look for).  Each rule sees the message as the
    rules before it left it, so a rule with ``required`` literals runs
    only if one of them is in that partly masked message; a rule
    skipped that way would have replaced nothing, so the output is the
    same as running every rule.  The rules stay separate passes on
    purpose: one alternation of them is not the same function (on
    ``blk_123/foo`` the passes give ``<*><*>``, an alternation gives
    ``<*>/foo``).
    """

    def __init__(self, rules: list[MaskingRule] | None = None):
        self.rules = list(rules or [])

    def mask(self, message: str) -> str:
        for rule in self.rules:
            required = rule.required
            if required:
                # A plain loop: on BGL lines an any() generator gives
                # back about half of what the gate saves.
                for literal in required:
                    if literal in message:
                        break
                else:
                    continue
            message = rule.pattern.sub(WILDCARD, message)
        return message

    def __len__(self) -> int:
        return len(self.rules)


#: Community-standard masking rules, mirroring the preprocessing used by
#: the LogHub / logparser benchmarks for HDFS-like corpora.
DEFAULT_RULES: list[MaskingRule] = [
    MaskingRule.make("ip_port",
                     r"(?<![\w.])\d{1,3}(?:\.\d{1,3}){3}(?::\d+)?(?![\w.])",
                     required=(".",)),
    MaskingRule.make("block_id", r"\bblk_-?\d+\b", required=("blk_",)),
    MaskingRule.make("resource_id", r"\b(?:vm|vol|req|host)-[0-9a-f\d]+\b",
                     required=("vm-", "vol-", "req-", "host-")),
    MaskingRule.make("hex_value", r"\b0x[0-9a-fA-F]+\b", required=("0x",)),
    MaskingRule.make("path", r"(?<!\w)/[\w./-]+", required=("/",)),
    MaskingRule.make("number", r"(?<![\w.])-?\d+(?:\.\d+)?(?![\w.])"),
]


def default_masker() -> Masker:
    """The expert rule set (IPs, ids, hex, paths, numbers)."""
    return Masker(list(DEFAULT_RULES))


def no_masker() -> Masker:
    """A pass-through masker: what full automation would have to use."""
    return Masker([])
