"""Exactness of Drain's cache-miss fast path.

Each shortcut on the miss path must compute the same function as the
plain formulation it replaced, byte for byte:

* the masker skips a rule whose ``required`` literals are all absent
  from the partly masked message — the same output as running every
  rule in sequence;
* ``tokenize`` is ``str.split()`` — the same tokens as a ``\\s+``
  regex split of the stripped message;
* ``drain._has_digit`` tests ASCII tokens with a set — the same answer
  as ``any(c.isdigit())``;
* ``MinedTemplate.similarity`` compares only memoized static positions
  — the same count of static matches as a per-token scan;
* template-tier cache entries keep the masked token *count* — the same
  parses as a cache-less parser when masking changes the count.
"""

from __future__ import annotations

import re
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_record
from repro.datasets import generate_bgl, generate_cloud_platform, generate_hdfs
from repro.logs.record import WILDCARD, tokenize
from repro.parsing import DrainParser
from repro.parsing.base import MinedTemplate
from repro.parsing.drain import _has_digit
from repro.parsing.masking import (
    DEFAULT_RULES,
    Masker,
    MaskingRule,
    default_masker,
)


def _sequential(rules: list[MaskingRule], message: str) -> str:
    """The ungated masker: every rule's ``re.sub``, in order."""
    for rule in rules:
        message = rule.pattern.sub(WILDCARD, message)
    return message


# Fragments next to which the gate literals and the rules' boundaries
# sit: whole matches of each rule, the literals themselves, near misses
# ("0X", "vm" without "-"), and non-ASCII digits that ``\d`` matches
# ("١", "٣") or does not ("²").
_FRAGMENTS = [
    "1.2.3.4", "10.0.0.1:80", "blk_12", "vm-1a", "vol-٣", "0x1f",
    "/var/x.log", "blk_", "blk_-", "0x", "0X", "vm-", "vm", "vol-",
    "req-", "host-", "host", ".", "/", ":", "-", "_", "1", "23", "255",
    "007", "a", "f", "x", "é", "²", "١", "٣", "<*>", " ", "  ", "\t",
]
_text = st.lists(
    st.one_of(st.sampled_from(_FRAGMENTS), st.text(max_size=3)),
    max_size=16,
).map("".join)

_EDGE_CASES = [
    "blk_123/foo", "blk_1/x", "blk_-42 done", "vm-1a/x", "vm-١٢ up",
    "vol-٣f.", "0X1f read", "0x1f read", "0x1f/0x2", "10.0.0.1:80/a",
    "1.2.3.4.5", "/var/log/app.log 3", "req-ab host-12.3", "",
]


def _corpus_messages() -> list[str]:
    messages: list[str] = []
    for dataset in (
        generate_bgl(records=1500, alert_episodes=3, seed=5),
        generate_hdfs(sessions=60, anomaly_rate=0.1, seed=5),
        generate_cloud_platform(sessions=60, seed=5),
        generate_cloud_platform(sessions=30, json_suffix=True, seed=5),
    ):
        messages.extend(record.message for record in dataset.records)
    return messages


@pytest.fixture(scope="module")
def corpus_messages() -> list[str]:
    return _corpus_messages()


class TestGatedMasker:
    def test_edge_cases_match_sequential_masking(self):
        masker = default_masker()
        for message in _EDGE_CASES:
            assert masker.mask(message) == _sequential(DEFAULT_RULES, message)

    def test_sequential_not_alternation(self):
        # The rules stay separate passes: one alternation would leave
        # "/foo" unmasked after the block id consumed "blk_123".
        assert default_masker().mask("blk_123/foo") == WILDCARD * 2

    def test_generator_corpora_match_sequential_masking(self, corpus_messages):
        masker = default_masker()
        for message in corpus_messages:
            assert masker.mask(message) == _sequential(DEFAULT_RULES, message)

    @settings(max_examples=200, deadline=None)
    @given(_text)
    def test_random_text_matches_sequential_masking(self, message):
        assert default_masker().mask(message) == _sequential(
            DEFAULT_RULES, message)

    @settings(max_examples=200, deadline=None)
    @given(_text)
    def test_every_match_contains_a_required_literal(self, message):
        # The gate's soundness: a rule cannot match a message that
        # holds none of its literals.  Checked on every intermediate
        # message the sequential masker produces.
        for rule in DEFAULT_RULES:
            for match in rule.pattern.finditer(message):
                assert not rule.required or any(
                    literal in match.group() for literal in rule.required
                ), (rule.name, message, match.group())
            message = rule.pattern.sub(WILDCARD, message)

    def test_corpus_matches_contain_a_required_literal(self, corpus_messages):
        for message in corpus_messages:
            for rule in DEFAULT_RULES:
                if rule.required:
                    for match in rule.pattern.finditer(message):
                        assert any(literal in match.group()
                                   for literal in rule.required)
                message = rule.pattern.sub(WILDCARD, message)

    def test_only_number_rule_runs_ungated(self):
        ungated = [rule.name for rule in DEFAULT_RULES if not rule.required]
        assert ungated == ["number"]

    def test_custom_rules_default_to_always_running(self):
        rule = MaskingRule.make("digits", r"\d+")
        assert rule.required == ()
        assert Masker([rule]).mask("a 12 b") == f"a {WILDCARD} b"

    def test_gate_sees_the_partly_masked_message(self):
        # The second rule's literal exists only in the first rule's
        # output, so gating on the raw message would skip it.
        rules = [
            MaskingRule.make("word", r"\bkey\b"),
            MaskingRule.make("star", r"<\*>!", required=("<*>",)),
        ]
        assert Masker(rules).mask("key! key") == f"{WILDCARD} {WILDCARD}"


@cache
def _whitespace_points() -> list[str]:
    """Every code point that either whitespace notion accepts."""
    space = re.compile(r"\s")
    return [chr(code) for code in range(0x110000)
            if chr(code).isspace() or space.match(chr(code))]


def _regex_tokenize(message: str) -> list[str]:
    stripped = message.strip()
    return re.split(r"\s+", stripped) if stripped else []


class TestTokenize:
    def test_every_whitespace_code_point_splits_alike(self):
        assert len(_whitespace_points()) > 20
        for space in _whitespace_points():
            for message in (f"a{space}b", f"{space}a{space}{space}b{space}",
                            space, f"a {space}"):
                assert tokenize(message) == _regex_tokenize(message), \
                    hex(ord(space))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(" \t\n\x0b\x0c\r\x1c\x1d"
                                              "\x1e\x1f\x85\xa0\u2028"
                                              "\u3000"),
                              st.text(max_size=3))).map("".join))
    def test_random_text_splits_alike(self, message):
        assert tokenize(message) == _regex_tokenize(message)


class TestHasDigit:
    def test_every_code_point(self):
        for code in range(0x110000):
            character = chr(code)
            assert _has_digit(character) == character.isdigit(), hex(code)
        for code in range(128):
            token = "ab" + chr(code) + "c"
            assert _has_digit(token) == any(c.isdigit() for c in token)

    def test_regex_digit_class_is_not_isdigit(self):
        # Why the non-ASCII path keeps str.isdigit: ``\d`` differs.
        assert "²".isdigit() and not re.match(r"\d", "²")
        assert _has_digit("x²")


def _generator_similarity(template: list[str], tokens: list[str]) -> float:
    """The per-token formula ``similarity`` replaced."""
    if len(tokens) != len(template):
        return 0.0
    if not tokens:
        return 1.0
    matches = sum(1 for mine, theirs in zip(template, tokens)
                  if mine == theirs and mine != WILDCARD)
    return matches / len(tokens)


_sim_token = st.sampled_from(["a", "b", "c", WILDCARD])
_sim_tokens = st.lists(_sim_token, max_size=7)


class TestSimilarity:
    @settings(max_examples=300, deadline=None)
    @given(_sim_tokens, _sim_tokens)
    def test_matches_generator_formula(self, template_tokens, tokens):
        template = MinedTemplate(0, template_tokens)
        assert template.similarity(tokens) == _generator_similarity(
            template_tokens, tokens)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=6).flatmap(
        lambda length: st.lists(st.lists(_sim_token, min_size=length,
                                         max_size=length),
                                min_size=2, max_size=8)))
    def test_matches_after_every_refinement(self, sequences):
        # The static view is memoized; a refining merge must rebuild it.
        template = MinedTemplate(0, sequences[0])
        for tokens in sequences:
            assert template.similarity(tokens) == _generator_similarity(
                template.tokens, tokens)
            template.merge(tokens)
            for probe in sequences:
                assert template.similarity(probe) == _generator_similarity(
                    template.tokens, probe)

    def test_replace_tokens_drops_the_memo(self):
        template = MinedTemplate(0, ["a", "b", "c"])
        assert template.similarity(["a", "b", "c"]) == 1.0
        template.replace_tokens(["a", WILDCARD, "x"])
        assert template.similarity(["a", "b", "c"]) == 1 / 3
        assert template.template == f"a {WILDCARD} x"

    def test_one_and_zero_static_positions(self):
        assert MinedTemplate(0, [WILDCARD, "a"]).similarity(["b", "a"]) == 0.5
        assert MinedTemplate(0, ["a"]).similarity(["a"]) == 1.0
        assert MinedTemplate(0, [WILDCARD] * 3).similarity(
            [WILDCARD] * 3) == 0.0


def _shape(parsed) -> list[tuple]:
    return [(event.template_id, event.template, event.variables,
             event.payload) for event in parsed]


# "user <name> ..." collapses two tokens into one wildcard, so the
# masked token count differs from the message's; the trailing JSON
# exercises structured-payload extraction on the same lines.
_SPANNING_RULES = [MaskingRule.make("user", r"user \w+"), *DEFAULT_RULES]
_SPANNING_MESSAGES = [
    "user alice logged in from 10.0.0.1 after 3 tries",
    "user bob logged in from 10.0.0.2 after 4 tries",
    'user carol logged in from 10.0.0.3 after 5 tries {"k": 1}',
    "user alice logged in from 10.0.0.1 after 3 tries",
    "disk sda1 at 91 percent",
    "disk sdb2 at 97 percent",
    'user dave logged in from 10.0.0.9 after 1 tries {"k": 2}',
    "user erin logged in from 10.0.0.8 after 2 tries",
]


class TestCountOnlyTemplateTier:
    @pytest.mark.parametrize("extract_structured", [False, True])
    def test_cold_warm_and_batched_match_uncached(self, extract_structured):
        records = [make_record(message, sequence=index)
                   for index, message in enumerate(_SPANNING_MESSAGES * 3)]

        def parser(cache_size: int) -> DrainParser:
            return DrainParser(masker=Masker(_SPANNING_RULES),
                               extract_structured=extract_structured,
                               cache_size=cache_size)

        expected = _shape(parser(0).parse_all(records))
        cached = parser(64)
        assert _shape(cached.parse_all(records)) == expected
        # Fresh raw messages that mask to cached content: template-tier
        # hits whose masked token count differs from the raw count.
        assert cached.cache.hits > 0
        assert any(
            len(tokenize(message)) != len(tokenize(cached.masker.mask(message)))
            for message in _SPANNING_MESSAGES
        )
        assert _shape(parser(64).parse_batch(records)) == expected
        # Warm: a second pass over a filled cache.
        assert _shape(cached.parse_all(records)) == _shape(
            parser(0).parse_all(records * 2))[len(records):]
        assert _shape(cached.parse_batch(records)) == _shape(
            parser(0).parse_all(records * 3))[2 * len(records):]

    def test_entries_hold_a_count_not_tokens(self):
        parser = DrainParser(masker=Masker(_SPANNING_RULES))
        parser.parse_all(make_record(message)
                         for message in _SPANNING_MESSAGES)
        entries = list(parser.cache._entries.items())
        assert entries
        for masked, (_, _, token_count, _) in entries:
            assert token_count == len(tokenize(masked))
