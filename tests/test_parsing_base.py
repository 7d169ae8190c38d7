"""Unit tests for shared parser machinery and masking."""

import pytest

from repro.logs.record import WILDCARD
from repro.parsing.base import BatchParser, MinedTemplate, TemplateStore
from repro.parsing.drain import DrainParser
from repro.parsing.masking import (
    Masker,
    MaskingRule,
    default_masker,
    no_masker,
)

from conftest import make_record


class TestMinedTemplate:
    def test_merge_generalizes_disagreements(self):
        template = MinedTemplate(0, ["send", "10", "bytes"])
        template.merge(["send", "25", "bytes"])
        assert template.tokens == ["send", WILDCARD, "bytes"]
        assert template.count == 2

    def test_merge_is_monotone(self):
        template = MinedTemplate(0, ["a", WILDCARD])
        template.merge(["a", "anything"])
        assert template.tokens == ["a", WILDCARD]

    def test_merge_rejects_length_mismatch(self):
        template = MinedTemplate(0, ["a", "b"])
        with pytest.raises(ValueError, match="length"):
            template.merge(["a"])

    def test_extract_variables(self):
        template = MinedTemplate(0, ["send", WILDCARD, "bytes", WILDCARD])
        assert template.extract_variables(["send", "10", "bytes", "now"]) == (
            "10", "now",
        )

    def test_similarity_counts_static_matches_only(self):
        template = MinedTemplate(0, ["send", WILDCARD, "bytes"])
        assert template.similarity(["send", "10", "bytes"]) == pytest.approx(2 / 3)
        assert template.similarity(["recv", "10", "bytes"]) == pytest.approx(1 / 3)
        assert template.similarity(["send", "10"]) == 0.0

    def test_similarity_empty(self):
        template = MinedTemplate(0, [])
        assert template.similarity([]) == 1.0


class TestTemplateStore:
    def test_ids_are_sequential_and_stable(self):
        store = TemplateStore()
        first = store.create(["a"])
        second = store.create(["b"])
        assert (first.template_id, second.template_id) == (0, 1)
        first.merge(["c"])  # generalizing does not change the id
        assert store[0] is first
        assert len(store) == 2

    def test_templates_listing(self):
        store = TemplateStore()
        store.create(["a", "b"])
        store.create([WILDCARD])
        assert store.templates() == ["a b", WILDCARD]


class TestMasker:
    def test_no_masker_is_identity(self):
        assert no_masker().mask("a 1 2.3.4.5") == "a 1 2.3.4.5"

    def test_default_masks_ips(self):
        masked = default_masker().mask("src: 10.1.2.3 dest: 10.4.5.6:8080")
        assert "10.1.2.3" not in masked
        assert "8080" not in masked

    def test_default_masks_block_ids(self):
        masked = default_masker().mask("Receiving block blk_123456789")
        assert "blk_123456789" not in masked
        assert WILDCARD in masked

    def test_default_masks_numbers_not_words(self):
        masked = default_masker().mask("sent 42 bytes to host7")
        assert masked == f"sent {WILDCARD} bytes to host7"

    def test_default_masks_hex_and_paths(self):
        masked = default_masker().mask("read 0xdeadbeef from /var/log/app.log")
        assert "0xdeadbeef" not in masked
        assert "/var/log/app.log" not in masked

    def test_custom_rule_order_matters(self):
        masker = Masker([
            MaskingRule.make("word_a", r"\ba\b"),
        ])
        assert masker.mask("a b a") == f"{WILDCARD} b {WILDCARD}"
        assert len(masker) == 1


class TestParserApi:
    def test_parse_record_returns_structured_event(self):
        parser = DrainParser()
        record = make_record("send 10 bytes")
        parser.parse_record(record)  # learn the shape
        parsed = parser.parse_record(make_record("send 20 bytes"))
        assert parsed.template == f"send {WILDCARD} bytes"
        assert parsed.variables == ("20",)

    def test_variables_survive_masking(self):
        parser = DrainParser(masker=default_masker())
        parsed = parser.parse_record(make_record("send 42 bytes"))
        # The mask hides 42 from the miner, but the value must surface
        # in the parsed event for quantitative detection.
        assert "42" in parsed.variables

    def test_structured_extraction_populates_payload(self):
        parser = DrainParser(extract_structured=True)
        parsed = parser.parse_record(
            make_record('done {"user": 5}')
        )
        assert parsed.payload == {"user": 5}
        assert "user" not in parsed.template
        assert parser.parse_record(make_record("done")).payload is None

    def test_parse_stream_is_lazy(self):
        parser = DrainParser()
        iterator = parser.parse_stream(
            make_record(f"m {i}") for i in range(3)
        )
        first = next(iterator)
        assert first.template_id == 0
        assert parser.template_count == 1

    def test_template_ids_stable_across_stream(self):
        parser = DrainParser()
        parsed = parser.parse_all(
            [make_record("send 1 bytes"), make_record("send 2 bytes"),
             make_record("recv packet"), make_record("send 3 bytes")]
        )
        assert parsed[0].template_id == parsed[1].template_id
        assert parsed[0].template_id == parsed[3].template_id
        assert parsed[2].template_id != parsed[0].template_id


class TestBatchParserContract:
    def test_unfitted_batch_parser_refuses(self):
        from repro.parsing import IplomParser

        parser = IplomParser()
        with pytest.raises(RuntimeError, match="fit"):
            parser.parse_record(make_record("a b"))

    def test_unseen_shape_gets_one_off_template(self):
        from repro.parsing import SlctParser

        parser = SlctParser(support=2)
        parser.fit([make_record("x y 1"), make_record("x y 2")] * 3)
        before = parser.template_count
        parsed = parser.parse_record(
            make_record("completely different shape entirely now")
        )
        assert parser.template_count == before + 1
        assert parsed.template == "completely different shape entirely now"
