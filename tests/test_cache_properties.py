"""Property-based tests for the exact-match template cache.

The cache's contract is invisibility: a DrainParser with the cache on
must emit exactly the stream a cache-less DrainParser emits, for any
message stream — including adversarial ones where templates refine
(gain wildcards) or new clusters later outscore the one a message was
cached against.  Hypothesis drives random repetitive streams at the
pair; deterministic tests pin down the two invalidation triggers.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.logs.record import LogRecord, Severity
from repro.parsing.base import TemplateCache
from repro.parsing.drain import DrainParser

# Tiny alphabets force token collisions, shared leaves, merges, and
# refinements — the regimes where a naive memo would go stale.
_word = st.sampled_from(["alpha", "beta", "gamma", "delta", "run", "x1", "7"])
_message = st.lists(_word, min_size=1, max_size=5).map(" ".join)
# Streams repeat a small vocabulary of messages, like real logs do.
_stream = st.lists(_message, min_size=1, max_size=12).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=60)
)


def _record(message: str, sequence: int = 0) -> LogRecord:
    return LogRecord(timestamp=float(sequence), source="prop",
                     severity=Severity.INFO, message=message,
                     sequence=sequence)


def _pair() -> tuple[DrainParser, DrainParser]:
    """A cached parser and its cache-less reference twin."""
    return DrainParser(cache_size=64), DrainParser(cache_size=0)


class TestCacheTransparency:
    @given(_stream)
    @settings(max_examples=200, deadline=None)
    def test_cached_parser_is_indistinguishable(self, messages):
        cached, reference = _pair()
        for sequence, message in enumerate(messages):
            record = _record(message, sequence)
            assert cached.parse_record(record) == reference.parse_record(record)
        assert cached.store.templates() == reference.store.templates()
        assert [t.count for t in cached.store] == [
            t.count for t in reference.store
        ]

    @given(_stream)
    @settings(max_examples=200, deadline=None)
    def test_parse_batch_is_indistinguishable(self, messages):
        cached, reference = _pair()
        records = [_record(m, i) for i, m in enumerate(messages)]
        assert cached.parse_batch(records) == [
            reference.parse_record(r) for r in records
        ]

    @given(_message)
    @settings(max_examples=100, deadline=None)
    def test_hit_never_changes_the_assigned_template(self, message):
        parser = DrainParser(cache_size=64)
        first = parser.parse_record(_record(message, 0))
        second = parser.parse_record(_record(message, 1))
        assert parser.cache.total_hits >= 1
        assert second.template_id == first.template_id
        assert second.template == first.template
        assert second.variables == first.variables


class TestCacheInvalidation:
    def test_refinement_invalidates_cached_entries(self):
        cached, reference = _pair()

        def feed(message, sequence):
            record = _record(message, sequence)
            return cached.parse_record(record), reference.parse_record(record)

        feed("a b c d e", 0)          # creates the cluster
        feed("a b c d e", 1)          # verbatim repeat: line-tier hit
        assert cached.cache.total_hits == 1
        # Refines the cluster to "a b <*> <*> <*>" (similarity 2/5
        # meets the 0.4 threshold) and must bump the generation.
        feed("a b x y z", 2)
        got, want = feed("a b c d e", 3)
        assert cached.cache.invalidations >= 1
        assert got == want
        assert got.template == "a b <*> <*> <*>"
        assert got.variables == ("c", "d", "e")

    def test_new_cluster_invalidates_cached_entries(self):
        # A later-created cluster can outscore the cached winner.
        # Digit-bearing tokens route through the wildcard child, so all
        # of these share one leaf.  After C generalizes to
        # "7 7 <*> <*> <*>", the repeat "7 7 x y z" scores 0.4 against
        # C but 0.6 against the newer fully-static "8 8 x y z" cluster
        # — serving the stale entry would assign the wrong template.
        cached, reference = _pair()

        def feed(message, sequence):
            record = _record(message, sequence)
            got, want = (cached.parse_record(record),
                         reference.parse_record(record))
            assert got == want
            return got

        feed("7 7 a b c", 0)          # creates C
        hit = feed("7 7 x y z", 1)    # refines C to "7 7 <*> <*> <*>"
        feed("7 7 x y z", 2)          # cache hit against refined C
        assert cached.cache.total_hits >= 1
        newcomer = feed("8 8 x y z", 3)  # new cluster at the same leaf
        steal = feed("7 7 x y z", 4)
        assert newcomer.template_id != hit.template_id
        assert steal.template_id == newcomer.template_id
        assert cached.cache.invalidations >= 1

    def test_seeding_messages_do_not_hit_stale_entries(self):
        # The very message that creates a template is cached at the
        # post-creation generation, so its repeats hit immediately.
        parser = DrainParser(cache_size=64)
        parser.parse_record(_record("fresh template line", 0))
        parser.parse_record(_record("fresh template line", 1))
        assert parser.cache.line_hits == 1
        assert parser.cache.invalidations == 0


class TestTemplateCacheUnit:
    def test_roundtrip_and_stale_generation(self):
        from repro.parsing.base import MinedTemplate

        cache = TemplateCache(capacity=4)
        template = MinedTemplate(template_id=0, tokens=["a", "<*>"])
        cache.put("a 1", 7, template, 2, (1,))
        assert cache.get("a 1", 7) == (template, 2, (1,))
        assert cache.hits == 1
        assert cache.get("a 1", 8) is None
        assert cache.invalidations == 1
        assert len(cache) == 0

    def test_lru_eviction(self):
        from repro.parsing.base import MinedTemplate

        cache = TemplateCache(capacity=2)
        templates = [MinedTemplate(template_id=i, tokens=["t", str(i)])
                     for i in range(3)]
        cache.put("m0", 0, templates[0], 1, ())
        cache.put("m1", 0, templates[1], 1, ())
        assert cache.get("m0", 0) is not None   # refresh m0
        cache.put("m2", 0, templates[2], 1, ())
        assert cache.get("m1", 0) is None       # m1 was least recent
        assert cache.get("m0", 0) is not None
        assert cache.get("m2", 0) is not None

    def test_capacity_validation(self):
        import pytest

        with pytest.raises(ValueError):
            TemplateCache(capacity=0)
