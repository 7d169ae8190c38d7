"""Drain: online log parsing with a fixed-depth tree (He et al., ICWS'17).

Drain routes each message through a fixed-depth prefix tree: the first
level branches on token count, the next ``depth`` levels branch on the
leading tokens (with a special ``<*>`` child for tokens containing
digits), and leaves hold lists of template clusters.  A message joins
the most similar cluster at its leaf if the similarity exceeds the
``similarity_threshold``; otherwise it seeds a new cluster.

The paper (§IV) identifies Drain's two hyper-parameters — tree depth
and similarity threshold — as its automation limit: "their values have
a significant impact on precision.  Therefore, Drain cannot be deployed
in an unknown system with a high level of confidence."  Both are
exposed as constructor arguments and swept by experiments X4/X5.

Drain enables the exact-match template cache
(:class:`~repro.parsing.base.TemplateCache`) by default: repeated
masked lines skip the tree walk and the per-cluster similarity scan.
Hits are byte-identical to a cold classification because entries are
invalidated (via the store's generation counter) whenever any template
is created or refined — the only events that can change which cluster
wins the scan — and because re-merging a previously merged token
sequence never mutates a cluster (after the first merge, every
position is either a wildcard or that sequence's token).
"""

from __future__ import annotations

from repro.api.registry import register_component
from repro.logs.record import WILDCARD
from repro.parsing.base import MinedTemplate, OnlineParser
from repro.parsing.masking import Masker


_ASCII_DIGITS = frozenset("0123456789")


def _has_digit(token: str) -> bool:
    """Whether any character of ``token`` is a digit (``str.isdigit``).

    ASCII tokens, nearly all of them, take a set test; the only ASCII
    characters ``isdigit`` accepts are 0-9.  Other tokens keep the
    per-character test: the regex class ``\\d`` is not the same set
    (``"\\u00b2".isdigit()`` holds but ``\\d`` does not match it).
    """
    if token.isascii():
        return not _ASCII_DIGITS.isdisjoint(token)
    return any(character.isdigit() for character in token)


class _Node:
    """Internal tree node: children keyed by token (or wildcard)."""

    __slots__ = ("children", "clusters")

    def __init__(self) -> None:
        self.children: dict[str, _Node] = {}
        self.clusters: list[MinedTemplate] = []


@register_component("parser", "drain")
class DrainParser(OnlineParser):
    """The fixed-depth-tree online parser.

    Args:
        depth: number of leading tokens used for tree routing (the
            paper's ``depth`` minus the root/length levels; Drain's
            common default is 4, i.e. 2 routing tokens — here the
            argument counts routing tokens directly, default 2).
        similarity_threshold: minimum :meth:`MinedTemplate.similarity`
            for a message to join an existing cluster (default 0.4).
        max_children: cap on children per internal node; overflow
            tokens route through the wildcard child (default 100).
        masker / extract_structured: preprocessing, see
            :class:`repro.parsing.base.Parser`.
        cache_size: capacity of the exact-match template cache on
            masked content (0 disables it; default 65536 entries).
    """

    def __init__(
        self,
        depth: int = 2,
        similarity_threshold: float = 0.4,
        max_children: int = 100,
        masker: Masker | None = None,
        extract_structured: bool = False,
        cache_size: int = 65536,
    ) -> None:
        super().__init__(masker, extract_structured, cache_size=cache_size)
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if not 0.0 < similarity_threshold <= 1.0:
            raise ValueError(
                f"similarity_threshold must be in (0, 1], got {similarity_threshold}"
            )
        if max_children < 1:
            raise ValueError(f"max_children must be >= 1, got {max_children}")
        self.depth = depth
        self.similarity_threshold = similarity_threshold
        self.max_children = max_children
        self._length_roots: dict[int, _Node] = {}
        # template id -> (token count, routing child-key path), recorded
        # at creation time.  A cluster is only ever matched at the leaf
        # it was appended to, so this path is the template's permanent
        # tree address — replicas and reshard migrations replay it with
        # :meth:`install_template` instead of re-deriving a route from
        # the (possibly refined) current tokens.
        self._placements: dict[int, tuple[int, tuple[str, ...]]] = {}

    def _route(self, tokens: list[str]) -> _Node:
        """Walk (creating) the tree path for a token sequence."""
        node = self._length_roots.setdefault(len(tokens), _Node())
        for level in range(min(self.depth, len(tokens))):
            token = tokens[level]
            if _has_digit(token):
                token = WILDCARD
            child = node.children.get(token)
            if child is None:
                if token != WILDCARD and len(node.children) >= self.max_children:
                    token = WILDCARD
                    child = node.children.get(token)
                if child is None:
                    child = _Node()
                    node.children[token] = child
            node = child
        return node

    def _route_path(self, tokens: list[str]) -> tuple[str, ...]:
        """The child-key path :meth:`_route` walks for ``tokens``.

        Called right after :meth:`_route`, so every child on the path
        already exists and the overflow fallback can only re-trace the
        walk ``_route`` just took (the wildcard branch is taken exactly
        when the literal child is absent).
        """
        node = self._length_roots[len(tokens)]
        path: list[str] = []
        for level in range(min(self.depth, len(tokens))):
            token = tokens[level]
            if _has_digit(token) or token not in node.children:
                token = WILDCARD
            path.append(token)
            node = node.children[token]
        return tuple(path)

    def _classify(self, tokens: list[str]) -> MinedTemplate:
        leaf = self._route(tokens)
        best: MinedTemplate | None = None
        best_score = 0.0
        for cluster in leaf.clusters:
            score = cluster.similarity(tokens)
            if score > best_score:
                best, best_score = cluster, score
        if best is not None and best_score >= self.similarity_threshold:
            best.merge(tokens)
            return best
        template = self.store.create(tokens)
        leaf.clusters.append(template)
        self._placements[template.template_id] = (
            len(tokens), self._route_path(tokens)
        )
        return template

    # -- replica synchronization -------------------------------------------
    #
    # The distributed parser keeps warm DrainParser replicas (in process
    # pool workers and in the router's own shard table) and reconciles
    # them by shipping *changes* instead of whole pickled parsers.  A
    # delta is a plain dict of primitives:
    #
    #   {"base": <store length at the mark>,
    #    "created": [(id, tokens, count, placement), ...],
    #    "refined": [(id, tokens, count), ...],
    #    "counts":  [(id, count), ...]}
    #
    # ``created`` entries carry their creation-time placement so the
    # receiver rebuilds the identical tree address; ``refined`` ships
    # the current token list of templates that generalized; ``counts``
    # covers match-count drift on otherwise-unchanged templates.

    def install_template(
        self,
        tokens: list[str],
        count: int = 1,
        placement: tuple[int, tuple[str, ...]] | None = None,
    ) -> MinedTemplate:
        """Install a template mined elsewhere (replica sync / migration).

        Creates the store entry (next sequential id), sets its match
        count, and appends the cluster at ``placement`` — the
        creation-time tree address recorded by the original miner — so
        future messages classify against it exactly as they would have
        on the source shard.  Without a placement the address is
        re-derived from the tokens.
        """
        template = self.store.create(tokens)
        template.count = count
        if placement is None:
            leaf = self._route(list(tokens))
            placement = (len(tokens), self._route_path(list(tokens)))
        else:
            length, path = placement
            node = self._length_roots.setdefault(length, _Node())
            for key in path:
                child = node.children.get(key)
                if child is None:
                    child = _Node()
                    node.children[key] = child
                node = child
            leaf = node
        leaf.clusters.append(template)
        self._placements[template.template_id] = placement
        return template

    def template_export(
        self, template_id: int
    ) -> tuple[list[str], int, tuple[int, tuple[str, ...]]]:
        """One template's ``install_template`` payload (tokens, count,
        placement)."""
        template = self.store[template_id]
        placement = self._placements.get(template_id)
        if placement is None:
            placement = (len(template.tokens),
                         self._route_path(template.tokens))
        return list(template.tokens), template.count, placement

    def sync_mark(self) -> tuple[int, list[int]]:
        """Begin a sync window: snapshot counts, reset the change-set."""
        self.store.clear_dirty()
        return len(self.store), [t.count for t in self.store]

    def sync_delta(self, mark: tuple[int, list[int]]) -> dict:
        """Everything that changed since ``mark``, as a plain delta."""
        base, counts = mark
        store = self.store
        created = [
            (tid, *self.template_export(tid))
            for tid in range(base, len(store))
        ]
        refined = [
            (tid, list(store[tid].tokens), store[tid].count)
            for tid in sorted(self.store.dirty)
            if tid < base
        ]
        shipped = {tid for tid, *_ in refined}
        changed_counts = [
            (tid, store[tid].count)
            for tid in range(base)
            if store[tid].count != counts[tid] and tid not in shipped
        ]
        return {"base": base, "created": created, "refined": refined,
                "counts": changed_counts}

    def apply_sync(self, delta: dict) -> None:
        """Apply a peer's :meth:`sync_delta` to this replica."""
        store = self.store
        if delta["base"] != len(store):
            raise ValueError(
                f"sync delta expects store length {delta['base']}, "
                f"replica has {len(store)}"
            )
        for tid, tokens, count, placement in delta["created"]:
            installed = self.install_template(tokens, count, placement)
            if installed.template_id != tid:
                raise ValueError(
                    f"sync delta created id {tid}, replica assigned "
                    f"{installed.template_id}"
                )
        for tid, tokens, count in delta["refined"]:
            template = store[tid]
            template.replace_tokens(tokens)
            template.count = count
            store.note_refinement(tid)
        for tid, count in delta["counts"]:
            store[tid].count = count
