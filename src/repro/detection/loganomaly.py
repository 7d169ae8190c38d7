"""LogAnomaly (Meng et al., IJCAI'19).

LogAnomaly addresses both anomaly kinds with two LSTM heads over a
window of recent events:

* a **sequential** head over *template2vec* semantic vectors predicting
  the next template, and
* a **quantitative** head over sliding count vectors, capturing how
  many times each template should appear.

Its answer to template instability (paper §III): "the majority of the
new templates are just a minor variant of an existing one" — an unseen
template at detection time is *matched to its most similar known
template* via semantic similarity instead of being treated as an
unpredictable unknown the way DeepLog must.

template2vec here is the :class:`~repro.detection.semantics.
SemanticVectorizer` (see its docstring for the offline embedding
substitution).
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_component
from repro.detection.base import (
    DetectionResult,
    Detector,
    Session,
    template_sequence,
)
from repro.detection.semantics import SemanticVectorizer
from repro.nn.layers import Dense
from repro.nn.losses import softmax, softmax_cross_entropy
from repro.nn.lstm import Lstm
from repro.nn.network import Module, Trainer
from repro.nn.optim import Adam


class _DualHeadModel(Module):
    """Semantic-sequence LSTM + count-vector LSTM, fused by averaging."""

    def __init__(self, semantic_dim: int, vocabulary: int, hidden: int,
                 *, seed: int):
        self.sequence_lstm = Lstm(semantic_dim, hidden, seed=seed)
        self.sequence_head = Dense(hidden, vocabulary, seed=seed + 1)
        self.count_lstm = Lstm(vocabulary, hidden, seed=seed + 2)
        self.count_head = Dense(hidden, vocabulary, seed=seed + 3)

    def logits(
        self, semantic_windows: np.ndarray, count_windows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        sequence_logits = self.sequence_head.forward(
            self.sequence_lstm.last_hidden(semantic_windows)
        )
        count_logits = self.count_head.forward(
            self.count_lstm.last_hidden(count_windows)
        )
        return sequence_logits, count_logits

    def backward(
        self, grad_sequence: np.ndarray, grad_count: np.ndarray
    ) -> None:
        self.sequence_lstm.backward_last(self.sequence_head.backward(grad_sequence))
        self.count_lstm.backward_last(self.count_head.backward(grad_count))


@register_component("detector", "loganomaly")
class LogAnomalyDetector(Detector):
    """The template2vec dual-head detector.

    Args:
        window: history length for both heads.
        top_g: normality rank threshold, as in DeepLog.
        hidden: LSTM hidden size (shared by both heads).
        semantic_dim: template2vec dimension.
        match_threshold: minimum similarity for an unseen template to
            be matched to a known one; below it the event is treated as
            a violation.
        epochs / seed: training controls.
    """

    name = "loganomaly"
    supervised = False

    def __init__(
        self,
        window: int = 10,
        top_g: int = 3,
        hidden: int = 32,
        semantic_dim: int = 48,
        match_threshold: float = 0.5,
        epochs: int = 10,
        seed: int = 0,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self.top_g = top_g
        self.hidden = hidden
        self.semantic_dim = semantic_dim
        self.match_threshold = match_threshold
        self.epochs = epochs
        self.seed = seed
        self.vectorizer = SemanticVectorizer(dimension=semantic_dim)
        self._index_of: dict[int, int] | None = None
        self._template_of_index: list[str] = []
        self._template_text: dict[int, str] = {}
        self._model: _DualHeadModel | None = None
        self._match_cache: dict[int, int | None] = {}

    # -- featurization -------------------------------------------------------

    def _semantic_matrix(self) -> np.ndarray:
        return self.vectorizer.vectorize_many(self._template_of_index)

    def _map_index(self, template_id: int, template_text: str) -> int | None:
        """Training index of a template, semantic-matching unseen ones."""
        assert self._index_of is not None
        direct = self._index_of.get(template_id)
        if direct is not None:
            return direct
        cached = self._match_cache.get(template_id, "miss")
        if cached != "miss":
            return cached  # type: ignore[return-value]
        matched, similarity = self.vectorizer.nearest(
            template_text, self._template_of_index
        )
        result: int | None = None
        if matched is not None and similarity >= self.match_threshold:
            result = self._template_of_index.index(matched)
        self._match_cache[template_id] = result
        return result

    def _session_indices(self, session: Session) -> list[int | None]:
        return [
            self._map_index(event.template_id, event.template)
            for event in session
        ]

    def _windows(
        self, indices: list[int | None]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
        """Build (semantic, count, target) training windows.

        Positions whose target failed to map are skipped for training
        but reported by the caller at detection (they are violations).
        Unmapped history entries contribute zero vectors.
        """
        vocabulary = len(self._template_of_index)
        semantic = self._semantic_matrix()
        semantic_windows = []
        count_windows = []
        targets = []
        positions = []
        for position in range(1, len(indices)):
            target = indices[position]
            if target is None:
                continue
            start = max(0, position - self.window)
            history = indices[start:position]
            padded: list[int | None] = [None] * (self.window - len(history))
            padded += history
            semantic_window = np.zeros((self.window, self.semantic_dim))
            count_window = np.zeros((self.window, vocabulary))
            running = np.zeros(vocabulary)
            for slot, index in enumerate(padded):
                if index is not None:
                    semantic_window[slot] = semantic[index]
                    running[index] += 1.0
                count_window[slot] = running
            semantic_windows.append(semantic_window)
            count_windows.append(count_window)
            targets.append(target)
            positions.append(position)
        if not targets:
            empty_semantic = np.zeros((0, self.window, self.semantic_dim))
            empty_count = np.zeros((0, self.window, vocabulary))
            return empty_semantic, empty_count, np.zeros(0, dtype=int), []
        return (
            np.stack(semantic_windows),
            np.stack(count_windows),
            np.asarray(targets, dtype=int),
            positions,
        )

    # -- training -------------------------------------------------------------

    def fit(
        self, sessions: list[Session], labels: list[bool] | None = None
    ) -> "LogAnomalyDetector":
        index_of: dict[int, int] = {}
        templates: list[str] = []
        for session in sessions:
            for event in session:
                if event.template_id not in index_of:
                    index_of[event.template_id] = len(templates)
                    templates.append(event.template)
        if not templates:
            raise ValueError("LogAnomalyDetector needs non-empty training sessions")
        self._index_of = index_of
        self._template_of_index = templates
        self.vectorizer.fit(templates)
        self._match_cache.clear()
        self._model = _DualHeadModel(
            self.semantic_dim, len(templates), self.hidden, seed=self.seed
        )

        semantic_parts = []
        count_parts = []
        target_parts = []
        for session in sessions:
            semantic, counts, targets, _ = self._windows(
                self._session_indices(session)
            )
            if len(targets):
                semantic_parts.append(semantic)
                count_parts.append(counts)
                target_parts.append(targets)
        semantic_x = np.concatenate(semantic_parts)
        count_x = np.concatenate(count_parts)
        y = np.concatenate(target_parts)

        model = self._model

        def loss_fn(batch_indices: np.ndarray, y_batch: np.ndarray):
            sequence_logits, count_logits = model.logits(
                semantic_x[batch_indices], count_x[batch_indices]
            )
            loss_s, grad_s, prob_s = softmax_cross_entropy(sequence_logits, y_batch)
            loss_c, grad_c, prob_c = softmax_cross_entropy(count_logits, y_batch)
            model.backward(grad_s, grad_c)
            fused = (prob_s + prob_c) / 2.0
            correct = int((fused.argmax(axis=1) == y_batch).sum())
            return loss_s + loss_c, correct

        # Train on index arrays so both heads see aligned batches.
        sample_indices = np.arange(len(y))
        trainer = Trainer(
            model, Adam(learning_rate=0.005), batch_size=64,
            epochs=self.epochs, seed=self.seed,
        )
        trainer.fit(sample_indices, y, loss_fn)
        return self

    # -- detection --------------------------------------------------------------

    def detect(self, session: Session) -> DetectionResult:
        self._require_fitted("_model")
        assert self._model is not None
        indices = self._session_indices(session)
        unmatched = [
            position
            for position, index in enumerate(indices)
            if index is None
        ]
        semantic, counts, targets, positions = self._windows(indices)
        reasons: list[str] = [
            f"no semantically similar known template for "
            f"{session[position].template!r}"
            for position in unmatched[:3]
        ]
        violations = len(unmatched)
        checks = len(unmatched)

        if len(targets):
            sequence_logits, count_logits = self._model.logits(semantic, counts)
            fused = (softmax(sequence_logits) + softmax(count_logits)) / 2.0
            ranked = np.argsort(-fused, axis=1, kind="stable")[:, : self.top_g]
            for row, (target, position) in enumerate(zip(targets, positions)):
                checks += 1
                if target not in ranked[row]:
                    violations += 1
                    if len(reasons) < 5:
                        reasons.append(
                            f"unexpected event at position {position}: "
                            f"{session[position].template!r} not in "
                            f"top-{self.top_g}"
                        )
        score = violations / max(1, checks)
        return DetectionResult(
            anomalous=violations > 0,
            score=score,
            reasons=tuple(reasons),
        )
