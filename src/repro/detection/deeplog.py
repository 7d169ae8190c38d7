"""DeepLog (Du et al., CCS'17).

Two LSTM models, as the paper (§III) describes:

* **Sequential model** — an LSTM over windows of template *indices*
  trained to predict the next template; a session is sequentially
  anomalous when some actual next template is not among the model's
  top-``g`` predictions.  The fixed index vocabulary is DeepLog's
  closed-world assumption the paper criticizes: templates unseen at
  training time cannot be predicted and are counted as violations.
* **Quantitative (parameter value) model** — per template, an LSTM
  regressor over the series of numeric variable vectors; a value whose
  prediction error falls outside the training-error confidence
  interval is a quantitative anomaly (Table I's L3).  Templates with
  too few observations fall back to a Gaussian range check, which is
  what the original does implicitly by refusing to model them.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.api.registry import register_component
from repro.detection.base import (
    DetectionResult,
    Detector,
    Session,
    numeric_variables,
    template_sequence,
)
from repro.nn.layers import Dense, Embedding
from repro.nn.losses import softmax_cross_entropy, mse_loss
from repro.nn.lstm import Lstm
from repro.nn.network import Module, Trainer
from repro.nn.optim import Adam

#: Rows per LSTM forward pass at detection time.  Misses are padded with
#: the all-pad history to whole blocks of this shape, because BLAS sums
#: in a shape-dependent order: a row's logits differ in the last bits
#: with the number of rows sharing its matmul, and a fixed shape makes
#: each history's ranking a function of (fitted weights, history) alone.
_BLOCK = 16

#: Most distinct histories the top-g memo holds before it is cleared.
_MEMO_CAP = 1 << 14


class _SequenceModel(Module):
    """Embedding → LSTM → Dense next-template classifier."""

    def __init__(self, vocabulary: int, embedding_dim: int, hidden: int,
                 *, seed: int):
        self.embedding = Embedding(vocabulary, embedding_dim, seed=seed)
        self.lstm = Lstm(embedding_dim, hidden, seed=seed + 1)
        self.head = Dense(hidden, vocabulary, seed=seed + 2)

    def logits(self, windows: np.ndarray) -> np.ndarray:
        embedded = self.embedding.forward(windows)
        final_hidden = self.lstm.last_hidden(embedded)
        return self.head.forward(final_hidden)

    def backward(self, grad_logits: np.ndarray) -> None:
        grad_hidden = self.head.backward(grad_logits)
        grad_embedded = self.lstm.backward_last(grad_hidden)
        self.embedding.backward(grad_embedded)


class _ValueModel(Module):
    """Per-template value regressor: LSTM over numeric variable vectors."""

    def __init__(self, dimension: int, window: int, hidden: int, *, seed: int):
        self.dimension = dimension
        self.window = window
        self.lstm = Lstm(dimension, hidden, seed=seed)
        self.head = Dense(hidden, dimension, seed=seed + 1)
        self.mean = np.zeros(dimension)
        self.std = np.ones(dimension)
        self.error_mean = 0.0
        self.error_std = 1.0

    def _normalize(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std

    def predict(self, window_values: np.ndarray) -> np.ndarray:
        hidden = self.lstm.last_hidden(window_values[None, :, :])
        return self.head.forward(hidden)[0]

    def fit_series(self, series: np.ndarray, *, epochs: int, seed: int) -> None:
        """Train on one template's chronological value matrix."""
        self.mean = series.mean(axis=0)
        std = series.std(axis=0)
        self.std = np.where(std > 0, std, 1.0)
        normalized = self._normalize(series)
        windows = []
        targets = []
        for end in range(self.window, len(normalized)):
            windows.append(normalized[end - self.window:end])
            targets.append(normalized[end])
        if not windows:
            return
        x = np.stack(windows)
        y = np.stack(targets)

        def loss_fn(x_batch: np.ndarray, y_batch: np.ndarray):
            hidden = self.lstm.last_hidden(x_batch)
            predictions = self.head.forward(hidden)
            loss, grad = mse_loss(predictions, y_batch)
            grad_hidden = self.head.backward(grad)
            self.lstm.backward_last(grad_hidden)
            return loss, None

        trainer = Trainer(
            self, Adam(learning_rate=0.01), batch_size=32, epochs=epochs,
            seed=seed,
        )
        trainer.fit(x, y, loss_fn)
        # Training-error statistics drive the detection interval.
        errors = []
        for window_values, target in zip(x, y):
            prediction = self.predict(window_values)
            errors.append(float(((prediction - target) ** 2).mean()))
        if errors:
            self.error_mean = float(np.mean(errors))
            self.error_std = float(np.std(errors)) or 1.0

    def is_anomalous(
        self, history: np.ndarray, value: np.ndarray, sigmas: float
    ) -> bool:
        normalized_history = self._normalize(history)
        normalized_value = self._normalize(value)
        prediction = self.predict(normalized_history[-self.window:])
        error = float(((prediction - normalized_value) ** 2).mean())
        return error > self.error_mean + sigmas * self.error_std

    def gaussian_anomalous(self, value: np.ndarray, sigmas: float) -> bool:
        """Range check used when the in-session history is too short.

        A deployed DeepLog keeps a global per-template history across
        sessions; per-session evaluation starts cold, so early values
        are screened against the training distribution instead.
        """
        deviation = np.abs(self._normalize(value))
        return bool((deviation > sigmas).any())


class _GaussianValueModel:
    """Fallback for rarely-seen templates: per-dimension range check."""

    def __init__(self, series: np.ndarray, sigmas: float):
        self.mean = series.mean(axis=0)
        std = series.std(axis=0)
        self.std = np.where(std > 0, std, np.abs(self.mean) * 0.1 + 1.0)
        self.sigmas = sigmas

    def is_anomalous(self, value: np.ndarray) -> bool:
        deviation = np.abs(value - self.mean) / self.std
        return bool((deviation > self.sigmas).any())


@register_component("detector", "deeplog")
class DeepLogDetector(Detector):
    """The two-headed DeepLog detector.

    Args:
        window: sequential history length ``h`` (original default 10).
        top_g: a next template is normal if within the top-``g``
            predictions (original default 9).
        hidden: LSTM hidden size.
        embedding_dim: template embedding size.
        value_window: history length of the parameter-value model.
        value_sigmas: confidence width of the value-error interval.
        min_value_observations: below this, a template's value model
            falls back to the Gaussian range check.
        quantitative: enable the parameter-value head (ablation knob
            for the Table I bench).
        epochs / seed: training controls.
    """

    name = "deeplog"
    supervised = False

    def __init__(
        self,
        window: int = 10,
        top_g: int = 3,
        hidden: int = 32,
        embedding_dim: int = 16,
        value_window: int = 3,
        value_sigmas: float = 6.0,
        min_value_observations: int = 40,
        quantitative: bool = True,
        epochs: int = 10,
        seed: int = 0,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if top_g < 1:
            raise ValueError(f"top_g must be >= 1, got {top_g}")
        self.window = window
        self.top_g = top_g
        self.hidden = hidden
        self.embedding_dim = embedding_dim
        self.value_window = value_window
        self.value_sigmas = value_sigmas
        self.min_value_observations = min_value_observations
        self.quantitative = quantitative
        self.epochs = epochs
        self.seed = seed
        self._index_of: dict[int, int] | None = None
        self._model: _SequenceModel | None = None
        self._value_models: dict[int, _ValueModel | _GaussianValueModel] = {}
        self._pad_index = 0
        # History -> top-g template indices; valid for the fitted weights.
        self._top_g_memo: dict[tuple[int, ...], tuple[int, ...]] = {}

    # -- pickling (process-pool payloads, deep copies) ---------------------

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_top_g_memo"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._top_g_memo = {}

    # -- featurization -------------------------------------------------------

    def _indices(self, session: Session) -> list[int]:
        assert self._index_of is not None
        unknown = len(self._index_of) + 1  # pad=0, templates=1.., unk=last
        return [
            self._index_of.get(template_id, unknown)
            for template_id in template_sequence(session)
        ]

    def _pairs(
        self, indices: list[int]
    ) -> tuple[list[tuple[int, ...]], list[int]]:
        """All (history, next) pairs, histories left-padded with 0."""
        padded = [self._pad_index] * self.window + indices
        histories = [
            tuple(padded[position:position + self.window])
            for position in range(1, len(indices))
        ]
        return histories, indices[1:]

    def _windows(self, indices: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_pairs` as ``(N, window)`` and ``(N,)`` index arrays."""
        histories, nexts = self._pairs(indices)
        if not histories:
            return np.zeros((0, self.window), dtype=int), np.zeros(0, dtype=int)
        return np.asarray(histories, dtype=int), np.asarray(nexts, dtype=int)

    # -- training -------------------------------------------------------------

    def fit(
        self, sessions: list[Session], labels: list[bool] | None = None
    ) -> "DeepLogDetector":
        vocabulary: dict[int, int] = {}
        for session in sessions:
            for template_id in template_sequence(session):
                if template_id not in vocabulary:
                    vocabulary[template_id] = len(vocabulary) + 1
        if not vocabulary:
            raise ValueError("DeepLogDetector needs non-empty training sessions")
        self._index_of = vocabulary
        self._top_g_memo.clear()
        model_vocabulary = len(vocabulary) + 2  # pad + templates + unk
        self._model = _SequenceModel(
            model_vocabulary, self.embedding_dim, self.hidden, seed=self.seed
        )

        all_histories = []
        all_nexts = []
        for session in sessions:
            histories, nexts = self._windows(self._indices(session))
            if len(histories):
                all_histories.append(histories)
                all_nexts.append(nexts)
        x = np.concatenate(all_histories) if all_histories else np.zeros((0, self.window), dtype=int)
        y = np.concatenate(all_nexts) if all_nexts else np.zeros(0, dtype=int)

        model = self._model

        def loss_fn(x_batch: np.ndarray, y_batch: np.ndarray):
            logits = model.logits(x_batch)
            loss, grad, probabilities = softmax_cross_entropy(logits, y_batch)
            model.backward(grad)
            correct = int((probabilities.argmax(axis=1) == y_batch).sum())
            return loss, correct

        trainer = Trainer(
            model, Adam(learning_rate=0.005), batch_size=64,
            epochs=self.epochs, seed=self.seed,
        )
        trainer.fit(x, y, loss_fn)

        if self.quantitative:
            self._fit_value_models(sessions)
        return self

    def _fit_value_models(self, sessions: list[Session]) -> None:
        series_per_template: dict[int, list[list[float]]] = {}
        for session in sessions:
            for event in session:
                values = numeric_variables(event)
                if values:
                    series_per_template.setdefault(event.template_id, []).append(
                        values
                    )
        for template_id, rows in series_per_template.items():
            dimension = min(len(row) for row in rows)
            matrix = np.asarray([row[:dimension] for row in rows])
            if len(rows) >= self.min_value_observations:
                model = _ValueModel(
                    dimension, self.value_window, hidden=8,
                    seed=self.seed + template_id,
                )
                model.fit_series(matrix, epochs=5, seed=self.seed)
                self._value_models[template_id] = model
            else:
                self._value_models[template_id] = _GaussianValueModel(
                    matrix, self.value_sigmas
                )

    # -- detection --------------------------------------------------------------

    def detect(self, session: Session) -> DetectionResult:
        self._require_fitted("_model")
        assert self._model is not None and self._index_of is not None
        histories, nexts = self._pairs(self._indices(session))
        reasons: list[str] = []
        violations = 0
        checks = 0

        if histories:
            unknown = len(self._index_of) + 1
            ranked = self._ranked(histories)
            for position, actual in enumerate(nexts):
                checks += 1
                if actual == unknown or actual not in ranked[position]:
                    violations += 1
                    if len(reasons) < 5:
                        event = session[position + 1]
                        reasons.append(
                            f"unexpected event at position {position + 1}: "
                            f"{event.template!r} not in top-{self.top_g}"
                        )

        quantitative_hits = 0
        if self.quantitative:
            quantitative_hits = self._detect_values(session, reasons)

        total_violations = violations + quantitative_hits
        score = total_violations / max(1, checks + len(session))
        return DetectionResult(
            anomalous=total_violations > 0,
            score=score,
            # The same violation reads the same in every session that
            # has it, and alerts outlive detection: share the text.
            reasons=tuple(sys.intern(reason) for reason in reasons),
        )

    def _ranked(
        self, histories: list[tuple[int, ...]]
    ) -> list[tuple[int, ...]]:
        """Top-g template indices per history, best first.

        Served from the memo; the distinct misses run through the model
        in sorted order, padded to whole :data:`_BLOCK`-row blocks.
        Ranking is on logits (softmax is monotone) with ties going to
        the lower index.
        """
        assert self._model is not None
        memo = self._top_g_memo
        known = {history: memo[history] for history in histories
                 if history in memo}
        misses = sorted(set(histories).difference(known))
        padding = [(self._pad_index,) * self.window] * (-len(misses) % _BLOCK)
        rows = np.asarray(misses + padding, dtype=int)
        for start in range(0, len(misses), _BLOCK):
            logits = self._model.logits(rows[start:start + _BLOCK])
            top = np.argsort(-logits, axis=1, kind="stable")[:, :self.top_g]
            for history, ranking in zip(misses[start:start + _BLOCK],
                                        top.tolist()):
                if len(memo) >= _MEMO_CAP:
                    memo.clear()
                known[history] = memo[history] = tuple(ranking)
        return [known[history] for history in histories]

    def _detect_values(self, session: Session, reasons: list[str]) -> int:
        hits = 0
        history_per_template: dict[int, list[list[float]]] = {}
        for event in session:
            values = numeric_variables(event)
            if not values:
                continue
            model = self._value_models.get(event.template_id)
            if model is None:
                continue
            if isinstance(model, _GaussianValueModel):
                dimension = model.mean.shape[0]
                if model.is_anomalous(np.asarray(values[:dimension])):
                    hits += 1
                    if len(reasons) < 5:
                        reasons.append(
                            f"abnormal values {values} for {event.template!r}"
                        )
                continue
            dimension = model.dimension
            history = history_per_template.setdefault(event.template_id, [])
            value = np.asarray(values[:dimension])
            if len(history) >= model.window:
                flagged = model.is_anomalous(
                    np.asarray(history), value, self.value_sigmas
                )
            else:
                flagged = model.gaussian_anomalous(value, self.value_sigmas)
            if flagged:
                hits += 1
                if len(reasons) < 5:
                    reasons.append(
                        f"abnormal values {values} for {event.template!r}"
                    )
            history.append(values[:dimension])
        return hits
