"""Dense, embedding, dropout, and activation functions."""

from __future__ import annotations

import numpy as np

from repro.nn.network import Module, Parameter, glorot


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid via ``tanh``: one pass, no overflow at any ``x``."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


class Dense(Module):
    """Affine layer ``y = x W + b``.

    ``forward`` caches the input for ``backward``; one live cache per
    call site is enough for the sequential training loops used here.
    """

    def __init__(self, in_features: int, out_features: int, *, seed: int = 0):
        if in_features < 1 or out_features < 1:
            raise ValueError("Dense dimensions must be >= 1")
        rng = np.random.default_rng(seed)
        self.weight = Parameter("dense.weight", glorot(rng, in_features, out_features))
        self.bias = Parameter("dense.bias", np.zeros(out_features))
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input = x
        return x @ self.weight.value + self.bias.value

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        x = self._input
        # Collapse any leading batch/time axes for the weight gradient.
        flat_x = x.reshape(-1, x.shape[-1])
        flat_grad = grad_output.reshape(-1, grad_output.shape[-1])
        self.weight.grad += flat_x.T @ flat_grad
        self.bias.grad += flat_grad.sum(axis=0)
        return grad_output @ self.weight.value.T


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, vocabulary: int, dimension: int, *, seed: int = 0):
        if vocabulary < 1 or dimension < 1:
            raise ValueError("Embedding dimensions must be >= 1")
        rng = np.random.default_rng(seed)
        self.table = Parameter(
            "embedding.table", rng.normal(0.0, 0.1, size=(vocabulary, dimension))
        )
        self._ids: np.ndarray | None = None

    @property
    def vocabulary(self) -> int:
        return self.table.value.shape[0]

    def forward(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocabulary):
            raise IndexError(
                f"embedding ids out of range [0, {self.vocabulary}): "
                f"[{ids.min()}, {ids.max()}]"
            )
        self._ids = ids
        return self.table.value[ids]

    def backward(self, grad_output: np.ndarray) -> None:
        if self._ids is None:
            raise RuntimeError("backward called before forward")
        np.add.at(
            self.table.grad,
            self._ids.reshape(-1),
            grad_output.reshape(-1, grad_output.shape[-1]),
        )


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, rate: float = 0.1, *, seed: int = 0):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = np.random.default_rng(seed)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask
