"""Unit tests for nn layers, losses and optimizers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import (
    Adam,
    Dense,
    Dropout,
    Embedding,
    Lstm,
    Sgd,
    load_module,
    mse_loss,
    save_module,
    sigmoid,
    softmax,
    softmax_cross_entropy,
)
from repro.nn.losses import binary_cross_entropy_with_logits
from repro.nn.network import Module, Parameter


class TestActivations:
    def test_sigmoid_range_and_stability(self):
        x = np.array([-1000.0, -1.0, 0.0, 1.0, 1000.0])
        y = sigmoid(x)
        assert np.all((y >= 0) & (y <= 1))
        assert y[2] == pytest.approx(0.5)
        assert np.isfinite(y).all()

    @staticmethod
    def _two_branch_sigmoid(x):
        """The exp-based reference: each sign on its overflow-free branch."""
        out = np.empty_like(x)
        positive = x >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
        exp_x = np.exp(x[~positive])
        out[~positive] = exp_x / (1.0 + exp_x)
        return out

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.integers(1, 64),
                  elements=st.floats(-1e3, 1e3, allow_nan=False)))
    def test_sigmoid_matches_exp_formula(self, x):
        gap = np.abs(sigmoid(x) - self._two_branch_sigmoid(x))
        assert gap.max() <= 1e-15

    def test_sigmoid_extremes(self):
        x = np.array([-1e308, -1e3, -745.0, -709.0, -37.0, -1e-300, 0.0,
                      1e-300, 37.0, 709.0, 745.0, 1e3, 1e308])
        with np.errstate(over="ignore", under="ignore"):
            reference = self._two_branch_sigmoid(x)
        assert np.abs(sigmoid(x) - reference).max() <= 1e-15
        assert sigmoid(np.zeros(3)).tolist() == [0.5, 0.5, 0.5]
        with np.errstate(all="raise"):
            assert sigmoid(np.array([-1e3, 1e3])).tolist() == [0.0, 1.0]

    def test_softmax_rows_sum_to_one(self):
        logits = np.array([[1.0, 2.0, 3.0], [1000.0, 1000.0, 1000.0]])
        probabilities = softmax(logits)
        assert probabilities.sum(axis=1) == pytest.approx([1.0, 1.0])
        assert np.isfinite(probabilities).all()


class TestDense:
    def test_forward_shape(self):
        layer = Dense(4, 3)
        assert layer.forward(np.ones((5, 4))).shape == (5, 3)

    def test_backward_before_forward_raises(self):
        layer = Dense(2, 2)
        with pytest.raises(RuntimeError, match="forward"):
            layer.backward(np.ones((1, 2)))

    def test_handles_time_axes(self):
        layer = Dense(4, 3)
        out = layer.forward(np.ones((2, 7, 4)))
        assert out.shape == (2, 7, 3)
        grad = layer.backward(np.ones((2, 7, 3)))
        assert grad.shape == (2, 7, 4)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            Dense(0, 3)


class TestEmbedding:
    def test_lookup_shape(self):
        layer = Embedding(10, 6)
        out = layer.forward(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 6)

    def test_out_of_range_ids_rejected(self):
        layer = Embedding(5, 3)
        with pytest.raises(IndexError, match="out of range"):
            layer.forward(np.array([5]))

    def test_gradient_accumulates_per_id(self):
        layer = Embedding(4, 2)
        layer.forward(np.array([1, 1, 2]))
        layer.backward(np.ones((3, 2)))
        assert layer.table.grad[1] == pytest.approx([2.0, 2.0])
        assert layer.table.grad[2] == pytest.approx([1.0, 1.0])
        assert layer.table.grad[0] == pytest.approx([0.0, 0.0])


class TestDropout:
    def test_eval_mode_is_identity(self):
        layer = Dropout(0.5)
        layer.train_mode(False)
        x = np.ones((4, 4))
        assert np.array_equal(layer.forward(x), x)

    def test_train_mode_scales_kept_units(self):
        layer = Dropout(0.5, seed=0)
        layer.train_mode(True)
        out = layer.forward(np.ones((1000,)))
        kept = out[out > 0]
        assert kept == pytest.approx(np.full(kept.shape, 2.0))
        assert 0.3 < len(kept) / 1000 < 0.7

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="rate"):
            Dropout(1.0)


class TestLosses:
    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, grad, probabilities = softmax_cross_entropy(
            logits, np.array([0, 1])
        )
        assert loss == pytest.approx(0.0, abs=1e-6)
        assert np.abs(grad).max() < 1e-6

    def test_cross_entropy_gradient_direction(self):
        logits = np.zeros((1, 3))
        _, grad, _ = softmax_cross_entropy(logits, np.array([1]))
        assert grad[0, 1] < 0  # push the true class up
        assert grad[0, 0] > 0 and grad[0, 2] > 0

    def test_cross_entropy_shape_validation(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros(3), np.array([0]))

    def test_bce_matches_manual(self):
        logits = np.array([0.0])
        loss, _, probabilities = binary_cross_entropy_with_logits(
            logits, np.array([1.0])
        )
        assert loss == pytest.approx(np.log(2.0))
        assert probabilities[0] == pytest.approx(0.5)

    def test_bce_extreme_logits_stable(self):
        loss, grad, _ = binary_cross_entropy_with_logits(
            np.array([1000.0, -1000.0]), np.array([1.0, 0.0])
        )
        assert np.isfinite(loss)
        assert np.isfinite(grad).all()

    def test_mse(self):
        loss, grad = mse_loss(np.array([2.0, 0.0]), np.array([0.0, 0.0]))
        assert loss == pytest.approx(2.0)
        assert grad == pytest.approx([2.0, 0.0])


class _Quadratic(Module):
    """Toy model: minimize ||w - target||^2."""

    def __init__(self, start: np.ndarray):
        self.w = Parameter("w", start.copy())


@pytest.mark.parametrize("optimizer_factory", [
    lambda: Sgd(learning_rate=0.1, momentum=0.0),
    lambda: Sgd(learning_rate=0.05, momentum=0.9),
    lambda: Adam(learning_rate=0.2),
])
class TestOptimizers:
    def test_converges_on_quadratic(self, optimizer_factory):
        target = np.array([3.0, -2.0])
        model = _Quadratic(np.zeros(2))
        optimizer = optimizer_factory()
        for _ in range(200):
            model.zero_grad()
            model.w.grad += 2.0 * (model.w.value - target)
            optimizer.step(model.parameters())
        assert model.w.value == pytest.approx(target, abs=1e-2)


class TestGradientClipping:
    def test_clip_scales_down(self):
        from repro.nn.optim import clip_gradients

        parameter = Parameter("p", np.zeros(4))
        parameter.grad += np.full(4, 10.0)
        norm = clip_gradients([parameter], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(parameter.grad) == pytest.approx(1.0)

    def test_no_clip_below_threshold(self):
        from repro.nn.optim import clip_gradients

        parameter = Parameter("p", np.zeros(2))
        parameter.grad += np.array([0.3, 0.4])
        clip_gradients([parameter], max_norm=1.0)
        assert parameter.grad == pytest.approx([0.3, 0.4])


class TestSerialization:
    def test_save_load_roundtrip(self, tmp_path):
        source = Dense(3, 2, seed=1)
        target = Dense(3, 2, seed=2)
        path = tmp_path / "dense.npz"
        save_module(source, path)
        load_module(target, path)
        assert np.array_equal(source.weight.value, target.weight.value)
        assert np.array_equal(source.bias.value, target.bias.value)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        save_module(Dense(3, 2), path)
        with pytest.raises(ValueError, match="shape mismatch"):
            load_module(Dense(3, 4), path)

    def test_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        save_module(Dense(3, 2), path)
        with pytest.raises(ValueError, match="parameters"):
            load_module(Lstm(3, 2), path)


class TestModuleDiscovery:
    def test_nested_parameters_found_once(self):
        class Wrapper(Module):
            def __init__(self):
                self.inner = Dense(2, 2)
                self.alias = self.inner  # same module referenced twice
                self.stack = [Dense(2, 2, seed=5)]
                self.by_name = {"e": Embedding(3, 2)}

        wrapper = Wrapper()
        parameters = wrapper.parameters()
        assert len(parameters) == 2 + 2 + 1  # dense(w,b) x2 + embedding

    def test_train_mode_propagates(self):
        class Wrapper(Module):
            def __init__(self):
                self.dropout = Dropout(0.5)

        wrapper = Wrapper()
        wrapper.train_mode(False)
        assert wrapper.dropout.training is False
