"""Loss functions and dropout: values and gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Tensor, no_grad
from repro.autodiff import functional as F
from repro.errors import AutodiffError

from .test_autodiff_tensor import finite_diff


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        out = F.softmax(Tensor(rng.normal(size=(5, 3))), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5), rtol=1e-5)

    def test_stable_for_large_logits(self):
        out = F.softmax(Tensor(np.array([[1000.0, 1000.0]])), axis=1)
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = rng.normal(size=(4, 6))
        log_sm = F.log_softmax(Tensor(x), axis=1).data
        np.testing.assert_allclose(log_sm, np.log(F.softmax(Tensor(x), axis=1).data),
                                   atol=1e-6)


class TestCrossEntropy:
    def test_matches_manual(self, rng):
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        loss = F.cross_entropy(Tensor(logits), labels).item()
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(6), labels].mean()
        assert loss == pytest.approx(expected, rel=1e-5)

    def test_sum_reduction(self, rng):
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        mean = F.cross_entropy(Tensor(logits), labels, reduction="mean").item()
        total = F.cross_entropy(Tensor(logits), labels, reduction="sum").item()
        assert total == pytest.approx(6 * mean, rel=1e-5)

    def test_perfect_prediction_low_loss(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        loss = F.cross_entropy(Tensor(logits), np.array([0, 1])).item()
        assert loss < 1e-6

    def test_gradient(self, rng):
        logits = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        t = Tensor(logits.copy(), requires_grad=True, dtype=np.float64)
        F.cross_entropy(t, labels).backward()
        numeric = finite_diff(
            lambda arr: F.cross_entropy(Tensor(arr, dtype=np.float64), labels).item(),
            logits)
        np.testing.assert_allclose(t.grad, numeric, atol=1e-5)

    def test_rejects_bad_shapes(self):
        with pytest.raises(AutodiffError):
            F.cross_entropy(Tensor(np.zeros(3)), np.zeros(3, dtype=int))
        with pytest.raises(AutodiffError):
            F.cross_entropy(Tensor(np.zeros((3, 2))), np.zeros(4, dtype=int))
        with pytest.raises(AutodiffError):
            F.cross_entropy(Tensor(np.zeros((3, 2))), np.zeros(3, dtype=int),
                            reduction="median")


class TestBCEWithLogits:
    def test_matches_manual(self, rng):
        logits = rng.normal(size=(8,))
        targets = rng.integers(0, 2, size=8).astype(float)
        loss = F.binary_cross_entropy_with_logits(Tensor(logits), targets).item()
        p = 1.0 / (1.0 + np.exp(-logits))
        expected = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
        assert loss == pytest.approx(expected, rel=1e-4)

    def test_stable_at_extreme_logits(self):
        loss = F.binary_cross_entropy_with_logits(
            Tensor(np.array([1000.0, -1000.0])), np.array([1.0, 0.0])).item()
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_gradient(self, rng):
        logits = rng.normal(size=(6,))
        targets = rng.integers(0, 2, size=6).astype(float)
        t = Tensor(logits.copy(), requires_grad=True, dtype=np.float64)
        F.binary_cross_entropy_with_logits(t, targets).backward()
        numeric = finite_diff(
            lambda arr: F.binary_cross_entropy_with_logits(
                Tensor(arr, dtype=np.float64), targets).item(),
            logits)
        np.testing.assert_allclose(t.grad, numeric, atol=1e-5)


class TestMSE:
    def test_value(self, rng):
        pred = rng.normal(size=(4, 2))
        target = rng.normal(size=(4, 2))
        loss = F.mse_loss(Tensor(pred), target).item()
        assert loss == pytest.approx(((pred - target) ** 2).mean(), rel=1e-5)

    def test_gradient(self, rng):
        pred = rng.normal(size=(4, 2))
        target = rng.normal(size=(4, 2))
        t = Tensor(pred.copy(), requires_grad=True, dtype=np.float64)
        F.mse_loss(t, target).backward()
        np.testing.assert_allclose(t.grad, 2 * (pred - target) / pred.size, atol=1e-6)


class TestDropout:
    def test_noop_in_eval(self, rng):
        x = Tensor(rng.normal(size=(10, 10)))
        out = F.dropout(x, 0.5, training=False)
        assert out is x

    def test_noop_at_zero(self, rng):
        x = Tensor(rng.normal(size=(10, 10)))
        assert F.dropout(x, 0.0, training=True) is x

    def test_scale_preserves_expectation(self):
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, training=True, rng=np.random.default_rng(0))
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)
        # Surviving entries are scaled up by 1/(1-p).
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.7, rtol=1e-6)

    def test_invalid_probability(self, rng):
        x = Tensor(rng.normal(size=(3,)))
        with pytest.raises(AutodiffError):
            F.dropout(x, 1.0, training=True)
        with pytest.raises(AutodiffError):
            F.dropout(x, -0.1, training=True)

    def test_deterministic_with_rng(self, rng):
        x = Tensor(np.ones((20, 20)))
        a = F.dropout(x, 0.5, training=True, rng=np.random.default_rng(5)).data
        b = F.dropout(x, 0.5, training=True, rng=np.random.default_rng(5)).data
        np.testing.assert_array_equal(a, b)

    def test_noop_under_no_grad_draws_no_mask(self, rng):
        x = Tensor(rng.normal(size=(10, 10)))
        gen = np.random.default_rng(5)
        state = gen.bit_generator.state
        with no_grad():
            out = F.dropout(x, 0.5, training=True, rng=gen)
        assert out is x
        assert gen.bit_generator.state == state
