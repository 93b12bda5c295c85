"""Gradient demand: the backward computes only the gradients someone reads.

Two engine invariants are checked here:

- a backward closure returns ``None`` for every parent whose
  ``requires_grad`` is false, both op by op (a hypothesis property whose
  surviving gradients must be bit-identical to an all-requires-grad run)
  and across one full-batch and one mini-batch step of every filter;
- gradients may be read-only broadcast views but never reach a leaf's
  ``.grad`` as one, and the constant-operand backward of
  ``(batch * w).sum(axis=1)`` materializes about one ``batch``-sized
  array instead of three.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from repro.autodiff import Tensor, concatenate, stack, where
from repro.datasets import synthesize
from repro.filters import FILTER_NAMES
from repro.tasks import run_node_classification
from repro.training import TrainConfig


@pytest.fixture
def backward_spy(monkeypatch):
    """Wrap every recorded ``_backward``; collect grads for constant parents."""
    make = Tensor._make
    calls: list = []
    violations: list = []

    def spy_make(data, parents, backward, op):
        parents = tuple(parents)

        def spied(grad):
            out = backward(grad)
            grads = out if isinstance(out, tuple) else (out,)
            calls.append(op)
            for index, (parent, pgrad) in enumerate(zip(parents, grads)):
                if pgrad is not None and not parent.requires_grad:
                    violations.append((op, index, np.shape(pgrad)))
            return out

        return make(data, parents, spied, op)

    monkeypatch.setattr(Tensor, "_make", staticmethod(spy_make))
    return calls, violations


@pytest.mark.parametrize("scheme", ["full_batch", "mini_batch"])
@pytest.mark.parametrize("name", FILTER_NAMES)
def test_no_gradient_built_for_constant_parents(backward_spy, name, scheme):
    calls, violations = backward_spy
    graph = synthesize("cora", scale=0.05, seed=3)
    config = TrainConfig(epochs=1, patience=1, hidden=8)
    result = run_node_classification(graph, name, scheme=scheme,
                                     config=config, num_hops=3)
    assert result.status == "ok"
    assert calls, "the training step recorded no backward"
    assert violations == []


def _grads(build, arrays, mask, seed, via_sum):
    leaves = [Tensor(a, requires_grad=bool(m)) for a, m in zip(arrays, mask)]
    out = build(leaves)
    if via_sum:
        out.sum().backward()
    else:
        out.backward(seed(out.shape))
    return [leaf.grad for leaf in leaves]


def _array(shape):
    return st.builds(
        lambda seed: np.random.default_rng(seed).uniform(0.5, 2.0, size=shape)
        * np.random.default_rng(seed + 1).choice([-1.0, 1.0], size=shape),
        st.integers(0, 2**16),
    )


_BINARY_OPS = {
    "add": lambda t: t[0] + t[1],
    "sub": lambda t: t[0] - t[1],
    "mul": lambda t: t[0] * t[1],
    "div": lambda t: t[0] / t[1],
}


@st.composite
def _case(draw):
    kind = draw(st.sampled_from(sorted(_BINARY_OPS) + ["where", "concat", "stack"]))
    if kind in _BINARY_OPS:
        shapes = draw(mutually_broadcastable_shapes(
            num_shapes=2, min_dims=0, max_dims=3, max_side=4)).input_shapes
        build = _BINARY_OPS[kind]
    elif kind == "where":
        cond_shape, *shapes = draw(mutually_broadcastable_shapes(
            num_shapes=3, min_dims=0, max_dims=3, max_side=4)).input_shapes
        cond = draw(st.builds(
            lambda seed: np.random.default_rng(seed).random(cond_shape) < 0.5,
            st.integers(0, 2**16)))
        build = lambda t: where(cond, t[0], t[1])  # noqa: E731
    else:
        count = draw(st.integers(1, 4))
        ndim = draw(st.integers(1, 3))
        base = draw(st.lists(st.integers(1, 4), min_size=ndim, max_size=ndim))
        axis = draw(st.integers(0, ndim - 1))
        if kind == "concat":
            sizes = draw(st.lists(st.integers(1, 3), min_size=count, max_size=count))
            shapes = [tuple(base[:axis] + [k] + base[axis + 1:]) for k in sizes]
            build = lambda t: concatenate(t, axis=axis)  # noqa: E731
        else:
            shapes = [tuple(base)] * count
            build = lambda t: stack(t, axis=axis)  # noqa: E731
    arrays = [draw(_array(s)) for s in shapes]
    mask = draw(st.lists(st.booleans(), min_size=len(arrays),
                         max_size=len(arrays)).filter(any))
    return build, arrays, mask


@settings(max_examples=300, deadline=None)
@given(case=_case(), seed_value=st.integers(0, 2**16), via_sum=st.booleans())
def test_property_pruned_grads_bit_identical(case, seed_value, via_sum):
    build, arrays, mask = case

    def seed(shape):
        return np.random.default_rng(seed_value).normal(size=shape)

    pruned = _grads(build, arrays, mask, seed, via_sum)
    full = _grads(build, arrays, [True] * len(arrays), seed, via_sum)
    for wanted, got, reference in zip(mask, pruned, full):
        if not wanted:
            assert got is None
            continue
        assert got.shape == reference.shape and got.dtype == reference.dtype
        assert got.tobytes() == reference.tobytes()


def test_constant_batch_combine_backward_allocates_one_batch():
    """``(x * w).sum(axis=1)`` with constant ``x``: only ``grad * x`` is built."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(512, 8, 64)).astype(np.float32))
    w = Tensor(rng.normal(size=(1, 8, 1)).astype(np.float32), requires_grad=True)
    out = (x * w).sum(axis=1)
    seed = np.ones(out.shape, dtype=np.float32)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        out.backward(seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.grad is not None and x.grad is None
    assert peak - base < 1.5 * x.data.nbytes


@pytest.mark.parametrize("reduce", [
    lambda t: t.sum(),
    lambda t: t.sum(axis=1),
    lambda t: t.sum(axis=0, keepdims=True).sum(),
    lambda t: t.mean(),
    lambda t: t.mean(axis=0),
    lambda t: t.sum() + t.mean(),
])
def test_leaf_grad_is_writeable_and_owns_its_data(reduce):
    leaf = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    out = reduce(leaf)
    out.backward(np.ones(out.shape))
    assert leaf.grad.shape == leaf.shape
    assert leaf.grad.flags.writeable
    assert leaf.grad.flags.owndata
    leaf.grad[0, 0] += 1.0  # must not raise or alias another array
