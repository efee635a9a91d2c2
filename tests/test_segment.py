"""Tests for segment (scatter/gather) operations, incl. hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, check_gradients
from repro.autograd.segment import (
    gather,
    segment_count,
    segment_mean,
    segment_softmax,
    segment_sum,
)


class TestGather:
    def test_forward(self):
        a = Tensor(np.arange(6.0).reshape(3, 2))
        out = gather(a, [2, 0])
        assert np.allclose(out.data, [[4.0, 5.0], [0.0, 1.0]])

    def test_backward_scatters(self):
        a = Tensor(np.zeros((3, 2)), requires_grad=True)
        out = gather(a, [1, 1, 2])
        out.sum().backward()
        assert np.allclose(a.grad, [[0, 0], [2, 2], [1, 1]])

    def test_gradcheck(self):
        a = Tensor(np.random.default_rng(0).normal(size=(4, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 3])
        weights = Tensor(np.arange(12.0).reshape(4, 3))
        from repro.autograd import ops

        check_gradients(lambda: ops.sum(ops.mul(gather(a, idx), weights)), [a])


class TestSegmentSum:
    def test_forward(self):
        v = Tensor(np.array([[1.0], [2.0], [3.0]]))
        out = segment_sum(v, [0, 0, 2], num_segments=3)
        assert np.allclose(out.data, [[3.0], [0.0], [3.0]])

    def test_empty_segment_is_zero(self):
        v = Tensor(np.ones((2, 4)))
        out = segment_sum(v, [1, 1], num_segments=3)
        assert np.allclose(out.data[0], 0.0)
        assert np.allclose(out.data[2], 0.0)

    def test_id_out_of_range_raises(self):
        with pytest.raises(ValueError):
            segment_sum(Tensor(np.ones((2, 1))), [0, 5], num_segments=3)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            segment_sum(Tensor(np.ones((2, 1))), [0], num_segments=3)

    def test_backward_is_gather(self):
        v = Tensor(np.ones((3, 2)), requires_grad=True)
        out = segment_sum(v, [0, 1, 0], num_segments=2)
        out.backward(np.array([[1.0, 2.0], [10.0, 20.0]]))
        assert np.allclose(v.grad, [[1, 2], [10, 20], [1, 2]])

    def test_gradcheck(self):
        v = Tensor(np.random.default_rng(1).normal(size=(5, 2)), requires_grad=True)
        seg = np.array([0, 1, 1, 3, 0])
        weights = Tensor(np.arange(8.0).reshape(4, 2))
        from repro.autograd import ops

        check_gradients(
            lambda: ops.sum(ops.mul(segment_sum(v, seg, 4), weights)), [v]
        )

    @given(
        n=st.integers(1, 30),
        num_segments=st.integers(1, 8),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_total_mass_preserved(self, n, num_segments, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n, 3))
        seg = rng.integers(num_segments, size=n)
        out = segment_sum(Tensor(values), seg, num_segments)
        assert np.allclose(out.data.sum(axis=0), values.sum(axis=0))


class TestSegmentMean:
    def test_forward(self):
        v = Tensor(np.array([[2.0], [4.0], [10.0]]))
        out = segment_mean(v, [0, 0, 1], num_segments=2)
        assert np.allclose(out.data, [[3.0], [10.0]])

    def test_empty_segments_zero(self):
        v = Tensor(np.ones((1, 2)))
        out = segment_mean(v, [2], num_segments=4)
        assert np.allclose(out.data[[0, 1, 3]], 0.0)


class TestSegmentSoftmax:
    def test_sums_to_one_per_segment(self):
        logits = Tensor(np.array([1.0, 2.0, 3.0, -1.0, 0.5]))
        seg = np.array([0, 0, 1, 1, 1])
        out = segment_softmax(logits, seg, 2)
        assert out.data[:2].sum() == pytest.approx(1.0)
        assert out.data[2:].sum() == pytest.approx(1.0)

    def test_single_element_segment_is_one(self):
        out = segment_softmax(Tensor(np.array([42.0])), [0], 1)
        assert out.data == pytest.approx([1.0])

    def test_matches_dense_softmax(self):
        logits = np.array([1.0, 2.0, 3.0])
        out = segment_softmax(Tensor(logits), [0, 0, 0], 1)
        dense = np.exp(logits) / np.exp(logits).sum()
        assert np.allclose(out.data, dense)

    def test_requires_1d(self):
        with pytest.raises(ValueError):
            segment_softmax(Tensor(np.ones((2, 2))), [0, 1], 2)

    def test_numerical_stability_large_logits(self):
        logits = Tensor(np.array([1000.0, 1000.0]))
        out = segment_softmax(logits, [0, 0], 1)
        assert np.allclose(out.data, 0.5)

    def test_gradcheck(self):
        logits = Tensor(
            np.random.default_rng(2).normal(size=7), requires_grad=True
        )
        seg = np.array([0, 0, 1, 1, 1, 2, 2])
        weights = Tensor(np.arange(7.0))
        from repro.autograd import ops

        check_gradients(
            lambda: ops.sum(ops.mul(segment_softmax(logits, seg, 3), weights)),
            [logits],
        )

    @given(
        n=st.integers(1, 20),
        num_segments=st.integers(1, 5),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_probabilities(self, n, num_segments, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=n) * 5
        seg = rng.integers(num_segments, size=n)
        out = segment_softmax(Tensor(logits), seg, num_segments).data
        assert (out >= 0).all() and (out <= 1).all()
        for s in np.unique(seg):
            assert out[seg == s].sum() == pytest.approx(1.0)


@pytest.mark.parametrize(
    "op", [segment_sum, segment_mean, segment_softmax], ids=lambda op: op.__name__
)
def test_segment_id_beyond_num_segments_raises_value_error(op):
    with pytest.raises(ValueError, match="segment id exceeds num_segments"):
        op(Tensor(np.ones(3)), [0, 1, 5], 2)


class TestSegmentCount:
    def test_counts(self):
        assert segment_count([0, 0, 2], 4).tolist() == [2, 0, 1, 0]
