"""Fast sort-based kernels vs the legacy ``np.add.at`` oracles.

The fast segment kernels (``np.add.reduceat``/``bincount`` over sorted
runs) must be equivalent to the legacy scatter kernels under float64 on
arbitrary ragged inputs — empty segments, single-element groups, empty
inputs.  The 1-D ``bincount`` reductions (softmax normalisers) accumulate
in exactly the same order as ``np.add.at`` and are compared **bitwise**;
the 2-D ``reduceat`` reductions may re-associate a segment's additions
(SIMD/pairwise summation inside numpy), so they are held to a
few-ULP tolerance instead.  ``typed_matmul`` is compared against its
per-type mask/matmul/concat reference, and the relational message passing
layer is compared end-to-end against itself with every kernel swapped for
its oracle (the aggregation order over destinations legitimately differs).
The oracles live in ``tests/oracles/kernels.py``.
"""

#: A-few-ULPs float64 tolerance for re-associated sums.
ULP = {"rtol": 1e-12, "atol": 1e-12}

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.kernels import (
    legacy_gather,
    legacy_segment_max_constant,
    legacy_segment_softmax,
    legacy_segment_sum,
    legacy_typed_matmul,
)
from repro.autograd import Tensor, check_gradients, ops
from repro.autograd.segment import (
    gather,
    segment_max_constant,
    segment_softmax,
    segment_sum,
)
from repro.core.layers import RelationalMessagePassingLayer
from repro.subgraph.linegraph import NUM_EDGE_TYPES


def use_oracle_kernels(monkeypatch):
    """Route the message passing layer through the oracle kernels: the
    ``np.add.at`` gather / segment sum / segment softmax and the per-type
    matmul loop."""
    monkeypatch.setattr("repro.core.layers.gather", legacy_gather)
    monkeypatch.setattr("repro.core.layers.segment_sum", legacy_segment_sum)
    monkeypatch.setattr("repro.core.layers.segment_softmax", legacy_segment_softmax)
    monkeypatch.setattr("repro.core.layers.ops.typed_matmul", legacy_typed_matmul)


def ragged(seed, n, num_segments, cols=3):
    """Random ragged input: values, ids (possibly leaving segments empty)."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, cols))
    ids = rng.integers(num_segments, size=n)
    return values, ids


class TestSegmentSumEquivalence:
    @given(
        n=st.integers(0, 60),
        num_segments=st.integers(1, 12),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_forward_exact(self, n, num_segments, seed):
        values, ids = ragged(seed, n, num_segments)
        fast = segment_sum(Tensor(values), ids, num_segments)
        legacy = legacy_segment_sum(Tensor(values), ids, num_segments)
        np.testing.assert_allclose(fast.data, legacy.data, **ULP)

    @given(
        n=st.integers(1, 40),
        num_segments=st.integers(1, 8),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_backward_exact(self, n, num_segments, seed):
        values, ids = ragged(seed, n, num_segments)
        upstream = np.random.default_rng(seed + 1).normal(size=(num_segments, 3))
        fast_in = Tensor(values, requires_grad=True)
        segment_sum(fast_in, ids, num_segments).backward(upstream)
        legacy_in = Tensor(values, requires_grad=True)
        legacy_segment_sum(legacy_in, ids, num_segments).backward(upstream)
        np.testing.assert_array_equal(fast_in.grad, legacy_in.grad)

    def test_empty_input(self):
        out = segment_sum(Tensor(np.zeros((0, 4))), np.zeros(0, dtype=np.int64), 3)
        assert out.shape == (3, 4)
        assert np.all(out.data == 0.0)

    def test_single_element_groups(self):
        values = np.arange(12.0).reshape(4, 3)
        out = segment_sum(Tensor(values), [3, 1, 0, 2], 4)
        np.testing.assert_array_equal(out.data, values[[2, 1, 3, 0]])

    def test_output_dtype_follows_input(self):
        v32 = Tensor(np.ones((3, 2), dtype=np.float32))
        assert segment_sum(v32, [0, 1, 1], 2).data.dtype == np.float32
        v64 = Tensor(np.ones((3, 2), dtype=np.float64))
        assert segment_sum(v64, [0, 1, 1], 2).data.dtype == np.float64


class TestGatherEquivalence:
    @given(
        rows=st.integers(1, 20),
        n=st.integers(0, 50),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_backward_exact(self, rows, n, seed):
        rng = np.random.default_rng(seed)
        table = rng.normal(size=(rows, 4))
        index = rng.integers(rows, size=n)
        upstream = rng.normal(size=(n, 4))
        fast_in = Tensor(table, requires_grad=True)
        gather(fast_in, index).backward(upstream)
        legacy_in = Tensor(table, requires_grad=True)
        legacy_gather(legacy_in, index).backward(upstream)
        fast_grad = fast_in.grad if fast_in.grad is not None else 0.0
        legacy_grad = legacy_in.grad if legacy_in.grad is not None else 0.0
        np.testing.assert_allclose(fast_grad, legacy_grad, **ULP)

    def test_negative_index_falls_back_consistently(self):
        table = np.arange(8.0).reshape(4, 2)
        fast_in = Tensor(table, requires_grad=True)
        gather(fast_in, [-1, 0, -1]).sum().backward()
        legacy_in = Tensor(table, requires_grad=True)
        legacy_gather(legacy_in, [-1, 0, -1]).sum().backward()
        np.testing.assert_array_equal(fast_in.grad, legacy_in.grad)


class TestSegmentSoftmaxEquivalence:
    @given(
        n=st.integers(1, 50),
        num_segments=st.integers(1, 10),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_forward_and_backward_exact(self, n, num_segments, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=n) * 10.0
        ids = rng.integers(num_segments, size=n)
        upstream = rng.normal(size=n)
        fast_in = Tensor(logits, requires_grad=True)
        fast = segment_softmax(fast_in, ids, num_segments)
        fast.backward(upstream)
        legacy_in = Tensor(logits, requires_grad=True)
        legacy = legacy_segment_softmax(legacy_in, ids, num_segments)
        legacy.backward(upstream)
        np.testing.assert_array_equal(fast.data, legacy.data)
        np.testing.assert_array_equal(fast_in.grad, legacy_in.grad)

    def test_segment_max_constant_matches_legacy(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=30)
        ids = rng.integers(5, size=30)
        fast = segment_max_constant(values, ids, 7)  # segments 5, 6 empty
        legacy = legacy_segment_max_constant(values, ids, 7)
        np.testing.assert_array_equal(fast, legacy)


class TestTypedMatmul:
    def test_matches_reference_exactly(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 5))
        weights = rng.normal(size=(NUM_EDGE_TYPES, 5, 5))
        types = rng.integers(NUM_EDGE_TYPES, size=40)
        fused = ops.typed_matmul(Tensor(x), Tensor(weights), types)
        reference = legacy_typed_matmul(Tensor(x), Tensor(weights), types)
        np.testing.assert_allclose(fused.data, reference.data, rtol=0, atol=0)

    @given(
        n=st.integers(0, 30),
        num_types=st.integers(1, 6),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_matches_reference(self, n, num_types, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 4))
        weights = rng.normal(size=(num_types, 4, 3))
        types = rng.integers(num_types, size=n)
        fused = ops.typed_matmul(Tensor(x), Tensor(weights), types)
        reference = legacy_typed_matmul(Tensor(x), Tensor(weights), types)
        np.testing.assert_allclose(fused.data, reference.data, rtol=1e-12, atol=1e-12)

    def test_backward_matches_reference(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(25, 4))
        weights = rng.normal(size=(NUM_EDGE_TYPES, 4, 4))
        types = rng.integers(NUM_EDGE_TYPES, size=25)
        upstream = rng.normal(size=(25, 4))

        x_fast = Tensor(x, requires_grad=True)
        w_fast = Tensor(weights, requires_grad=True)
        ops.typed_matmul(x_fast, w_fast, types).backward(upstream)

        x_ref = Tensor(x, requires_grad=True)
        w_ref = Tensor(weights, requires_grad=True)
        legacy_typed_matmul(x_ref, w_ref, types).backward(upstream)

        np.testing.assert_allclose(x_fast.grad, x_ref.grad, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(w_fast.grad, w_ref.grad, rtol=1e-12, atol=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(9, 3)), requires_grad=True)
        weights = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
        types = np.array([0, 3, 1, 1, 0, 2, 3, 3, 2])
        mix = Tensor(rng.normal(size=(9, 3)))
        check_gradients(
            lambda: ops.sum(ops.mul(ops.typed_matmul(x, weights, types), mix)),
            [x, weights],
        )

    def test_presorted_types_skip_permutation(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(10, 3))
        weights = rng.normal(size=(3, 3, 3))
        types = np.sort(rng.integers(3, size=10))
        fused = ops.typed_matmul(Tensor(x), Tensor(weights), types)
        reference = legacy_typed_matmul(Tensor(x), Tensor(weights), types)
        np.testing.assert_allclose(fused.data, reference.data, rtol=1e-12, atol=1e-12)

    def test_type_out_of_range_raises(self):
        with pytest.raises(ValueError):
            ops.typed_matmul(
                Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3, 3))), [0, 5]
            )


class TestLayerEquivalence:
    def _random_case(self, seed, num_nodes=12, num_edges=40, dim=8):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(num_nodes, dim))
        edges = np.stack(
            [
                rng.integers(num_nodes, size=num_edges),
                rng.integers(NUM_EDGE_TYPES, size=num_edges),
                rng.integers(num_nodes, size=num_edges),
            ],
            axis=1,
        ).astype(np.int64)
        return features, edges

    @pytest.mark.parametrize("use_attention,is_last", [(False, False), (True, False), (False, True)])
    def test_fused_layer_matches_legacy_loop(
        self, use_attention, is_last, monkeypatch
    ):
        features, edges = self._random_case(0)
        layer = RelationalMessagePassingLayer(8, np.random.default_rng(1))
        layer.weight.data = layer.weight.data.astype(np.float64)

        out_fast = layer(
            Tensor(features), edges, 0, use_attention, is_last
        )
        use_oracle_kernels(monkeypatch)
        out_legacy = layer(Tensor(features), edges, 0, use_attention, is_last)
        np.testing.assert_allclose(
            out_fast.data, out_legacy.data, rtol=1e-12, atol=1e-12
        )

    def test_fused_layer_gradients_match_legacy_loop(self, monkeypatch):
        features, edges = self._random_case(5)
        layer = RelationalMessagePassingLayer(8, np.random.default_rng(2))
        layer.weight.data = layer.weight.data.astype(np.float64)
        upstream = np.random.default_rng(3).normal(size=features.shape)

        feat_fast = Tensor(features, requires_grad=True)
        layer.zero_grad()
        layer(feat_fast, edges, 0, True, False).backward(upstream)
        grad_w_fast = layer.weight.grad.copy()
        grad_f_fast = feat_fast.grad.copy()

        feat_legacy = Tensor(features, requires_grad=True)
        layer.zero_grad()
        use_oracle_kernels(monkeypatch)
        layer(feat_legacy, edges, 0, True, False).backward(upstream)
        np.testing.assert_allclose(
            grad_w_fast, layer.weight.grad, rtol=1e-10, atol=1e-10
        )
        np.testing.assert_allclose(
            grad_f_fast, feat_legacy.grad, rtol=1e-10, atol=1e-10
        )
