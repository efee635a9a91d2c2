"""Reference autograd kernels: ``np.add.at`` scatters and the per-type
mask/matmul/concat loop that :mod:`repro.autograd.segment` and
:func:`repro.autograd.ops.typed_matmul` replaced."""

from __future__ import annotations

import numpy as np

from repro.autograd.ops import TensorLike, _needs_graph, concat, index_select, matmul
from repro.autograd.segment import _check_segment_ids
from repro.autograd.tensor import Tensor, as_tensor


def legacy_gather(a: Tensor, index) -> Tensor:
    """Reference gather: ``np.add.at`` scatter backward (legacy kernel)."""
    a = as_tensor(a)
    index = np.asarray(index, dtype=np.int64)
    out_data = a.data[index]
    if not _needs_graph(a):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        grad_a = np.zeros_like(a.data)
        np.add.at(grad_a, index, grad)
        return (grad_a,)

    return Tensor(out_data, parents=(a,), backward_fn=backward)


def legacy_segment_sum(values: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Reference segment sum: ``np.add.at`` into a float64 accumulator
    (the pre-dtype-policy behaviour, kept verbatim)."""
    values = as_tensor(values)
    segment_ids = _check_segment_ids(segment_ids, values.shape[0], num_segments)
    out_shape = (num_segments,) + values.shape[1:]
    out_data = np.zeros(out_shape, dtype=np.float64)
    np.add.at(out_data, segment_ids, values.data)
    if not _needs_graph(values):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        return (grad[segment_ids],)

    return Tensor(out_data, parents=(values,), backward_fn=backward)


def legacy_segment_max_constant(
    values: np.ndarray, segment_ids: np.ndarray, num_segments: int
) -> np.ndarray:
    """Reference per-segment max: ``np.maximum.at`` scatter; empty
    segments come back as zero."""
    out = np.full((num_segments,) + values.shape[1:], -np.inf)
    np.maximum.at(out, segment_ids, values)
    out[np.isneginf(out)] = 0.0
    return out


def legacy_segment_softmax(logits: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Reference segment softmax: ``np.add.at`` scatter normalisers."""
    logits = as_tensor(logits)
    if logits.ndim != 1:
        raise ValueError("segment_softmax expects 1-D logits")
    segment_ids = _check_segment_ids(segment_ids, logits.shape[0], num_segments)

    shift = np.full(num_segments, -np.inf)
    np.maximum.at(shift, segment_ids, logits.data)
    shift[np.isneginf(shift)] = 0.0
    shifted = logits.data - shift[segment_ids]
    exps = np.exp(np.clip(shifted, -60.0, 60.0))
    denom = np.zeros(num_segments, dtype=np.float64)
    np.add.at(denom, segment_ids, exps)
    denom = np.maximum(denom, 1e-12)
    out_data = exps / denom[segment_ids]

    if not _needs_graph(logits):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        weighted = grad * out_data
        seg_dot = np.zeros(num_segments, dtype=np.float64)
        np.add.at(seg_dot, segment_ids, weighted)
        return (weighted - out_data * seg_dot[segment_ids],)

    return Tensor(out_data, parents=(logits,), backward_fn=backward)


def legacy_typed_matmul(x: TensorLike, weights: TensorLike, types) -> Tensor:
    """Reference :func:`repro.autograd.ops.typed_matmul`: the original
    per-type mask/matmul/concat/reorder composition of existing
    differentiable ops."""
    x, weights = as_tensor(x), as_tensor(weights)
    types = np.asarray(types, dtype=np.int64)
    parts = []
    order_parts = []
    for t in range(weights.shape[0]):
        idx = np.nonzero(types == t)[0]
        if not len(idx):
            continue
        parts.append(matmul(index_select(x, idx), index_select(weights, t)))
        order_parts.append(idx)
    if not parts:
        return Tensor(np.zeros((0, weights.shape[2]), dtype=x.data.dtype))
    order = np.concatenate(order_parts)
    stacked = concat(parts, axis=0)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(len(order))
    return index_select(stacked, inverse)
