"""Segment (scatter/gather) operations for graph neural networks.

Message passing aggregates variable-size neighborhoods.  We express this with
three primitives over a flat list of messages tagged by segment ids:

* :func:`gather`         — pick rows by index (embedding lookup / broadcast
                           node features onto edges);
* :func:`segment_sum`    — scatter-add messages into per-node accumulators;
* :func:`segment_softmax`— normalise attention logits within each segment.

All are differentiable; ``segment_sum``'s backward is a gather and vice versa.

The scatter reductions sort rows by segment id once (a stable argsort,
skipped when ids are already sorted) and reduce contiguous runs with
``np.add.reduceat`` / ``np.maximum.reduceat``; 1-D reductions use
``np.bincount``.  Each segment reduces over its rows in their original
order — bitwise-equal to the ``np.add.at`` scatter kernels they replaced
for the 1-D paths, within a few ULPs for the 2-D ``reduceat`` paths (numpy
may re-associate the additions).  Those scatter kernels live on as the
``legacy_*`` oracles in ``tests/oracles/kernels.py``, which the
equivalence property suite (``tests/test_kernel_equivalence.py``) holds
these kernels to.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.ops import _needs_graph
from repro.autograd.tensor import Tensor, as_tensor


def _check_segment_ids(
    segment_ids: np.ndarray, num_rows: int, num_segments: int
) -> np.ndarray:
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if segment_ids.ndim != 1:
        raise ValueError("segment_ids must be 1-D")
    if len(segment_ids) != num_rows:
        raise ValueError(
            f"segment_ids length {len(segment_ids)} != number of rows {num_rows}"
        )
    if segment_ids.size:
        if segment_ids.min() < 0:
            raise ValueError("segment ids must be non-negative")
        if segment_ids.max() >= num_segments:
            raise ValueError("segment id exceeds num_segments")
    return segment_ids


def _sorted_runs(segment_ids: np.ndarray):
    """Stable sort of ``segment_ids`` into contiguous runs.

    Returns ``(order, starts, run_ids)``; ``order`` is ``None`` when the
    ids are already sorted (the permutation can be skipped).  Shares the
    run-decomposition kernel with :func:`repro.autograd.ops.typed_matmul`.
    """
    from repro.autograd.ops import _type_blocks

    order, starts, _ends, run_ids = _type_blocks(segment_ids)
    return order, starts, run_ids


def _segment_sum_array(
    values: np.ndarray, segment_ids: np.ndarray, num_segments: int
) -> np.ndarray:
    """Sort-based unsorted-segment-sum on raw arrays (fast kernel core).

    Within each segment, rows are summed in their original order — the
    same sequence as ``np.add.at``, so results agree with the scatter
    kernel to within numpy's reduction re-association (a few ULPs;
    bitwise on the 1-D ``bincount`` path).
    """
    out_shape = (num_segments,) + values.shape[1:]
    n = len(segment_ids)
    if n == 0:
        return np.zeros(out_shape, dtype=values.dtype)
    if values.ndim == 1:
        out = np.bincount(segment_ids, weights=values, minlength=num_segments)
        return out.astype(values.dtype, copy=False)
    if values.ndim == 2 and values.shape[1] <= 64:
        # Per-column bincount beats sort+reduceat except on large
        # already-sorted inputs (measured crossover ~16k rows), and keeps
        # the exact np.add.at accumulation order.
        use_reduceat = n >= 16384 and not np.any(segment_ids[1:] < segment_ids[:-1])
        if not use_reduceat:
            out = np.empty(out_shape, dtype=values.dtype)
            for column in range(values.shape[1]):
                out[:, column] = np.bincount(
                    segment_ids, weights=values[:, column], minlength=num_segments
                )
            return out
    order, starts, run_ids = _sorted_runs(segment_ids)
    sorted_values = values if order is None else values[order]
    out = np.zeros(out_shape, dtype=values.dtype)
    out[run_ids] = np.add.reduceat(sorted_values, starts, axis=0)
    return out


def _segment_max_array(
    values: np.ndarray, segment_ids: np.ndarray, num_segments: int
) -> np.ndarray:
    """Sort-based per-segment max; empty segments come back as ``-inf``."""
    out = np.full((num_segments,) + values.shape[1:], -np.inf, dtype=values.dtype)
    if len(segment_ids) == 0:
        return out
    order, starts, run_ids = _sorted_runs(segment_ids)
    sorted_values = values if order is None else values[order]
    out[run_ids] = np.maximum.reduceat(sorted_values, starts, axis=0)
    return out


# ---------------------------------------------------------------------------
# Gather
# ---------------------------------------------------------------------------
def gather(a: Tensor, index) -> Tensor:
    """Row gather ``a[index]`` with (sort-based) scatter-add backward."""
    a = as_tensor(a)
    index = np.asarray(index, dtype=np.int64)
    out_data = a.data[index]
    if not _needs_graph(a):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        if index.ndim != 1 or (index.size and index.min() < 0):
            # Rare generic-indexing path: keep the scatter kernel.
            grad_a = np.zeros_like(a.data)
            np.add.at(grad_a, index, grad)  # repro-lint: disable=RL002 fallback for multi-dim/negative indices the sort kernels cannot express
            return (grad_a,)
        grad_a = _segment_sum_array(grad, index, a.shape[0])
        if grad_a.dtype != a.data.dtype:
            grad_a = grad_a.astype(a.data.dtype)
        return (grad_a,)

    return Tensor(out_data, parents=(a,), backward_fn=backward)


# ---------------------------------------------------------------------------
# Segment sum / mean
# ---------------------------------------------------------------------------
def segment_sum(values: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Sum rows of ``values`` into ``num_segments`` buckets.

    ``out[s] = sum(values[i] for i where segment_ids[i] == s)``; empty
    segments yield zero rows.  Output dtype follows the input dtype.
    """
    values = as_tensor(values)
    segment_ids = _check_segment_ids(segment_ids, values.shape[0], num_segments)
    out_data = _segment_sum_array(values.data, segment_ids, num_segments)
    if not _needs_graph(values):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        return (grad[segment_ids],)

    return Tensor(out_data, parents=(values,), backward_fn=backward)


def segment_mean(values: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Mean over each segment; empty segments yield zeros."""
    values = as_tensor(values)
    segment_ids = _check_segment_ids(segment_ids, values.shape[0], num_segments)
    counts = np.bincount(segment_ids, minlength=num_segments).astype(
        values.data.dtype
    )
    counts = np.maximum(counts, 1.0)
    summed = segment_sum(values, segment_ids, num_segments)
    inv = (1.0 / counts).reshape((num_segments,) + (1,) * (values.ndim - 1))
    from repro.autograd import ops

    return ops.mul(summed, inv.astype(summed.data.dtype, copy=False))


def segment_max_constant(
    values: np.ndarray, segment_ids: np.ndarray, num_segments: int
) -> np.ndarray:
    """Per-segment max computed on raw arrays (used as a stop-gradient shift)."""
    out = _segment_max_array(values, segment_ids, num_segments)
    out[np.isneginf(out)] = 0.0
    return out


# ---------------------------------------------------------------------------
# Segment softmax
# ---------------------------------------------------------------------------
def segment_softmax(logits: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Softmax over each segment of a 1-D logits tensor.

    The max-shift for numerical stability is treated as a constant
    (the standard stop-gradient trick); the softmax Jacobian is exact.
    """
    logits = as_tensor(logits)
    if logits.ndim != 1:
        raise ValueError("segment_softmax expects 1-D logits")
    segment_ids = _check_segment_ids(segment_ids, logits.shape[0], num_segments)

    shift = segment_max_constant(logits.data, segment_ids, num_segments)
    shifted = logits.data - shift[segment_ids]
    exps = np.exp(np.clip(shifted, -60.0, 60.0))
    denom = np.bincount(segment_ids, weights=exps, minlength=num_segments)
    denom = np.maximum(denom, 1e-12).astype(exps.dtype, copy=False)
    out_data = exps / denom[segment_ids]

    if not _needs_graph(logits):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        # d softmax_i / d logit_j = p_i (delta_ij - p_j) within a segment.
        weighted = grad * out_data
        seg_dot = np.bincount(
            segment_ids, weights=weighted, minlength=num_segments
        ).astype(weighted.dtype, copy=False)
        return (weighted - out_data * seg_dot[segment_ids],)

    return Tensor(out_data, parents=(logits,), backward_fn=backward)


def segment_count(segment_ids, num_segments: int) -> np.ndarray:
    """Number of rows in each segment (plain numpy helper)."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    return np.bincount(segment_ids, minlength=num_segments)
