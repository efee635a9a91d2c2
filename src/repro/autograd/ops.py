"""Differentiable functional operations over :class:`~repro.autograd.tensor.Tensor`.

Every function returns a new :class:`Tensor` whose ``backward_fn`` maps the
output gradient to gradients for each parent.  Broadcasting is handled by
:func:`~repro.autograd.tensor.unbroadcast`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.autograd.engine import is_grad_enabled
from repro.autograd.tensor import ArrayLike, Tensor, as_tensor, unbroadcast

TensorLike = Union[Tensor, ArrayLike]


def _needs_graph(*tensors: Tensor) -> bool:
    """Whether an op must record a backward closure for these inputs.

    Always ``False`` inside :class:`repro.autograd.engine.no_grad` — the
    eval/serving fast path allocates no autograd bookkeeping at all.
    """
    if not is_grad_enabled():
        return False
    return any(t.requires_grad or t._backward_fn is not None for t in tensors)


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------
def add(a: TensorLike, b: TensorLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data
    if not _needs_graph(a, b):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        return unbroadcast(grad, a.shape), unbroadcast(grad, b.shape)

    return Tensor(out_data, parents=(a, b), backward_fn=backward)


def sub(a: TensorLike, b: TensorLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data
    if not _needs_graph(a, b):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        return unbroadcast(grad, a.shape), unbroadcast(-grad, b.shape)

    return Tensor(out_data, parents=(a, b), backward_fn=backward)


def mul(a: TensorLike, b: TensorLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data
    if not _needs_graph(a, b):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        return (
            unbroadcast(grad * b.data, a.shape),
            unbroadcast(grad * a.data, b.shape),
        )

    return Tensor(out_data, parents=(a, b), backward_fn=backward)


def div(a: TensorLike, b: TensorLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data
    if not _needs_graph(a, b):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        return (
            unbroadcast(grad / b.data, a.shape),
            unbroadcast(-grad * a.data / (b.data**2), b.shape),
        )

    return Tensor(out_data, parents=(a, b), backward_fn=backward)


def power(a: TensorLike, exponent: float) -> Tensor:
    a = as_tensor(a)
    out_data = a.data**exponent
    if not _needs_graph(a):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        return (unbroadcast(grad * exponent * a.data ** (exponent - 1), a.shape),)

    return Tensor(out_data, parents=(a,), backward_fn=backward)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------
def matmul(a: TensorLike, b: TensorLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data @ b.data
    if not _needs_graph(a, b):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        if a.data.ndim == 1 and b.data.ndim == 2:
            # (k,) @ (k, n) -> (n,)
            grad_a = grad @ b.data.T
            grad_b = np.outer(a.data, grad)
        elif a.data.ndim == 2 and b.data.ndim == 1:
            # (m, k) @ (k,) -> (m,)
            grad_a = np.outer(grad, b.data)
            grad_b = a.data.T @ grad
        elif a.data.ndim == 1 and b.data.ndim == 1:
            grad_a = grad * b.data
            grad_b = grad * a.data
        else:
            grad_a = grad @ np.swapaxes(b.data, -1, -2)
            grad_b = np.swapaxes(a.data, -1, -2) @ grad
        return unbroadcast(grad_a, a.shape), unbroadcast(grad_b, b.shape)

    return Tensor(out_data, parents=(a, b), backward_fn=backward)


def _type_blocks(types: np.ndarray):
    """Stable sort of ``types`` into contiguous per-type blocks.

    Returns ``(order, starts, ends, block_types)`` where ``order`` is
    ``None`` when ``types`` is already sorted (no permutation needed).
    Also the run-decomposition kernel behind
    :func:`repro.autograd.segment._sorted_runs`.
    """
    m = len(types)
    if m and np.any(types[1:] < types[:-1]):
        order = np.argsort(types, kind="stable")
        sorted_types = types[order]
    else:
        order = None
        sorted_types = types
    if m == 0:
        starts = np.empty(0, dtype=np.int64)
    else:
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_types[1:] != sorted_types[:-1]))
        )
    ends = np.concatenate((starts[1:], [m])).astype(np.int64)
    return order, starts, ends, sorted_types[starts] if m else sorted_types


def typed_matmul(x: TensorLike, weights: TensorLike, types) -> Tensor:
    """Per-row typed linear map: ``out[i] = x[i] @ weights[types[i]]``.

    The batched replacement for a per-type mask/matmul/concat loop: rows
    are grouped by type with one stable argsort (skipped when ``types`` is
    already sorted), each group hits a single BLAS matmul against its
    type's ``(dim_in, dim_out)`` weight slice, and results scatter back to
    input order.  The backward is fused the same way — one grouped pass
    produces both ``grad_x`` and the stacked ``grad_weights``.
    """
    x, weights = as_tensor(x), as_tensor(weights)
    types = np.asarray(types, dtype=np.int64)
    if x.ndim != 2 or weights.ndim != 3:
        raise ValueError(
            f"typed_matmul expects x (m, d_in) and weights (T, d_in, d_out), "
            f"got {x.shape} and {weights.shape}"
        )
    if len(types) != x.shape[0]:
        raise ValueError(f"types length {len(types)} != rows {x.shape[0]}")
    num_types = weights.shape[0]
    if types.size and (types.min() < 0 or types.max() >= num_types):
        raise ValueError("type id out of range")

    order, starts, ends, block_types = _type_blocks(types)
    xs = x.data if order is None else x.data[order]
    out_dtype = np.result_type(x.data.dtype, weights.data.dtype)
    out_sorted = np.empty((x.shape[0], weights.shape[2]), dtype=out_dtype)
    for t, s, e in zip(block_types, starts, ends):
        np.matmul(xs[s:e], weights.data[t], out=out_sorted[s:e])
    if order is None:
        out_data = out_sorted
    else:
        out_data = np.empty_like(out_sorted)
        out_data[order] = out_sorted
    if not _needs_graph(x, weights):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        grad_sorted = grad if order is None else grad[order]
        grad_x_sorted = np.empty(x.shape, dtype=np.result_type(grad.dtype, out_dtype))
        grad_w = np.zeros_like(weights.data)
        for t, s, e in zip(block_types, starts, ends):
            np.matmul(grad_sorted[s:e], weights.data[t].T, out=grad_x_sorted[s:e])
            grad_w[t] = xs[s:e].T @ grad_sorted[s:e]
        if order is None:
            grad_x = grad_x_sorted
        else:
            grad_x = np.empty_like(grad_x_sorted)
            grad_x[order] = grad_x_sorted
        return grad_x, grad_w

    return Tensor(out_data, parents=(x, weights), backward_fn=backward)


def transpose(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.T
    if not _needs_graph(a):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        return (grad.T,)

    return Tensor(out_data, parents=(a,), backward_fn=backward)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)
    if not _needs_graph(a):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        return (grad.reshape(a.shape),)

    return Tensor(out_data, parents=(a,), backward_fn=backward)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------
def sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)
    if not _needs_graph(a):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return Tensor(out_data, parents=(a,), backward_fn=backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    if not _needs_graph(a):
        return Tensor(out_data)
    if axis is None:
        count = a.data.size
    elif isinstance(axis, tuple):
        count = int(np.prod([a.shape[ax] for ax in axis]))
    else:
        count = a.shape[axis]

    def backward(grad: np.ndarray):
        g = grad / count
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return Tensor(out_data, parents=(a,), backward_fn=backward)


def max_along(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max reduction; gradient flows to the (first) argmax positions."""
    a = as_tensor(a)
    out_data = a.data.max(axis=axis, keepdims=keepdims)
    if not _needs_graph(a):
        return Tensor(out_data)
    expanded = a.data.max(axis=axis, keepdims=True)
    mask = (a.data == expanded).astype(a.data.dtype)
    # Normalise so ties share the gradient.
    mask = mask / mask.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray):
        g = grad if keepdims else np.expand_dims(grad, axis=axis)
        return (mask * g,)

    return Tensor(out_data, parents=(a,), backward_fn=backward)


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------
def relu(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0.0)
    if not _needs_graph(a):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        return (grad * (a.data > 0.0),)

    return Tensor(out_data, parents=(a,), backward_fn=backward)


def leaky_relu(a: Tensor, negative_slope: float = 0.2) -> Tensor:
    a = as_tensor(a)
    out_data = np.where(a.data > 0.0, a.data, negative_slope * a.data)
    if not _needs_graph(a):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        # Slope mask in the input dtype, so float32 grads stay float32.
        slope = np.where(a.data > 0.0, 1.0, negative_slope).astype(
            a.data.dtype, copy=False
        )
        return (grad * slope,)

    return Tensor(out_data, parents=(a,), backward_fn=backward)


def sigmoid(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-np.clip(a.data, -60.0, 60.0)))
    if not _needs_graph(a):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        return (grad * out_data * (1.0 - out_data),)

    return Tensor(out_data, parents=(a,), backward_fn=backward)


def tanh(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)
    if not _needs_graph(a):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        return (grad * (1.0 - out_data**2),)

    return Tensor(out_data, parents=(a,), backward_fn=backward)


def exp(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(np.clip(a.data, -60.0, 60.0))
    if not _needs_graph(a):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        return (grad * out_data,)

    return Tensor(out_data, parents=(a,), backward_fn=backward)


def sin(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out_data = np.sin(a.data)
    if not _needs_graph(a):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        return (grad * np.cos(a.data),)

    return Tensor(out_data, parents=(a,), backward_fn=backward)


def cos(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out_data = np.cos(a.data)
    if not _needs_graph(a):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        return (grad * -np.sin(a.data),)

    return Tensor(out_data, parents=(a,), backward_fn=backward)


def sqrt(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out_data = np.sqrt(np.maximum(a.data, 0.0))
    if not _needs_graph(a):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        return (grad * 0.5 / np.maximum(out_data, 1e-12),)

    return Tensor(out_data, parents=(a,), backward_fn=backward)


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), numerically stable."""
    a = as_tensor(a)
    out_data = np.logaddexp(0.0, a.data)
    if not _needs_graph(a):
        return Tensor(out_data)
    sig = 1.0 / (1.0 + np.exp(-np.clip(a.data, -60.0, 60.0)))

    def backward(grad: np.ndarray):
        return (grad * sig,)

    return Tensor(out_data, parents=(a,), backward_fn=backward)


def log(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out_data = np.log(np.maximum(a.data, 1e-12))
    if not _needs_graph(a):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        return (grad / np.maximum(a.data, 1e-12),)

    return Tensor(out_data, parents=(a,), backward_fn=backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out_data = exps / exps.sum(axis=axis, keepdims=True)
    if not _needs_graph(a):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (grad - dot),)

    return Tensor(out_data, parents=(a,), backward_fn=backward)


# ---------------------------------------------------------------------------
# Shape / indexing
# ---------------------------------------------------------------------------
def index_select(a: Tensor, index) -> Tensor:
    """Differentiable fancy indexing: gradient scatters back into ``a``."""
    a = as_tensor(a)
    out_data = a.data[index]
    if not _needs_graph(a):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        grad_a = np.zeros_like(a.data)
        np.add.at(grad_a, index, grad)  # repro-lint: disable=RL002 generic fancy-index scatter; the sort kernels require 1-D non-negative indices
        return (grad_a,)

    return Tensor(out_data, parents=(a,), backward_fn=backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    if not _needs_graph(*tensors):
        return Tensor(out_data)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray):
        grads = []
        for i in range(len(tensors)):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(grad[tuple(slicer)])
        return tuple(grads)

    return Tensor(out_data, parents=tuple(tensors), backward_fn=backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)
    if not _needs_graph(*tensors):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        pieces = np.split(grad, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in pieces)

    return Tensor(out_data, parents=tuple(tensors), backward_fn=backward)


def dropout(a: Tensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: scales kept activations by ``1/(1-rate)``."""
    a = as_tensor(a)
    if not training or rate <= 0.0:
        return a
    if rate >= 1.0:
        raise ValueError("dropout rate must be < 1")
    keep = ((rng.random(a.shape) >= rate) / (1.0 - rate)).astype(
        a.data.dtype, copy=False
    )
    out_data = a.data * keep
    if not _needs_graph(a):
        return Tensor(out_data)

    def backward(grad: np.ndarray):
        return (grad * keep,)

    return Tensor(out_data, parents=(a,), backward_fn=backward)


def clip(a: Tensor, low: float, high: float) -> Tensor:
    a = as_tensor(a)
    out_data = np.clip(a.data, low, high)
    if not _needs_graph(a):
        return Tensor(out_data)
    mask = (a.data > low) & (a.data < high)

    def backward(grad: np.ndarray):
        return (grad * mask,)

    return Tensor(out_data, parents=(a,), backward_fn=backward)


def maximum(a: TensorLike, b: TensorLike) -> Tensor:
    """Elementwise max with subgradient split evenly on ties."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = np.maximum(a.data, b.data)
    if not _needs_graph(a, b):
        return Tensor(out_data)
    a_wins = a.data > b.data
    ties = a.data == b.data

    def backward(grad: np.ndarray):
        # Subgradient weights in the output dtype (bool-array arithmetic
        # with python floats would silently promote grads to float64).
        half_ties = np.asarray(0.5, dtype=out_data.dtype) * ties
        grad_a = grad * (a_wins + half_ties)
        grad_b = grad * (~a_wins & ~ties) + grad * half_ties
        return unbroadcast(grad_a, a.shape), unbroadcast(grad_b, b.shape)

    return Tensor(out_data, parents=(a, b), backward_fn=backward)
