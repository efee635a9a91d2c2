"""Reverse-mode automatic differentiation on top of numpy.

This module provides the :class:`Tensor` class — the computational substrate
for every neural model in this repository.  The paper's reference
implementation uses PyTorch/DGL; neither is available offline, so we implement
the minimal-but-complete engine the models need: dynamic computation graphs,
topologically-ordered backpropagation, and broadcasting-aware gradients.

The design mirrors the familiar ``torch.Tensor`` surface where it matters
(``.data``, ``.grad``, ``.backward()``, operator overloads) so the model code
reads like standard deep-learning code.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.autograd.engine import get_default_dtype

ArrayLike = Union[np.ndarray, float, int, Sequence]


def _as_array(value: ArrayLike) -> np.ndarray:
    """Coerce ``value`` to a float numpy array under the engine dtype policy.

    ``float32``/``float64`` arrays keep their dtype (so explicit-precision
    inputs — gradcheck suites, float64 references — are never silently
    downcast); everything else (scalars, sequences, integer arrays) is
    converted to the engine default dtype.
    """
    if isinstance(value, (np.ndarray, np.generic)):
        if value.dtype == np.float32 or value.dtype == np.float64:
            return np.asarray(value)
        return np.asarray(value, dtype=get_default_dtype())
    return np.asarray(value, dtype=get_default_dtype())


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting.

    Numpy broadcasting implicitly expands operands; the corresponding
    gradient operation is a sum over the expanded axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor participating in a dynamic autograd graph.

    Parameters
    ----------
    data:
        Array-like payload; converted to a float array under the engine
        dtype policy (see :mod:`repro.autograd.engine`).
    requires_grad:
        Whether gradients should be accumulated into ``.grad`` during
        :meth:`backward`.
    parents:
        Tensors this node was computed from (internal use).
    backward_fn:
        Function mapping the output gradient to a tuple of parent gradients
        (``None`` entries for parents that do not require gradient flow).
    name:
        Optional debugging label.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward_fn: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]] = None,
        name: str = "",
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents = tuple(parents)
        self._backward_fn = backward_fn
        self.name = name

    # ------------------------------------------------------------------
    # Basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{grad_flag}{label})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a view of this tensor cut off from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Autograd machinery
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to ones (for scalar losses, the usual seed of 1.0).
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"backward seed shape {grad.shape} != tensor shape {self.data.shape}"
                )

        order = self._topological_order()
        # id()-keyed on purpose: every node in `order` is pinned by the
        # traversal (and by its children's `_parents` tuples) for the whole
        # walk, so ids cannot be recycled mid-backward.
        grads: dict[int, np.ndarray] = {id(self): grad}  # repro-lint: disable=RL003 nodes pinned by `order` for the whole walk
        for node in order:
            node_grad = grads.pop(id(node), None)  # repro-lint: disable=RL003 nodes pinned by `order` for the whole walk
            if node_grad is None:
                continue
            if node.requires_grad:
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad = node.grad + node_grad
            if node._backward_fn is None:
                continue
            parent_grads = node._backward_fn(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None:
                    continue
                if not (parent.requires_grad or parent._backward_fn is not None):
                    continue
                key = id(parent)  # repro-lint: disable=RL003 parents pinned by node._parents for the whole walk
                if key in grads:
                    grads[key] = grads[key] + pgrad
                else:
                    grads[key] = pgrad

    def _topological_order(self) -> list:
        """Nodes reachable from self, ordered outputs-first (reverse topo)."""
        visited: set[int] = set()
        order: list[Tensor] = []
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:  # repro-lint: disable=RL003 nodes pinned by the DFS stack/parents tuples during the walk
                continue
            visited.add(id(node))  # repro-lint: disable=RL003 nodes pinned by the DFS stack/parents tuples during the walk
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:  # repro-lint: disable=RL003 nodes pinned by the DFS stack/parents tuples during the walk
                    stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # Operator overloads (implemented in ops.py, attached lazily below)
    # ------------------------------------------------------------------
    def __add__(self, other):  # pragma: no cover - thin dispatch
        from repro.autograd import ops

        return ops.add(self, other)

    def __radd__(self, other):  # pragma: no cover
        from repro.autograd import ops

        return ops.add(other, self)

    def __sub__(self, other):  # pragma: no cover
        from repro.autograd import ops

        return ops.sub(self, other)

    def __rsub__(self, other):  # pragma: no cover
        from repro.autograd import ops

        return ops.sub(other, self)

    def __mul__(self, other):  # pragma: no cover
        from repro.autograd import ops

        return ops.mul(self, other)

    def __rmul__(self, other):  # pragma: no cover
        from repro.autograd import ops

        return ops.mul(other, self)

    def __truediv__(self, other):  # pragma: no cover
        from repro.autograd import ops

        return ops.div(self, other)

    def __rtruediv__(self, other):  # pragma: no cover
        from repro.autograd import ops

        return ops.div(other, self)

    def __neg__(self):  # pragma: no cover
        from repro.autograd import ops

        return ops.mul(self, -1.0)

    def __pow__(self, exponent):  # pragma: no cover
        from repro.autograd import ops

        return ops.power(self, exponent)

    def __matmul__(self, other):  # pragma: no cover
        from repro.autograd import ops

        return ops.matmul(self, other)

    def __getitem__(self, index):  # pragma: no cover
        from repro.autograd import ops

        return ops.index_select(self, index)

    # Convenience methods mirroring the functional API --------------------
    def sum(self, axis=None, keepdims: bool = False):
        from repro.autograd import ops

        return ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        from repro.autograd import ops

        return ops.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        from repro.autograd import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self):
        from repro.autograd import ops

        return ops.transpose(self)

    @property
    def T(self):
        return self.transpose()

    def relu(self):
        from repro.autograd import ops

        return ops.relu(self)

    def sigmoid(self):
        from repro.autograd import ops

        return ops.sigmoid(self)

    def tanh(self):
        from repro.autograd import ops

        return ops.tanh(self)

    def exp(self):
        from repro.autograd import ops

        return ops.exp(self)

    def log(self):
        from repro.autograd import ops

        return ops.log(self)


def as_tensor(value: Union[Tensor, ArrayLike]) -> Tensor:
    """Coerce ``value`` to a (non-differentiable) :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)
