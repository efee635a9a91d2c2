"""`repro.autograd` — a numpy reverse-mode autodiff engine.

Public surface:

* :class:`~repro.autograd.tensor.Tensor` and :func:`~repro.autograd.tensor.as_tensor`
* functional ops in :mod:`repro.autograd.ops`
* segment/graph ops in :mod:`repro.autograd.segment`
* :class:`~repro.autograd.module.Module` / :class:`~repro.autograd.module.Parameter`
* layers (:class:`Linear`, :class:`Embedding`, :class:`Dropout`, :class:`MLP`)
* optimizers (:class:`SGD`, :class:`Adam`) and losses
* engine policy (:func:`no_grad`, default dtype) in
  :mod:`repro.autograd.engine`
"""

from repro.autograd.engine import (
    default_dtype,
    enable_grad,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    set_default_dtype,
)
from repro.autograd.gradcheck import check_gradients, numerical_gradient
from repro.autograd.layers import MLP, Dropout, Embedding, Linear
from repro.autograd.losses import (
    binary_cross_entropy_with_logits,
    margin_ranking_loss,
    mse_loss,
)
from repro.autograd.module import Module, ModuleList, Parameter
from repro.autograd.optim import SGD, Adam, clip_grad_norm
from repro.autograd.segment import (
    gather,
    segment_count,
    segment_mean,
    segment_softmax,
    segment_sum,
)
from repro.autograd.tensor import Tensor, as_tensor

__all__ = [
    "Tensor",
    "as_tensor",
    "Module",
    "ModuleList",
    "Parameter",
    "Linear",
    "Embedding",
    "Dropout",
    "MLP",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "margin_ranking_loss",
    "binary_cross_entropy_with_logits",
    "mse_loss",
    "gather",
    "segment_sum",
    "segment_mean",
    "segment_softmax",
    "segment_count",
    "check_gradients",
    "numerical_gradient",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "get_default_dtype",
    "set_default_dtype",
    "default_dtype",
]
