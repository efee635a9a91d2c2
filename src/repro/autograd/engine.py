"""Engine-wide compute policy: default dtype and grad mode.

Two process-wide switches control how the autograd engine executes, each
with a context-manager form for scoped overrides:

* **Default dtype** — the dtype new tensors and parameters are created with.
  ``float32`` by default (halves memory bandwidth on the message-passing
  matmuls); ``float64`` is an opt-in for gradient checking and the
  equivalence property suites.  Float arrays passed in explicitly as
  ``float32``/``float64`` keep their dtype — the policy only governs
  scalars, sequences, integer arrays and parameter initialisation.
* **Grad mode** — :class:`no_grad` suppresses backward-graph construction
  engine-wide: inside the context every op returns a plain tensor with no
  parents and no backward closure, so eval/serving forwards allocate zero
  autograd bookkeeping.

The switches are plain module globals.  The serving stack funnels all
scoring through a single worker thread, so scoped toggling is safe there;
mixing training and ``no_grad`` scoring across threads is not supported.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Union

import numpy as np

DtypeLike = Union[str, type, np.dtype]

#: Dtype of score/metric arrays at the eval/serving boundaries.  Scores
#: leave the engine as plain numpy and never re-enter autograd, so they
#: carry no promotion hazard; keeping ranking comparisons and metric
#: accumulation in float64 makes MRR/Hits/AUC identical whether the
#: engine computes in float32 or float64.  This is the one sanctioned
#: float64 constant outside this module's dtype policy (lint rule RL001).
SCORE_DTYPE: type = np.float64

_SUPPORTED_DTYPES = (np.float32, np.float64)

_default_dtype: type = np.float32
_grad_enabled: bool = True


def resolve_dtype(dtype: DtypeLike) -> type:
    """Normalise ``dtype`` to ``np.float32`` or ``np.float64``."""
    resolved = np.dtype(dtype).type
    if resolved not in _SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported engine dtype {dtype!r}; expected float32 or float64"
        )
    return resolved


# ---------------------------------------------------------------------------
# Default dtype policy
# ---------------------------------------------------------------------------
def get_default_dtype() -> type:
    """The dtype new tensors / parameters are created with."""
    return _default_dtype


def set_default_dtype(dtype: DtypeLike) -> None:
    """Set the engine default dtype (``float32`` or ``float64``)."""
    global _default_dtype
    _default_dtype = resolve_dtype(dtype)


@contextlib.contextmanager
def default_dtype(dtype: DtypeLike) -> Iterator[None]:
    """Scoped override of the engine default dtype."""
    global _default_dtype
    previous = _default_dtype
    _default_dtype = resolve_dtype(dtype)
    try:
        yield
    finally:
        _default_dtype = previous


# ---------------------------------------------------------------------------
# Grad mode
# ---------------------------------------------------------------------------
def is_grad_enabled() -> bool:
    return _grad_enabled


class no_grad:
    """Context manager disabling backward-graph construction engine-wide.

    Inside the context every op returns a graph-free tensor
    (``_backward_fn is None``, no parents), with forward values identical
    to grad mode.  Re-entrant; also usable as a decorator.
    """

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._previous = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc_info) -> None:
        global _grad_enabled
        _grad_enabled = self._previous

    def __call__(self, fn):
        def wrapper(*args, **kwargs):
            with no_grad():
                return fn(*args, **kwargs)

        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__doc__ = fn.__doc__
        return wrapper


@contextlib.contextmanager
def enable_grad() -> Iterator[None]:
    """Scoped re-enabling of grad mode (escape hatch inside ``no_grad``)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = True
    try:
        yield
    finally:
        _grad_enabled = previous
