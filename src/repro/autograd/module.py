"""Module/Parameter abstractions, mirroring the familiar ``torch.nn`` pattern.

A :class:`Module` is a tree of submodules and :class:`Parameter` leaves.
``parameters()`` walks the tree; optimizers consume that flat list.  The
walk follows attributes that are a Parameter or a Module, or a list/tuple
of them; it never looks inside a dict, so data attributes such as a
model's sample memo cost nothing to walk past.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.autograd.tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor (``requires_grad=True`` by construction)."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural network components.

    Subclasses assign :class:`Parameter` and :class:`Module` attributes (or
    lists of them, e.g. :class:`ModuleList`) in ``__init__`` and implement
    ``forward``.  Instances are callable.
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs over the module tree."""
        for attr, value in vars(self).items():
            name = f"{prefix}.{attr}" if prefix else attr
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(name)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{name}[{i}]", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(f"{name}[{i}]")

    def parameters(self) -> list:
        return [param for _, param in self.named_parameters()]

    def num_parameters(self) -> int:
        return int(sum(p.size for p in self.parameters()))

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    def train(self) -> "Module":
        """Switch the whole tree to training mode (enables dropout)."""
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        """Switch the whole tree to inference mode."""
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for value in vars(self).values():
            if isinstance(value, Module):
                value._set_mode(training)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item._set_mode(training)

    # ------------------------------------------------------------------
    # (De)serialisation: a flat dict of numpy arrays keyed by dotted names.
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.shape}, got {value.shape}"
                )
            param.data = value.copy()


class ModuleList(Module):
    """A list container whose items are registered submodules."""

    def __init__(self, modules=()) -> None:
        super().__init__()
        self.items = list(modules)

    def append(self, module: Module) -> None:
        self.items.append(module)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, index):
        return self.items[index]

    def __len__(self) -> int:
        return len(self.items)

    def forward(self, *args, **kwargs):  # pragma: no cover - containers don't forward
        raise TypeError("ModuleList is a container and cannot be called")
