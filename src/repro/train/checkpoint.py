"""Model checkpointing: save/load parameter state to ``.npz`` archives.

Works for any :class:`~repro.autograd.module.Module` tree via its
``state_dict``; dotted parameter names are the archive keys.

Every checkpoint carries a ``__meta__`` entry (JSON): format version, the
model's class name, and its parameter count, plus any caller-supplied
extras (e.g. the serving registry records the model spec it was built
from).  :func:`load_checkpoint` validates the metadata against the
receiving model and raises :class:`CheckpointMismatchError` — a ``KeyError``
subclass with a human-readable message — on architecture mismatch.
Pre-metadata checkpoints (plain parameter archives) still load.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

import numpy as np

from repro.autograd.module import Module

#: Bumped when the archive layout changes incompatibly.
CHECKPOINT_FORMAT_VERSION = 1

#: Archive key holding the JSON metadata (dotted parameter names can never
#: collide with it).
META_KEY = "__meta__"


class CheckpointMismatchError(KeyError):
    """A checkpoint does not fit the model it is being loaded into.

    Subclasses ``KeyError`` for backwards compatibility with callers that
    caught the raw ``load_state_dict`` error, but renders its message
    verbatim instead of ``KeyError``'s quoted-repr form.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:
        return self.message


def resolve_checkpoint_path(path: str) -> str:
    """Deterministic suffix resolution for :func:`load_checkpoint`.

    An existing file at exactly ``path`` always wins — it is never shadowed
    by an unrelated ``.npz`` sibling.  Otherwise the ``.npz``-suffixed
    sibling that :func:`save_checkpoint` would have written is used.  When
    neither exists, ``FileNotFoundError`` names every candidate tried.
    """
    candidates = [path]
    if not path.endswith(".npz"):
        candidates.append(path + ".npz")
    for candidate in candidates:
        if os.path.exists(candidate):
            return candidate
    raise FileNotFoundError(
        "no checkpoint at " + " or ".join(repr(c) for c in candidates)
    )


def save_checkpoint(
    model: Module, path: str, extra_meta: Optional[Dict[str, Any]] = None
) -> str:
    """Write the model's parameters (plus metadata) to ``path``.

    The ``.npz`` suffix is appended when missing (numpy would do so anyway);
    the actual path written is returned.  ``extra_meta`` entries must be
    JSON-serialisable and are merged into the ``__meta__`` record.
    """
    written = path if path.endswith(".npz") else path + ".npz"
    os.makedirs(os.path.dirname(written) or ".", exist_ok=True)
    state = model.state_dict()
    meta: Dict[str, Any] = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "model_class": type(model).__name__,
        "num_parameters": int(model.num_parameters()),
    }
    if extra_meta:
        meta.update(extra_meta)
    np.savez(written, **state, **{META_KEY: np.asarray(json.dumps(meta))})
    return written


def checkpoint_metadata(path: str) -> Dict[str, Any]:
    """Read a checkpoint's ``__meta__`` record without loading parameters.

    Returns ``{}`` for pre-metadata checkpoints.
    """
    with np.load(resolve_checkpoint_path(path)) as archive:
        if META_KEY not in archive.files:
            return {}
        return json.loads(str(archive[META_KEY]))


def load_checkpoint(model: Module, path: str) -> Dict[str, Any]:
    """Load parameters saved by :func:`save_checkpoint` into ``model``.

    The model must have the same architecture (same parameter names and
    shapes).  Mismatches raise :class:`CheckpointMismatchError` naming the
    saved and receiving architectures; shape mismatches raise
    ``ValueError``.  Returns the checkpoint's metadata dict (``{}`` for
    pre-metadata checkpoints).
    """
    resolved = resolve_checkpoint_path(path)
    with np.load(resolved) as archive:
        state = {key: archive[key] for key in archive.files}
    raw_meta = state.pop(META_KEY, None)
    meta: Dict[str, Any] = json.loads(str(raw_meta)) if raw_meta is not None else {}
    if meta:
        version = meta.get("format_version", 0)
        if version > CHECKPOINT_FORMAT_VERSION:
            raise ValueError(
                f"checkpoint {resolved!r} has format version {version}, newer "
                f"than supported version {CHECKPOINT_FORMAT_VERSION}"
            )
        saved_class = meta.get("model_class")
        if saved_class is not None and saved_class != type(model).__name__:
            raise CheckpointMismatchError(
                f"checkpoint {resolved!r} was saved from a {saved_class!r} "
                f"model and cannot be loaded into a {type(model).__name__!r}"
            )
        saved_count = meta.get("num_parameters")
        if saved_count is not None and saved_count != model.num_parameters():
            raise CheckpointMismatchError(
                f"checkpoint {resolved!r} holds {saved_count} parameters but "
                f"the receiving {type(model).__name__!r} has "
                f"{model.num_parameters()} — architecture mismatch "
                "(check the model variant/config it was saved from)"
            )
    try:
        model.load_state_dict(state)
    except KeyError as error:
        raise CheckpointMismatchError(
            f"checkpoint {resolved!r} does not match the receiving "
            f"{type(model).__name__!r} architecture: {error.args[0]}"
        ) from error
    return meta
