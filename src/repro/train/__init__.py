"""`repro.train` — training loops for subgraph-scoring models."""

from repro.train.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointMismatchError,
    checkpoint_metadata,
    load_checkpoint,
    resolve_checkpoint_path,
    save_checkpoint,
)
from repro.train.trainer import (
    ParallelConfig,
    Trainer,
    TrainingConfig,
    TrainingHistory,
    train_model,
)

__all__ = [
    "ParallelConfig",
    "Trainer",
    "TrainingConfig",
    "TrainingHistory",
    "train_model",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_metadata",
    "resolve_checkpoint_path",
    "CheckpointMismatchError",
    "CHECKPOINT_FORMAT_VERSION",
]
