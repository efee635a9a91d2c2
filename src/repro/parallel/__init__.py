"""`repro.parallel` — multi-process execution layer.

Two entry points over one fork-based, rank-addressed
:class:`~repro.parallel.pool.WorkerPool` (heavy read-only state — graph
and model — is inherited copy-on-write; only payloads and results are
pickled):

* :class:`~repro.parallel.trainer.DataParallelTrainer` — per-batch
  gradient sharding with a parameter-server average before the Adam step;
* :class:`~repro.parallel.evaluation.ParallelEvaluator` — ranking/
  classification protocols with per-query scoring fanned across workers
  (bitwise-identical metrics).

Serving scores in the server process.  A two-worker scoring pool behind
the micro-batching scheduler served cold ``/topk`` queries at a median of
91/s against 102/s in-process (2 vCPUs, 6 pairs), so there is none.

``workers=1`` everywhere means *no* processes and the untouched serial
code path.  Determinism: per-rank RNG streams are pinned from
``(seed, rank)`` via :mod:`repro.utils.seeding`; shard placement is
deterministic (shard k → rank k), so identical runs produce identical
results.

Training has one parameter transport: the parent broadcasts the state
dict inside every shard payload.
"""

from repro.parallel.evaluation import (
    ParallelEvaluator,
    score_query_lists,
    score_triples_sharded,
)
from repro.parallel.pool import (
    WorkerError,
    WorkerPool,
    fork_available,
    register_op,
    usable_cpus,
)
from repro.parallel.sharding import (
    merge_shards,
    pack_triples,
    shard_list,
    shard_sizes,
    unpack_triples,
)
from repro.parallel.trainer import DataParallelTrainer, reduce_gradients
from repro.train.trainer import ParallelConfig

__all__ = [
    "DataParallelTrainer",
    "ParallelConfig",
    "ParallelEvaluator",
    "WorkerError",
    "WorkerPool",
    "fork_available",
    "merge_shards",
    "pack_triples",
    "reduce_gradients",
    "register_op",
    "score_query_lists",
    "score_triples_sharded",
    "shard_list",
    "shard_sizes",
    "unpack_triples",
    "usable_cpus",
]
