"""`repro.parallel` — multi-process execution layer.

Three entry points over one fork-based, rank-addressed
:class:`~repro.parallel.pool.WorkerPool` (heavy read-only state — graph,
model, registry — is inherited copy-on-write; only payloads and results
are pickled):

* :class:`~repro.parallel.trainer.DataParallelTrainer` — per-batch
  gradient sharding with a parameter-server average before the Adam step;
* :class:`~repro.parallel.evaluation.ParallelEvaluator` — ranking/
  classification protocols with per-query scoring fanned across workers
  (bitwise-identical metrics);
* :func:`~repro.parallel.serving.scoring_pool` — the serving session's
  worker-pool scoring backend behind the micro-batching scheduler.

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
from repro.parallel.serving import known_keys, score_batch_sharded, scoring_pool
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
    "known_keys",
    "merge_shards",
    "pack_triples",
    "reduce_gradients",
    "register_op",
    "score_batch_sharded",
    "score_query_lists",
    "score_triples_sharded",
    "scoring_pool",
    "shard_list",
    "shard_sizes",
    "unpack_triples",
    "usable_cpus",
]
