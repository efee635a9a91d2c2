"""Sharded sample preparation (the extraction → line-graph → plan pipeline).

``prepare_many`` is embarrassingly parallel across target triples: each
sample depends only on its own K-hop neighborhood of the (read-only)
training graph.  :class:`ShardedPreparer` splits a batch into contiguous
shards, runs the model's own ``prepare_many`` per shard in the worker
pool, and concatenates the results back in input order — exactly the
samples the serial call would have produced (pinned by
``tests/test_parallel_equivalence.py``).

The prepared samples are optionally installed into the parent model's
memoised sample cache, so a parallel prepare pass warms the serial scoring
path (training epochs, eval ranking) for free.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.base import SubgraphScoringModel
from repro.kg.graph import KnowledgeGraph
from repro.kg.triples import Triple
from repro.parallel.pool import WorkerPool, register_op
from repro.parallel.sharding import (
    merge_shards,
    pack_triples,
    shard_list,
    unpack_triples,
)


@register_op("prepare")
def _prepare_op(state: Dict[str, Any], payload: np.ndarray) -> List[Any]:
    """Worker side: the model's own batched prepare on this rank's shard.

    The shard arrives as a packed ``(n, 3)`` int64 array (slim transport)."""
    triples: List[Triple] = unpack_triples(payload)
    if not triples:
        return []
    model: SubgraphScoringModel = state["context"]["model"]
    graph: KnowledgeGraph = state["context"]["graph"]
    return model.prepare_many(graph, triples)


class ShardedPreparer:
    """Partition ``prepare_many`` batches across a worker pool.

    Parameters
    ----------
    model / graph:
        The scoring model and the read-only graph the pool was (or will
        be) forked around.
    workers:
        Pool size when the preparer owns its pool (ignored if ``pool`` is
        given).  ``1`` prepares inline through the identical code path.
    pool:
        An existing :class:`WorkerPool` whose context holds this model and
        graph — lets trainers/evaluators share one set of processes.
    task_deadline_s / max_task_retries:
        Fault-tolerance knobs forwarded to the owned pool (ignored when
        ``pool`` is given): per-shard deadline before the worker is deemed
        wedged, and how many times a shard lost to a crash is requeued.
    """

    def __init__(
        self,
        model: SubgraphScoringModel,
        graph: KnowledgeGraph,
        workers: int = 1,
        pool: Optional[WorkerPool] = None,
        seed: int = 0,
        task_deadline_s: Optional[float] = None,
        max_task_retries: int = 2,
    ) -> None:
        self.model = model
        self.graph = graph
        if pool is None:
            # Warm the CSR adjacency BEFORE forking so every worker shares
            # the parent's index pages copy-on-write instead of each
            # rebuilding it.
            graph.warm()
            pool = WorkerPool(
                workers,
                context={"model": model, "graph": graph},
                seed=seed,
                task_deadline_s=task_deadline_s,
                max_task_retries=max_task_retries,
            )
            self._owns_pool = True
        else:
            self._owns_pool = False
        self.pool = pool

    # ------------------------------------------------------------------
    def prepare_many(
        self,
        graph: KnowledgeGraph,
        triples: Sequence[Triple],
        populate_cache: bool = True,
    ) -> List[Any]:
        """Order-aligned samples for ``triples`` — the parallel counterpart
        of ``model.prepare_many``.

        ``graph`` must be the pool's pinned graph (workers inherited it at
        fork time; scoring a different graph there would silently answer
        from the wrong adjacency).  With ``populate_cache`` the merged
        samples are installed into the parent model's memoised cache.
        """
        if graph is not self.graph:
            raise ValueError(
                "ShardedPreparer is pinned to the graph its workers were "
                "forked around; rebuild the preparer to switch graphs"
            )
        triples = [tuple(int(x) for x in triple) for triple in triples]
        if not triples:
            return []
        shards = shard_list(triples, self.pool.workers)
        samples = merge_shards(
            self.pool.run("prepare", [pack_triples(shard) for shard in shards])
        )
        if populate_cache:
            self.model.install_samples(graph, triples, samples)
        return samples

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._owns_pool:
            self.pool.close()

    def __enter__(self) -> "ShardedPreparer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
