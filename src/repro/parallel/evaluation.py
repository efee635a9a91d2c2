"""Parallel evaluation: fan ranking-candidate scoring across workers.

The entity-prediction protocol is two phases with very different needs:

* **candidate drawing** consumes the evaluation RNG stream and must happen
  in protocol order — it stays in the parent
  (:func:`repro.eval.protocol.build_ranking_queries`, shared verbatim with
  the serial path, so the candidate lists are identical by construction);
* **scoring** is pure per-query work — each query's candidate list goes
  through ``model.score_triples`` exactly as the serial loop would, just
  on another rank.

Because every per-query score array is produced by the same code on the
same inputs, the merged ranks — and therefore MRR / Hits@k — are
**bitwise identical** to the serial protocol, not merely close.  The same
argument covers triple classification (per-sample scoring is independent
of batch composition on the non-fused path).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.autograd import no_grad
from repro.autograd.engine import SCORE_DTYPE
from repro.core.base import SubgraphScoringModel
from repro.kg.graph import KnowledgeGraph
from repro.kg.triples import Triple
from repro.parallel.pool import WorkerPool, register_op
from repro.parallel.sharding import (
    merge_shards,
    pack_query_lists,
    shard_list,
    unpack_query_lists,
)


@register_op("score_queries")
def _score_queries_op(
    state: Dict[str, Any], payload: Dict[str, np.ndarray]
) -> List[np.ndarray]:
    """Worker side: score each candidate list with the serial protocol's
    own entry point (``score_triples``) under the same uniform ``no_grad``
    guard — covers generic rule/embedding scorers that do not self-guard
    the way :class:`SubgraphScoringModel` does.

    The shard arrives packed as ``{"triples": (n, 3) array, "lengths":
    per-query lengths}`` (slim transport)."""
    query_lists = unpack_query_lists(payload["triples"], payload["lengths"])
    model: SubgraphScoringModel = state["context"]["model"]
    graph: KnowledgeGraph = state["context"]["graph"]
    with no_grad():
        return [
            model.score_triples(graph, candidates) for candidates in query_lists
        ]


def score_query_lists(
    pool: WorkerPool, query_lists: Sequence[List[Triple]]
) -> List[np.ndarray]:
    """Per-query score arrays, order-aligned with ``query_lists``, computed
    across the pool's ranks (contiguous query shards)."""
    query_lists = list(query_lists)
    if not query_lists:
        return []
    payloads = []
    for shard in shard_list(query_lists, pool.workers):
        flat, lengths = pack_query_lists(shard)
        payloads.append({"triples": flat, "lengths": lengths})
    return merge_shards(pool.run("score_queries", payloads))


def score_triples_sharded(
    pool: WorkerPool, triples: Sequence[Triple]
) -> np.ndarray:
    """One flat score array for ``triples``, sharded across ranks.

    Per-sample scoring is independent of batch composition, so this is
    bitwise identical to one serial ``model.score_triples`` call.
    """
    triples = list(triples)
    if not triples:
        return np.empty(0, dtype=SCORE_DTYPE)
    payloads = []
    for shard in shard_list(triples, pool.workers):
        flat, lengths = pack_query_lists([shard])
        payloads.append({"triples": flat, "lengths": lengths})
    per_shard = merge_shards(pool.run("score_queries", payloads))
    return np.concatenate(
        [np.asarray(scores, dtype=SCORE_DTYPE).reshape(-1) for scores in per_shard]
    )


class ParallelEvaluator:
    """Both evaluation protocols over a pinned ``(model, graph)`` pool.

    A thin lifetime wrapper: fork once, run any number of evaluations
    against the same test graph, close.  Results are bitwise identical to
    :func:`repro.eval.protocol.evaluate_entity_prediction` /
    ``evaluate_triple_classification`` with the same RNG.
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
            graph.warm()  # share the CSR with the children copy-on-write
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
    def entity_prediction(
        self,
        targets,
        rng: np.random.Generator,
        num_negatives: int = 49,
    ):
        from repro.eval.protocol import evaluate_entity_prediction

        return evaluate_entity_prediction(
            self.model,
            self.graph,
            targets,
            rng,
            num_negatives=num_negatives,
            pool=self.pool,
        )

    def triple_classification(self, targets, rng: np.random.Generator):
        from repro.eval.protocol import evaluate_triple_classification

        return evaluate_triple_classification(
            self.model, self.graph, targets, rng, pool=self.pool
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._owns_pool:
            self.pool.close()

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
