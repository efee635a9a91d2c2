"""Worker-pool scoring backend for the serving layer.

The micro-batching scheduler coalesces concurrent requests into one
batched session ``score`` call; with a scoring pool attached, the session
shards that batch's cache misses across worker processes, each scoring its
shard through the same (fused, no-grad) path the serial session uses.

Workers inherit the model registry and the pinned (warmed) graph at fork
time.  Models registered *after* the pool was created only exist in the
parent; :meth:`~repro.serve.session.InferenceSession.score` guards for
this by falling back to serial scoring for model keys the pool has never
seen (see ``known_keys``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.autograd import no_grad
from repro.autograd.engine import SCORE_DTYPE
from repro.kg.graph import KnowledgeGraph
from repro.kg.triples import Triple
from repro.parallel.pool import WorkerPool, register_op
from repro.parallel.sharding import pack_triples, shard_list, unpack_triples


@register_op("serve_score")
def _serve_score_op(state: Dict[str, Any], payload: Dict[str, Any]) -> np.ndarray:
    """Worker side: resolve the model from the inherited registry and score
    this rank's shard through the session's scoring semantics.

    Shard triples arrive packed as a ``(n, 3)`` int64 array (slim
    transport)."""
    triples: List[Triple] = unpack_triples(payload["triples"])
    if not triples:
        return np.empty(0, dtype=SCORE_DTYPE)
    context = state["context"]
    registry = context["registry"]
    graph: KnowledgeGraph = context["graph"]
    entry = registry.resolve(payload["model"])
    scorer = (
        entry.model.score_triples_fused
        if context.get("use_fused", True)
        and hasattr(entry.model, "score_triples_fused")
        else entry.model.score_triples
    )
    with no_grad():
        return np.asarray(scorer(graph, triples), dtype=SCORE_DTYPE).reshape(-1)


def scoring_pool(
    registry,
    graph: KnowledgeGraph,
    workers: int,
    use_fused: bool = True,
    seed: int = 0,
    task_deadline_s: Optional[float] = None,
    max_task_retries: int = 2,
) -> WorkerPool:
    """Fork a pool around the registry + served graph for session scoring.

    Call only after every served model is registered — later registrations
    are invisible to the forked children (the session falls back to serial
    scoring for those).  ``task_deadline_s``/``max_task_retries`` bound how
    long one wedged scoring shard can stall a serving batch and how often a
    crashed rank's shard is requeued before the request fails.
    """
    graph.warm()  # children share the CSR/fingerprint pages copy-on-write
    return WorkerPool(
        workers,
        context={"registry": registry, "graph": graph, "use_fused": use_fused},
        seed=seed,
        task_deadline_s=task_deadline_s,
        max_task_retries=max_task_retries,
    )


def known_keys(registry) -> frozenset:
    """The registry keys a pool forked *now* would know (snapshot)."""
    return frozenset(entry.key for entry in registry.entries())


def score_batch_sharded(
    pool: WorkerPool, model_key: str, triples: Sequence[Triple]
) -> np.ndarray:
    """Scores for ``triples`` (order-aligned), sharded across the pool."""
    triples = list(triples)
    if not triples:
        return np.empty(0, dtype=SCORE_DTYPE)
    payloads = [
        {"model": model_key, "triples": pack_triples(shard)}
        for shard in shard_list(triples, pool.workers)
    ]
    parts = pool.run("serve_score", payloads)
    return np.concatenate(
        [np.asarray(part, dtype=SCORE_DTYPE).reshape(-1) for part in parts]
    )
