"""Data-parallel training: shard the batch, average the gradients.

The classic parameter-server layout, specialised to this repo's numpy
engine:

1. the parent samples the batch and its negatives (the *same* RNG stream
   as the serial :class:`~repro.train.trainer.Trainer`, so the data order
   is identical for a given seed);
2. the positive/negative pairs are split into contiguous shards, one per
   rank; each worker loads the broadcast parameters, runs the serial
   step's one-pass forward/backward
   (:func:`~repro.train.trainer.margin_step_loss`) on its shard, and
   ships back ``(loss, num_pairs, gradients)``;
3. the parent reduces the shard gradients with a pair-count-weighted
   average, which reconstructs the full-batch gradient of the mean-reduced
   margin loss exactly (up to float summation order):
   ``∇L = Σ_k (n_k / N) ∇L_k``;
4. gradient clipping and the Adam step run once, in the parent, on the
   authoritative parameters — workers never hold optimizer state.

Parameter transport is the state dict itself: the parent broadcasts
``model.state_dict()`` inside every shard payload and workers load it
before their forward pass.  The pool is forked after ``graph.warm()``, so
the graph's CSR pages are shared copy-on-write and never travel.

For full-batch gradients this is exact-equivalent to the serial one-pass
step (pinned, with dropout off, by ``tests/test_parallel_equivalence.py``);
with dropout on, per-rank RNG streams pinned from ``(seed, rank)`` make two
identical parallel runs produce bitwise-identical checkpoints.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

# margin_ranking_loss is kept as a module attribute: perfbench's traced
# runs wrap it here as well as in repro.train.trainer.
from repro.autograd import clip_grad_norm, margin_ranking_loss  # noqa: F401
from repro.parallel.pool import WorkerPool, register_op
from repro.parallel.sharding import pack_triples, shard_list, unpack_triples
from repro.train.trainer import Trainer, TrainingHistory, margin_step_loss


@register_op("train_step")
def _train_step_op(state: Dict[str, Any], payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker side of one data-parallel step: forward/backward on a shard.

    Loads the broadcast state dict, scores the shard's positives and
    negatives in one merged pass (the serial step's
    :func:`~repro.train.trainer.margin_step_loss`), backpropagates the
    shard's mean-reduced margin loss and returns the gradients inline.
    """
    positives = unpack_triples(payload["positives"])
    negatives = unpack_triples(payload["negatives"])
    if not positives:
        return {"loss": 0.0, "pairs": 0, "grads": {}}
    model = state["context"]["model"]
    graph = state["context"]["graph"]
    model.load_state_dict(payload["params"])
    model.train()
    model.zero_grad()
    loss = margin_step_loss(model, graph, positives, negatives, payload["margin"])
    loss.backward()
    return {
        "loss": float(loss.data),
        "pairs": len(positives),
        "grads": {
            name: (param.grad.copy() if param.grad is not None else None)
            for name, param in model.named_parameters()
        },
    }


def reduce_gradients(
    shard_results: List[Dict[str, Any]]
) -> Tuple[Dict[str, Optional[np.ndarray]], float, int]:
    """Pair-count-weighted average of shard gradients (and losses).

    A parameter untouched by every shard stays ``None`` (the optimizer
    skips it, matching the serial backward); a shard that never saw the
    parameter contributes an implicit zero, exactly as its pairs contribute
    zero gradient inside a serial full-batch backward.

    The accumulation never mutates a shard's gradient array: the first
    contribution allocates a fresh ``weight * grad`` product, and only
    that parent-owned accumulator is updated in place afterwards, so the
    shard results a caller passes in come back untouched.
    """
    total_pairs = sum(result["pairs"] for result in shard_results)
    if total_pairs == 0:
        return {}, 0.0, 0
    reduced: Dict[str, Optional[np.ndarray]] = {}
    loss = 0.0
    for result in shard_results:
        if result["pairs"] == 0:
            continue
        weight = result["pairs"] / total_pairs
        loss += weight * result["loss"]
        for name, grad in result["grads"].items():
            if grad is None:
                reduced.setdefault(name, None)
                continue
            current = reduced.get(name)
            if current is None:
                reduced[name] = weight * grad
            else:
                current += weight * grad
    return reduced, loss, total_pairs


class DataParallelTrainer(Trainer):
    """Margin-ranking trainer whose batch step fans out over a worker pool.

    Drop-in for :class:`~repro.train.trainer.Trainer` — same constructor,
    same :meth:`fit` contract — reading the worker count from
    ``config.parallel``.  Batch composition, negative sampling, gradient
    clipping, the Adam trajectory, validation, and early stopping all run
    in the parent exactly as in the serial trainer; only the
    forward/backward of each batch is sharded.
    """

    def __init__(self, *args, pool: Optional[WorkerPool] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._pool = pool
        self._owns_pool = pool is None

    # ------------------------------------------------------------------
    def fit(self) -> TrainingHistory:
        parallel = self.config.parallel
        if self._pool is None:
            # Warm the adjacency BEFORE forking so the workers share the
            # parent's CSR pages copy-on-write.
            self.graph.warm()
            self._pool = WorkerPool(
                parallel.workers,
                context={"model": self.model, "graph": self.graph},
                seed=self.config.seed,
                task_deadline_s=parallel.task_deadline_s,
                max_task_retries=parallel.max_task_retries,
            )
        try:
            return super().fit()
        finally:
            if self._owns_pool and self._pool is not None:
                self._pool.close()
                self._pool = None

    # ------------------------------------------------------------------
    def _batch_step(self, batch, negatives) -> Optional[float]:
        """One data-parallel step: broadcast → shard forward/backward →
        weighted gradient average → parent-side clip + Adam.

        Overrides only the step-execution hook; the epoch's RNG stream
        (subsampling, permutation, negatives) stays owned by the base
        :meth:`Trainer._run_epoch`, so the data order matches the serial
        trainer batch for batch.
        """
        config = self.config
        pool = self._pool
        assert pool is not None, "DataParallelTrainer.fit() owns the pool"
        params = self.model.state_dict()
        pos_shards = shard_list(list(batch), pool.workers)
        neg_shards = shard_list(list(negatives), pool.workers)
        payloads = [
            {
                "params": params,
                "positives": pack_triples(pos_shard),
                "negatives": pack_triples(neg_shard),
                "margin": config.margin,
            }
            for pos_shard, neg_shard in zip(pos_shards, neg_shards)
        ]
        grads, loss, total_pairs = reduce_gradients(pool.run("train_step", payloads))
        if total_pairs == 0:
            return None
        self.optimizer.zero_grad()
        for name, param in self.model.named_parameters():
            param.grad = grads.get(name)
        clip_grad_norm(self.model.parameters(), config.clip_norm)
        self.optimizer.step()
        return loss
