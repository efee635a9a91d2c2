"""Generic trainer for subgraph-scoring models (paper §III-E, §IV-B).

Training contrasts positive triples from the training graph against
uniformly corrupted negatives with a margin ranking loss (eq. 12), using
Adam (lr 1e-3), batch size 16 and margin 10 — the paper's configuration.

Subgraph preparation is memoised inside the models, so epochs after the
first are dominated by the numpy forward/backward passes.  By default the
step is *one-pass*: positives and negatives ride a single merged scoring
call (one disjoint-union forward and one backward per step instead of
two), halving the engine's graph traversals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.autograd import Adam, clip_grad_norm, margin_ranking_loss
from repro.core.base import SubgraphScoringModel
from repro.eval.protocol import evaluate_triple_classification
from repro.kg.graph import KnowledgeGraph
from repro.kg.sampling import negative_triples
from repro.kg.triples import TripleSet
from repro.obs import get_registry, span
from repro.utils.seeding import seeded_rng


@dataclass(frozen=True)
class ParallelConfig:
    """Multi-process execution section (see :mod:`repro.parallel`).

    ``workers=1`` — the default everywhere — keeps the serial code path
    completely untouched (no processes, no queues).  With ``workers > 1``
    training shards each batch across a fork-based worker pool
    (data-parallel gradients, averaged in the parent before the Adam
    step, the state dict riding in every shard payload) and evaluation
    fans ranking queries across the same pool.
    """

    workers: int = 1
    eval_workers: Optional[int] = None  # None = same as ``workers``
    # Fault-tolerance knobs forwarded to the worker pool: how long one
    # task (batch shard / query shard) may run before its worker is deemed
    # wedged and recycled, and how many times a task lost to a worker
    # crash or an expired deadline is requeued before the run fails.
    task_deadline_s: Optional[float] = None
    max_task_retries: int = 2

    def __post_init__(self) -> None:
        # Callers branch on ``workers > 1``, so a zero or negative count
        # would otherwise fall through to the serial path unnoticed.
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.eval_workers is not None and self.eval_workers < 1:
            raise ValueError(f"eval_workers must be >= 1, got {self.eval_workers}")

    def resolved_eval_workers(self) -> int:
        return self.workers if self.eval_workers is None else self.eval_workers


@dataclass(frozen=True)
class TrainingConfig:
    """Optimisation hyper-parameters (paper defaults, scaled epochs)."""

    epochs: int = 10
    batch_size: int = 16
    learning_rate: float = 1e-3
    margin: float = 10.0
    clip_norm: float = 5.0
    max_triples_per_epoch: Optional[int] = None
    validate_every: int = 0  # 0 = no intra-training validation
    patience: int = 3
    seed: int = 0
    use_fused_scoring: bool = True  # batched scoring (fused forward on RMPI)
    one_pass_step: bool = True  # positives+negatives in ONE forward/backward
    parallel: ParallelConfig = field(default_factory=ParallelConfig)


@dataclass
class TrainingHistory:
    """Per-epoch records produced by :meth:`Trainer.fit`."""

    losses: List[float] = field(default_factory=list)
    validation_auc_pr: List[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False


class Trainer:
    """Margin-ranking trainer over a training graph's target triples."""

    def __init__(
        self,
        model: SubgraphScoringModel,
        graph: KnowledgeGraph,
        train_triples: TripleSet,
        valid_triples: Optional[TripleSet] = None,
        config: Optional[TrainingConfig] = None,
    ) -> None:
        self.model = model
        self.graph = graph
        self.train_triples = train_triples
        self.valid_triples = valid_triples
        self.config = config or TrainingConfig()
        self.optimizer = Adam(model.parameters(), lr=self.config.learning_rate)
        self._rng = seeded_rng(self.config.seed)
        self._known = set(graph.triples) | set(train_triples)
        self._entities = sorted(graph.triples.entities())

    # ------------------------------------------------------------------
    def fit(self) -> TrainingHistory:
        history = TrainingHistory()
        config = self.config
        best_auc = -np.inf
        best_state = None
        bad_epochs = 0
        for epoch in range(config.epochs):
            history.losses.append(self._run_epoch())
            should_validate = (
                config.validate_every > 0
                and self.valid_triples is not None
                and len(self.valid_triples) > 0
                and (epoch + 1) % config.validate_every == 0
            )
            if should_validate:
                auc = self._validate(epoch)
                history.validation_auc_pr.append(auc)
                if auc > best_auc:
                    best_auc = auc
                    best_state = self.model.state_dict()
                    history.best_epoch = epoch
                    bad_epochs = 0
                else:
                    bad_epochs += 1
                    if bad_epochs >= config.patience:
                        history.stopped_early = True
                        break
        if best_state is not None:
            self.model.load_state_dict(best_state)
        return history

    # ------------------------------------------------------------------
    def _run_epoch(self) -> float:
        config = self.config
        self.model.train()
        triples = self.train_triples
        if (
            config.max_triples_per_epoch is not None
            and len(triples) > config.max_triples_per_epoch
        ):
            triples = triples.sample(config.max_triples_per_epoch, self._rng)
        positives = list(triples)
        order = self._rng.permutation(len(positives))
        epoch_loss = 0.0
        num_batches = 0
        for start in range(0, len(positives), config.batch_size):
            batch = [positives[i] for i in order[start : start + config.batch_size]]
            negatives = negative_triples(
                TripleSet(batch),
                num_entities=self.graph.num_entities,
                rng=self._rng,
                known=self._known,
                candidate_entities=self._entities,
            )
            with span("train.step"):
                step_loss = self._batch_step(batch, negatives)
            if step_loss is None:
                continue
            epoch_loss += step_loss
            num_batches += 1
            get_registry().counter("train.triples").inc(len(batch))
        get_registry().counter("train.epochs").inc()
        self.model.eval()
        return epoch_loss / max(num_batches, 1)

    def _batch_step(self, batch, negatives) -> Optional[float]:
        """Forward/backward/optimise one batch; returns its loss.

        The only trainer hook subclasses override: :meth:`_run_epoch` is
        the single owner of the epoch's RNG stream (subsampling,
        permutation, negative drawing), so changing step *execution* —
        e.g. the data-parallel fan-out — can never desynchronise the data
        order from the serial trainer.  Returning ``None`` skips the step
        (no optimiser state advanced).
        """
        config = self.config
        score_fn = (
            self.model.score_batch_fused
            if config.use_fused_scoring
            else self.model.score_batch
        )
        if config.one_pass_step:
            # One merged forward/backward per step: positives and
            # negatives ride the same (disjoint-union) scoring pass,
            # halving the graph traversals of the two-call layout.
            scores = score_fn(self.graph, list(batch) + list(negatives))
            pos_scores = scores[: len(batch)]
            neg_scores = scores[len(batch) :]
        else:
            pos_scores = score_fn(self.graph, batch)
            neg_scores = score_fn(self.graph, negatives)
        loss = margin_ranking_loss(pos_scores, neg_scores, margin=config.margin)
        self.optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(self.model.parameters(), config.clip_norm)
        self.optimizer.step()
        return float(loss.data)

    def _validate(self, epoch: int) -> float:
        result = evaluate_triple_classification(
            self.model,
            self.graph,
            self.valid_triples,
            seeded_rng((self.config.seed, 7, epoch)),
        )
        return result.auc_pr


def train_model(
    model: SubgraphScoringModel,
    graph: KnowledgeGraph,
    train_triples: TripleSet,
    valid_triples: Optional[TripleSet] = None,
    config: Optional[TrainingConfig] = None,
) -> TrainingHistory:
    """Convenience one-shot training entry point.

    Dispatches to the data-parallel trainer when the config's ``parallel``
    section asks for more than one worker; otherwise the serial
    :class:`Trainer` runs exactly as before.
    """
    config = config or TrainingConfig()
    if config.parallel.workers > 1:
        from repro.parallel.trainer import DataParallelTrainer

        return DataParallelTrainer(
            model, graph, train_triples, valid_triples, config
        ).fit()
    return Trainer(model, graph, train_triples, valid_triples, config).fit()
