"""The RMPI model (paper §III).

Scoring pipeline for a target triple ``(u, r_t, v)``:

1. extract the K-hop enclosing subgraph and transform it to relation view
   (§III-B);
2. compile the Algorithm-1 pruned message plan and run the relational
   message passing layers (§III-C), with target-aware attention when the TA
   variant is on;
3. (NE variant) aggregate the disclosing subgraph's one-hop relational
   neighborhood (§III-F), read straight from the graph's CSR incidence;
4. score via eq. 11, or the fusion heads eq. 15/16.

Unseen relations need no special casing at inference: their initial
embedding comes from the embedding provider (random row or schema
projection) and the *trained aggregation functions* build their effective
representation from neighboring relations (§III-D) — the paper's central
mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.autograd import ModuleList, Tensor, no_grad, ops
from repro.autograd.engine import SCORE_DTYPE
from repro.autograd.segment import gather
from repro.core import batching
from repro.core.base import SubgraphScoringModel
from repro.core.config import RMPIConfig
from repro.core.disclosing import DisclosingAggregator
from repro.core.embeddings import RandomInitEmbedding, SchemaInitEmbedding
from repro.core.layers import RelationalMessagePassingLayer
from repro.core.scoring import ScoringHead
from repro.kg.graph import KnowledgeGraph
from repro.kg.triples import Triple
from repro.subgraph.extraction import extract_subgraphs_many
from repro.subgraph.labeling import encode_labels, label_feature_dim
from repro.subgraph.linegraph import (
    build_relational_graphs_many,
    target_one_hop_relations_many,
)
from repro.subgraph.pruning import (
    MessagePlan,
    build_message_plans_many,
    empty_message_plan,
)


@dataclass(frozen=True)
class RMPISample:
    """A prepared target triple: pruned plan + disclosing neighborhood."""

    triple: Triple
    plan: MessagePlan
    disclosing_relations: Optional[np.ndarray]
    enclosing_empty: bool
    entity_clue: Optional[np.ndarray] = None


class RMPI(SubgraphScoringModel):
    """Relational Message Passing network for Inductive KGC.

    Parameters
    ----------
    num_relations:
        Size of the global relation id space (seen + unseen ids).
    rng:
        Generator for parameter initialisation and edge dropout.
    config:
        :class:`~repro.core.config.RMPIConfig`; defaults reproduce the
        paper's RMPI-base.
    schema_vectors:
        Optional ``(num_relations, schema_dim)`` TransE vectors; switches
        the initial relation representations to the *Schema Enhanced*
        setting (eq. 10).
    """

    def __init__(
        self,
        num_relations: int,
        rng: np.random.Generator,
        config: Optional[RMPIConfig] = None,
        schema_vectors: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__()
        self.config = config or RMPIConfig()
        self.num_relations = num_relations
        self._rng = rng
        dim = self.config.embed_dim
        if schema_vectors is not None:
            if schema_vectors.shape[0] < num_relations:
                raise ValueError("schema vectors must cover all relations")
            self.embedding = SchemaInitEmbedding(schema_vectors, dim, rng)
        else:
            self.embedding = RandomInitEmbedding(num_relations, dim, rng)
        self.layers = ModuleList(
            [RelationalMessagePassingLayer(dim, rng) for _ in range(self.config.num_layers)]
        )
        self.ne = DisclosingAggregator(dim, rng) if self.config.use_disclosing else None
        clue_dim = (
            label_feature_dim(self.config.num_hops) if self.config.use_entity_clues else 0
        )
        self.head = ScoringHead(
            dim,
            rng,
            fusion=self.config.fusion,
            use_disclosing=self.config.use_disclosing,
            clue_dim=clue_dim,
        )

    # ------------------------------------------------------------------
    def prepare(self, graph: KnowledgeGraph, triple: Triple) -> RMPISample:
        return self.prepare_many(graph, [triple])[0]

    def prepare_many(self, graph: KnowledgeGraph, triples) -> list:
        """Batched sample construction: shared numpy passes end to end.

        Enclosing subgraphs for the whole batch come from
        :func:`extract_subgraphs_many`, so the 50 candidates of one ranking
        query share their K-hop frontier BFS.  Only the non-empty subgraphs
        go on to the batched relation-view transform and Algorithm-1
        compiler (:func:`build_relational_graphs_many` /
        :func:`build_message_plans_many`, one pass each).  An empty one
        (§III-F) gets the shared read-only :func:`empty_message_plan` of
        its relation: a lone node that every layer passes through
        unchanged, so the fused forward needs no special case.  The NE
        variant needs only the target's one-hop relational neighbourhood in
        the disclosing subgraph (eq. 13), which
        :func:`target_one_hop_relations_many` reads straight from the
        graph's CSR incidence in one pass for the batch; no disclosing
        subgraph is extracted.
        """
        triples = [tuple(int(x) for x in triple) for triple in triples]
        enclosings = extract_subgraphs_many(graph, triples, self.config.num_hops)
        neighbourhoods: list = (
            target_one_hop_relations_many(graph, triples)
            if self.config.use_disclosing
            else [None] * len(triples)
        )
        num_layers = self.config.num_layers
        empties = [enclosing.is_empty for enclosing in enclosings]
        compiled = iter(
            build_message_plans_many(
                build_relational_graphs_many(
                    [e for e, empty in zip(enclosings, empties) if not empty]
                ),
                num_layers,
            )
        )
        samples: list = []
        for triple, enclosing, empty, disclosing_relations in zip(
            triples, enclosings, empties, neighbourhoods
        ):
            entity_clue: Optional[np.ndarray] = None
            if self.config.use_entity_clues:
                # Entity-side evidence (future-work item 2): mean double-radius
                # label over the enclosing subgraph's entities summarises its
                # shape around the target pair.
                label_features, _index = encode_labels(enclosing)
                entity_clue = label_features.mean(axis=0, keepdims=True)
            samples.append(
                RMPISample(
                    triple=triple,
                    plan=(
                        empty_message_plan(triple[1], num_layers)
                        if empty
                        else next(compiled)
                    ),
                    disclosing_relations=disclosing_relations,
                    enclosing_empty=empty,
                    entity_clue=entity_clue,
                )
            )
        return samples

    # ------------------------------------------------------------------
    def score_sample(self, sample: RMPISample) -> Tensor:
        plan = sample.plan
        features = self.embedding(plan.node_relations)
        num_layers = len(self.layers)
        for k, layer in enumerate(self.layers):
            is_last = k == num_layers - 1
            edges = plan.layers[k].edges
            edge_keep = None
            if self.training and self.config.dropout > 0.0 and len(edges):
                edge_keep = self._rng.random(len(edges)) >= self.config.dropout
            features = layer(
                features,
                edges,
                target_index=plan.target_index,
                use_attention=self.config.use_target_attention and not is_last,
                is_last=is_last,
                edge_keep=edge_keep,
                attention_kind=self.config.attention_kind,
            )
        enclosing_repr = gather(features, np.asarray([plan.target_index]))

        disclosing_repr: Optional[Tensor] = None
        if self.ne is not None:
            relation = sample.triple[1]
            target_embedding = self.embedding(np.asarray([relation]))
            neighbors = sample.disclosing_relations
            if neighbors is not None and len(neighbors):
                neighbor_embeddings = self.embedding(neighbors)
            else:
                neighbor_embeddings = Tensor(
                    np.zeros(
                        (0, self.config.embed_dim),
                        dtype=target_embedding.data.dtype,
                    )
                )
            disclosing_repr = self.ne(neighbor_embeddings, target_embedding)

        entity_clue: Optional[Tensor] = None
        if self.config.use_entity_clues and sample.entity_clue is not None:
            entity_clue = Tensor(
                np.asarray(sample.entity_clue, dtype=enclosing_repr.data.dtype)
            )

        return self.head(enclosing_repr, disclosing_repr, entity_clue)

    # ------------------------------------------------------------------
    def score_samples_batched(self, samples) -> Tensor:
        """Score many samples in one fused pass (disjoint-union batching).

        Numerically equivalent to per-sample :meth:`score_sample` in eval
        mode (dropout masks differ in training), but amortises the numpy
        dispatch overhead across the batch.  Returns an ``(n, 1)`` tensor
        ordered like ``samples``.
        """
        samples = list(samples)
        if not samples:
            raise ValueError("empty batch")
        batched = batching.merge_plans([sample.plan for sample in samples])
        features = self.embedding(batched.node_relations)
        num_layers = len(self.layers)
        for k, layer in enumerate(self.layers):
            is_last = k == num_layers - 1
            layer_plan = batched.layers[k]
            edge_keep = None
            if self.training and self.config.dropout > 0.0 and len(layer_plan.edges):
                edge_keep = self._rng.random(len(layer_plan.edges)) >= self.config.dropout
            features = layer(
                features,
                layer_plan.edges,
                target_index=0,  # unused when edge_targets given
                use_attention=self.config.use_target_attention and not is_last,
                is_last=is_last,
                edge_keep=edge_keep,
                attention_kind=self.config.attention_kind,
                edge_targets=layer_plan.edge_targets,
            )
        enclosing = gather(features, batched.target_indices)  # (n, dim)

        disclosing: Optional[Tensor] = None
        if self.ne is not None:
            # One ragged concat over every sample's disclosing neighborhood:
            # a single embedding lookup + one segment-attention pass replace
            # the per-sample loop of tiny NE forwards.
            counts = np.asarray(
                [
                    len(s.disclosing_relations)
                    if s.disclosing_relations is not None
                    else 0
                    for s in samples
                ],
                dtype=np.int64,
            )
            target_embeddings = self.embedding(
                np.asarray([s.triple[1] for s in samples], dtype=np.int64)
            )
            if int(counts.sum()):
                all_neighbors = np.concatenate(
                    [
                        s.disclosing_relations
                        for s in samples
                        if s.disclosing_relations is not None
                        and len(s.disclosing_relations)
                    ]
                )
                neighbor_embeddings = self.embedding(all_neighbors)
            else:
                neighbor_embeddings = Tensor(
                    np.zeros(
                        (0, self.config.embed_dim),
                        dtype=target_embeddings.data.dtype,
                    )
                )
            segment_ids = np.repeat(np.arange(len(samples), dtype=np.int64), counts)
            disclosing = self.ne.forward_batched(
                neighbor_embeddings, segment_ids, target_embeddings
            )

        entity_clue: Optional[Tensor] = None
        if self.config.use_entity_clues:
            clues = np.concatenate(
                [sample.entity_clue for sample in samples], axis=0
            )
            entity_clue = Tensor(clues.astype(enclosing.data.dtype, copy=False))

        return self.head(enclosing, disclosing, entity_clue)

    def score_batch_fused(self, graph: KnowledgeGraph, triples) -> Tensor:
        """Prepare (memoised for training, batch-extracted) and score in one
        fused pass."""
        return self.score_samples_batched(self.prepared_many(graph, list(triples)))

    def score_triples_fused(self, graph: KnowledgeGraph, triples) -> np.ndarray:
        """Numpy scores via the fused disjoint-union forward (eval mode).

        The serving fast path: equivalent to :meth:`score_triples` (within
        float round-off, see ``tests/test_batching.py``) but runs the whole
        batch through one merged message-passing pass instead of one tiny
        forward per sample, amortising numpy dispatch overhead — which is
        what makes coalescing concurrent queries into micro-batches pay off.
        """
        triples = list(triples)
        self.scoring_stats.record(len(triples))
        was_training = self.training
        self.eval()
        try:
            # No-grad: the serving/eval forward allocates zero backward
            # closures (see repro.autograd.engine).
            with no_grad():
                scores = self.score_samples_batched(
                    self.prepare_many(graph, triples)
                )
        finally:
            if was_training:
                self.train()
        return np.asarray(scores.data, dtype=SCORE_DTYPE).reshape(-1)

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        schema = isinstance(self.embedding, SchemaInitEmbedding)
        return self.config.variant_name + ("+schema" if schema else "")
