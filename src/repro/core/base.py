"""Shared machinery for subgraph-scoring models.

Every model in this repository (RMPI variants, GraIL, TACT, CoMPILE) scores
a candidate triple from a subgraph extracted around it.  This module gives
them a common API:

* ``prepare(graph, triple)``      — model-specific sample construction
  (extraction, transformation, plan compilation);
* ``score_sample(sample)``        — differentiable scoring of one sample;
* ``score_batch(graph, triples)`` — the one differentiable batch entry
  point, an ``(n, 1)`` tensor.  Here it is batched prepare plus one
  :meth:`score_sample` per triple, which GraIL, TACT and CoMPILE use;
  RMPI overrides it with one disjoint-union message-passing pass;
* ``score_triples(graph, triples)`` — plain ``np.ndarray`` scores in eval
  mode (the evaluation protocols' entry point).

Samples are memoised per ``(graph, triple)`` for training only:
``score_batch`` goes through :meth:`SubgraphScoringModel.prepared_many`,
because epochs revisit the same positives (a third of training lookups hit
on the perfbench ``train`` workload).  Scoring prepares afresh: ranking
candidates and served queries almost never repeat (2% of evaluation
lookups hit, none on either serving workload), so a memo there would only
hold dead samples.

Each model counts how scoring work arrives under its
:attr:`~SubgraphScoringModel.metrics_namespace` in the :mod:`repro.obs`
registry: ``<namespace>.batch_calls`` (scoring calls),
``<namespace>.triples_scored`` (triples across them) and the
``<namespace>.largest_batch`` high-water gauge.  The serving scheduler is
checked against them (N coalesced requests are one ``batch_calls``), and
``GET /metrics`` exposes them.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.autograd import Module, Tensor, no_grad, ops
from repro.autograd.engine import SCORE_DTYPE
from repro.kg.graph import KnowledgeGraph
from repro.kg.triples import Triple
from repro.obs import get_registry

#: Per-process sequence for model metric namespaces.  Models are
#: constructed before any fork, so a namespace assigned here names the
#: same model in every worker — which is what lets the pool merge
#: worker-side scoring counts back into the parent's metrics.
_MODEL_SEQ = itertools.count()


class SubgraphScoringModel(Module):
    """Base class: memoised prepare + batch scoring over subgraph samples."""

    def __init__(self) -> None:
        super().__init__()
        self._sample_cache: Dict[Tuple[int, Triple], Any] = {}
        self._cached_graphs: Dict[int, KnowledgeGraph] = {}
        self.metrics_namespace = f"model.m{next(_MODEL_SEQ)}"

    # ------------------------------------------------------------------
    def prepare(self, graph: KnowledgeGraph, triple: Triple) -> Any:
        """Build the model-specific sample for ``triple`` in ``graph``."""
        raise NotImplementedError

    def prepare_many(
        self, graph: KnowledgeGraph, triples: Sequence[Triple]
    ) -> List[Any]:
        """Batched :meth:`prepare`, order-aligned with ``triples``.

        The default delegates to per-triple :meth:`prepare`; models whose
        sample construction starts with subgraph extraction override this to
        route the whole batch through
        :func:`repro.subgraph.extraction.extract_subgraphs_many`, which
        shares K-hop frontiers across candidates of one ranking query.
        """
        return [self.prepare(graph, triple) for triple in triples]

    def _prepare_from_enclosing(
        self,
        graph: KnowledgeGraph,
        triples: Sequence[Triple],
        num_hops: int,
        build,
    ) -> List[Any]:
        """Shared ``prepare_many`` template for enclosing-subgraph models:
        batch-extract, then call ``build(triple, subgraph)`` per item."""
        from repro.subgraph.extraction import extract_subgraphs_many

        triples = list(triples)
        subgraphs = extract_subgraphs_many(graph, triples, num_hops)
        return [build(triple, subgraph) for triple, subgraph in zip(triples, subgraphs)]

    def _prepare_from_relational(
        self,
        graph: KnowledgeGraph,
        triples: Sequence[Triple],
        num_hops: int,
        build,
    ) -> List[Any]:
        """Shared ``prepare_many`` template for relation-view models:
        batch-extract, batch-transform to relation view (one shared numpy
        pass across the candidate list), then call
        ``build(triple, subgraph, relational)`` per item."""
        from repro.subgraph.extraction import extract_subgraphs_many
        from repro.subgraph.linegraph import build_relational_graphs_many

        triples = list(triples)
        subgraphs = extract_subgraphs_many(graph, triples, num_hops)
        relationals = build_relational_graphs_many(subgraphs)
        return [
            build(triple, subgraph, relational)
            for triple, subgraph, relational in zip(triples, subgraphs, relationals)
        ]

    def score_sample(self, sample: Any) -> Tensor:
        """Differentiable score of one prepared sample, shape ``(1, 1)``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def prepared(self, graph: KnowledgeGraph, triple: Triple) -> Any:
        """Memoised :meth:`prepare` (keyed on graph identity + triple)."""
        return self.prepared_many(graph, [triple])[0]

    def prepared_many(
        self, graph: KnowledgeGraph, triples: Sequence[Triple]
    ) -> List[Any]:
        """Memoised batch prepare: only cache misses hit :meth:`prepare_many`.

        Training only.  Epochs revisit the same positives, so a third of
        training lookups hit (6,960 of 20,844 on the perfbench ``train``
        workload).  The scoring paths missed almost always (324 of 15,184
        in evaluation, none of 38,418 while serving) and call
        :meth:`prepare_many` directly.
        """
        triples = list(triples)
        keys = [(id(graph), tuple(int(x) for x in triple)) for triple in triples]  # repro-lint: disable=RL003 _cached_graphs pins the graph so its id cannot be recycled
        missing: Dict[Tuple[int, Triple], Triple] = {
            key: key[1]
            for key in keys
            if key not in self._sample_cache
        }
        if missing:
            samples = self.prepare_many(graph, list(missing.values()))
            for key, sample in zip(missing, samples):
                self._sample_cache[key] = sample
            # Keep the graph alive so id() keys stay unambiguous.
            self._cached_graphs[id(graph)] = graph  # repro-lint: disable=RL003 this line IS the pin backing the id() keys
        return [self._sample_cache[key] for key in keys]

    def clear_cache(self) -> None:
        self._sample_cache.clear()
        self._cached_graphs.clear()

    def cache_size(self) -> int:
        return len(self._sample_cache)

    # ------------------------------------------------------------------
    def score_batch(self, graph: KnowledgeGraph, triples: Sequence[Triple]) -> Tensor:
        """Differentiable scores for a batch, shape ``(n, 1)``: memoised
        batched prepare, then one :meth:`score_sample` per triple."""
        scores: List[Tensor] = [
            self.score_sample(sample) for sample in self.prepared_many(graph, triples)
        ]
        if len(scores) == 1:
            return scores[0]
        return ops.concat(scores, axis=0)

    def record_scoring(self, batch_size: int) -> None:
        """Count one scoring call of ``batch_size`` triples under
        :attr:`metrics_namespace`."""
        registry = get_registry()
        registry.counter(f"{self.metrics_namespace}.batch_calls").inc()
        registry.counter(f"{self.metrics_namespace}.triples_scored").inc(batch_size)
        registry.gauge(f"{self.metrics_namespace}.largest_batch").set_max(batch_size)

    def score_triples(self, graph: KnowledgeGraph, triples: Sequence[Triple]) -> np.ndarray:
        """Numpy scores in eval mode (no dropout, no graph recording).

        This is the evaluation protocols' entry point: the whole candidate
        list of a ranking query arrives in one call, so extraction-backed
        models batch it through :meth:`prepare_many` (not memoised).
        """
        triples = list(triples)
        self.record_scoring(len(triples))
        was_training = self.training
        self.eval()
        try:
            # No-grad: eval scoring builds no backward graph at all.
            with no_grad():
                values = [
                    float(self.score_sample(sample).data.reshape(-1)[0])
                    for sample in self.prepare_many(graph, triples)
                ]
        finally:
            if was_training:
                self.train()
        return np.asarray(values, dtype=SCORE_DTYPE)
