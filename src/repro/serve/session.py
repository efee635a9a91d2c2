"""Inference session: one pinned graph, warm indices, cached scoring.

An :class:`InferenceSession` binds a :class:`ModelRegistry` to a single
served :class:`~repro.kg.graph.KnowledgeGraph`.  At construction it warms
the graph's lazy indices (CSR adjacency, content fingerprint) so the first
query pays no build cost, precomputes the evaluation-protocol candidate
pool and known-fact set, and fronts every model with a shared bounded LRU
:class:`~repro.serve.cache.ScoreCache` keyed on
``(model_key, graph_fingerprint, triple)`` — swapping the graph via
:meth:`set_graph` therefore invalidates all cached scores.

Cache misses are scored through the model's disjoint-union forward
(``score_triples_fused``) when it has one, and through ``score_triples``
otherwise.  That is what the model can do, not a setting.  The fused
forward equals ``score_triples`` (the offline evaluation path) within float
round-off and is much faster on coalesced batches; a model without one
(GraIL, TACT, CoMPILE) serves exactly the ``score_triples`` scores of
:func:`repro.eval.protocol.evaluate_entity_prediction`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import no_grad
from repro.autograd.engine import SCORE_DTYPE
from repro.eval.protocol import (
    candidate_entity_pool,
    known_fact_set,
    link_prediction_candidates,
)
from repro.kg.graph import KnowledgeGraph
from repro.kg.triples import Triple
from repro.serve.cache import DEFAULT_SCORE_CACHE_SIZE, ScoreCache
from repro.serve.registry import ModelRegistry, RegisteredModel


def rank_predictions(
    triples: Sequence[Triple],
    scores: np.ndarray,
    k: int,
    side: str,
) -> List[Tuple[int, float]]:
    """Top-``k`` ``(entity, score)`` pairs, best first.

    Descending stable sort, so ties keep candidate order — the same tie
    orientation as the evaluation metrics' stable argsort.  ``side`` picks
    which endpoint of each triple is reported ('head' or 'tail').
    """
    if side not in ("head", "tail"):
        raise ValueError(f"side must be 'head' or 'tail', got {side!r}")
    scores = np.asarray(scores, dtype=SCORE_DTYPE)
    order = np.argsort(-scores, kind="stable")[: max(int(k), 0)]
    position = 0 if side == "head" else 2
    return [(int(triples[i][position]), float(scores[i])) for i in order]


class InferenceSession:
    """Online scoring against one pinned knowledge graph.

    Not thread-safe by itself: the micro-batching scheduler serialises all
    scoring through its single worker thread, which is the supported
    concurrent entry point (HTTP handler threads only enqueue requests).
    """

    def __init__(
        self,
        registry: ModelRegistry,
        graph: KnowledgeGraph,
        default_model: Optional[str] = None,
        cache_size: int = DEFAULT_SCORE_CACHE_SIZE,
    ) -> None:
        self.registry = registry
        self.default_model = default_model
        self.cache = ScoreCache(cache_size)
        self.graph: KnowledgeGraph = None  # type: ignore[assignment]
        self._pool: List[int] = []
        self._known: set = set()
        self.set_graph(graph)

    # ------------------------------------------------------------------
    def set_graph(self, graph: KnowledgeGraph) -> None:
        """Swap the served graph: warm its indices, rebuild the candidate
        pool/known facts, and drop every score cached against the old one
        (new fingerprint ⇒ old keys can never be hit again)."""
        self.graph = graph.warm()
        self._pool = candidate_entity_pool(graph)
        self._known = known_fact_set(graph)
        self.cache.clear()

    def resolve_model(self, spec: Optional[str] = None) -> RegisteredModel:
        return self.registry.resolve(spec or self.default_model)

    # ------------------------------------------------------------------
    def score(
        self, triples: Sequence[Triple], model: Optional[str] = None
    ) -> np.ndarray:
        """Scores for ``triples``, order-aligned, through the score cache.

        Cache misses are scored in ONE batched model call (the fused path
        when available), so a coalesced micro-batch reaches the model as a
        single ``score_triples``/``score_triples_fused`` invocation.
        """
        entry = self.resolve_model(model)
        triples = [tuple(int(x) for x in triple) for triple in triples]
        fingerprint = self.graph.fingerprint()
        values: List[Optional[float]] = []
        missing: Dict[Triple, List[int]] = {}
        for position, triple in enumerate(triples):
            cached = self.cache.get((entry.key, fingerprint, triple))
            values.append(cached)
            if cached is None:
                missing.setdefault(triple, []).append(position)
        if missing:
            batch = list(missing)
            scorer = getattr(
                entry.model, "score_triples_fused", entry.model.score_triples
            )
            # Serving never backpropagates: no-grad keeps the coalesced
            # batch forward free of autograd bookkeeping.
            with no_grad():
                fresh = np.asarray(
                    scorer(self.graph, batch), dtype=SCORE_DTYPE
                ).reshape(-1)
            for triple, value in zip(batch, fresh):
                self.cache.put((entry.key, fingerprint, triple), float(value))
                for position in missing[triple]:
                    values[position] = float(value)
        return np.asarray(values, dtype=SCORE_DTYPE)

    # ------------------------------------------------------------------
    def tail_candidates(
        self,
        head: int,
        relation: int,
        candidates: Optional[Sequence[int]] = None,
        exclude_known: bool = True,
    ) -> List[Triple]:
        """Candidate triples ``(head, relation, ?)`` over the evaluation
        pool (or an explicit entity list), with ranking-protocol filtering."""
        return link_prediction_candidates(
            self.graph,
            head,
            relation,
            None,
            exclude_known=exclude_known,
            candidate_entities=candidates if candidates is not None else self._pool,
            known=self._known,
        )

    def head_candidates(
        self,
        tail: int,
        relation: int,
        candidates: Optional[Sequence[int]] = None,
        exclude_known: bool = True,
    ) -> List[Triple]:
        """Candidate triples ``(?, relation, tail)``, filtered like
        :meth:`tail_candidates`."""
        return link_prediction_candidates(
            self.graph,
            None,
            relation,
            tail,
            exclude_known=exclude_known,
            candidate_entities=candidates if candidates is not None else self._pool,
            known=self._known,
        )

    def top_k_tails(
        self,
        head: int,
        relation: int,
        k: int = 10,
        model: Optional[str] = None,
        candidates: Optional[Sequence[int]] = None,
        exclude_known: bool = True,
    ) -> List[Tuple[int, float]]:
        """Best ``k`` tail completions of ``(head, relation, ?)`` as
        ``(entity, score)`` pairs, best first."""
        triples = self.tail_candidates(head, relation, candidates, exclude_known)
        return rank_predictions(triples, self.score(triples, model), k, side="tail")

    def top_k_heads(
        self,
        tail: int,
        relation: int,
        k: int = 10,
        model: Optional[str] = None,
        candidates: Optional[Sequence[int]] = None,
        exclude_known: bool = True,
    ) -> List[Tuple[int, float]]:
        """Best ``k`` head completions of ``(?, relation, tail)``."""
        triples = self.head_candidates(tail, relation, candidates, exclude_known)
        return rank_predictions(triples, self.score(triples, model), k, side="head")

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """JSON-ready session summary for the ``/health`` endpoint."""
        return {
            "graph": {
                "entities": self.graph.num_entities,
                "relations": self.graph.num_relations,
                "triples": len(self.graph),
                "fingerprint": self.graph.fingerprint(),
            },
            "models": self.registry.describe(),
            "cache": self.cache.stats(),
        }
