"""Reference enclosing-subgraph extraction: the original pure-Python
dict/set BFS that :func:`repro.subgraph.extract_subgraphs_many` replaced.

It shares the BFS and induced-triple helpers with
:func:`repro.subgraph.extract_disclosing_subgraph`, which still runs on
them in ``src``."""

from __future__ import annotations

from repro.kg.graph import KnowledgeGraph
from repro.kg.triples import Triple
from repro.subgraph.extraction import (
    ExtractedSubgraph,
    _drop_target_edges,
    _induced_triples,
    _internal_distances,
    _khop_distances,
)


def legacy_extract_enclosing_subgraph(
    graph: KnowledgeGraph,
    target: Triple,
    num_hops: int = 2,
) -> ExtractedSubgraph:
    """Reference pure-Python enclosing extraction (dict/set BFS)."""
    head, relation, tail = (int(x) for x in target)
    neighbors_u = set(_khop_distances(graph, head, num_hops))
    neighbors_v = set(_khop_distances(graph, tail, num_hops))
    common = neighbors_u & neighbors_v
    common.add(head)
    common.add(tail)

    induced = _induced_triples(graph, common)
    induced = _drop_target_edges(induced, (head, relation, tail))

    # Prune: keep entities reachable within K hops of BOTH targets in the
    # induced (target-edge-free) subgraph; the targets themselves always stay.
    distances_u = _internal_distances(induced, head, num_hops)
    distances_v = _internal_distances(induced, tail, num_hops)
    kept = {
        entity
        for entity in common
        if entity in distances_u and entity in distances_v
    }
    kept.add(head)
    kept.add(tail)
    final_triples = induced.filter(lambda t: t[0] in kept and t[2] in kept)
    distances_u = {e: d for e, d in distances_u.items() if e in kept}
    distances_v = {e: d for e, d in distances_v.items() if e in kept}

    return ExtractedSubgraph(
        head=head,
        relation=relation,
        tail=tail,
        entities=tuple(sorted(kept)),
        triples=final_triples,
        num_hops=num_hops,
        distances_u=distances_u,
        distances_v=distances_v,
    )
