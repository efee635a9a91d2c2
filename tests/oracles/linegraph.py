"""Reference relation-view transform: the original pure-Python nested
loop over entity incidence lists that
:func:`repro.subgraph.build_relational_graphs_many` replaced, plus the
disclosing-subgraph oracle for the batched NE neighbourhood."""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.kg.triples import Triple
from repro.subgraph.extraction import ExtractedSubgraph, extract_disclosing_subgraph
from repro.subgraph.linegraph import RelationalGraph, connection_types


def legacy_build_relational_graph(subgraph: ExtractedSubgraph) -> RelationalGraph:
    """Reference pure-Python transform (nested loops over incidence lists)."""
    target = subgraph.target()
    node_triples: List[Triple] = [target]
    for triple in subgraph.triples:
        node_triples.append(triple)

    incident: Dict[int, List[int]] = {}
    for node_id, (head, _rel, tail) in enumerate(node_triples):
        incident.setdefault(head, []).append(node_id)
        if tail != head:
            incident.setdefault(tail, []).append(node_id)

    edge_set: Set[Tuple[int, int, int]] = set()
    for nodes in incident.values():
        for a in nodes:
            for b in nodes:
                if a == b:
                    continue
                for edge_type in connection_types(node_triples[a], node_triples[b]):
                    edge_set.add((a, edge_type, b))

    if edge_set:
        edges = np.asarray(sorted(edge_set), dtype=np.int64)
    else:
        edges = np.empty((0, 3), dtype=np.int64)
    return RelationalGraph(
        node_heads=np.asarray([t[0] for t in node_triples], dtype=np.int64),
        node_relations=np.asarray([t[1] for t in node_triples], dtype=np.int64),
        node_tails=np.asarray([t[2] for t in node_triples], dtype=np.int64),
        edges=edges,
        target_node=0,
        _node_triples=tuple(node_triples),
    )


def disclosing_one_hop_relations(
    graph: KnowledgeGraph, target: Triple, num_hops: int
) -> np.ndarray:
    """The NE neighbourhood the slow way: relations of the edges incident to
    the target head or tail in the extracted K-hop disclosing subgraph, in
    the subgraph's triple order."""
    sub = extract_disclosing_subgraph(graph, target, num_hops)
    u, v = sub.head, sub.tail
    return np.asarray(
        [r for h, r, t in sub.triples if h in (u, v) or t in (u, v)],
        dtype=np.int64,
    )
