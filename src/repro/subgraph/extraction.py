"""K-hop enclosing and disclosing subgraph extraction (paper §III-B, §III-F).

Given a target triple ``(u, r_t, v)``:

* the **enclosing** subgraph is induced by ``N_K(u) ∩ N_K(v)`` — entities
  within K undirected hops of *both* target entities — followed by pruning
  of nodes that are isolated or farther than K from either target inside
  the induced graph;
* the **disclosing** subgraph is induced by ``N_K(u) ∪ N_K(v)`` and is used
  to rescue triples whose enclosing subgraph is empty (§III-F).  Entities
  left with no surviving edge are pruned (the targets always stay), so the
  entity set never contains isolated non-target nodes.  RMPI-NE reads only
  the target's one-hop relations of it, and does so without extracting it:
  :func:`repro.subgraph.linegraph.target_one_hop_relations_many` takes them
  straight from the graph's CSR incidence.
  :func:`extract_disclosing_subgraph` stays public as the plain dict/set
  BFS specification of the union subgraph, and is the tests' oracle for
  that shortcut.

The target edge itself (every copy of ``(u, r, v)`` with the target
relation) is removed from the extracted edge set so the model cannot read
off the answer — the standard GraIL protocol.

Enclosing extraction (:func:`extract_subgraphs_many`, also behind
:func:`extract_enclosing_subgraph`) runs boolean-mask frontier BFS over the
graph's CSR adjacency and induces edges with numpy masks.  It is what the
evaluation protocol's 50-candidates-per-query workload hits: all
candidates of one ranking query share the uncorrupted head or tail, so
their K-hop frontiers come from the graph's bounded LRU
:class:`~repro.kg.graph.NeighborhoodCache` (knob:
``KnowledgeGraph(..., neighborhood_cache_size=...)``).  The original
pure-Python dict/set BFS it replaced is kept as the
``legacy_extract_enclosing_subgraph`` oracle in
``tests/oracles/extraction.py``; the equivalence property suite asserts
both produce identical :class:`ExtractedSubgraph` values.

Most targets of a sparse graph have an empty enclosing subgraph (§III-F),
and :func:`extract_subgraphs_many` decides those from the frontiers alone,
before inducing any edge:

    For K >= 1, if N_K(u) ∩ N_K(v) = ∅ and neither u nor v has a
    self-loop, the enclosing subgraph of (u, r_t, v) is empty.

*Proof.*  The node universe is the intersection plus the targets, here
just {u, v}, so the only edges it can induce are self-loops on u or v and
u–v edges.  There are no self-loops by assumption.  A u–v edge would put v
in N_1(u) ⊆ N_K(u), and v ∈ N_K(v), so the intersection would not be
empty.  Hence no edge is induced.  K >= 1 is needed for the step
N_1(u) ⊆ N_K(u): at K = 0 the frontiers are {u} and {v}, disjoint for
u ≠ v, yet a u–v edge of another relation (say ``(0,1,1)`` beside the
target ``(0,0,1)``) survives the target-edge removal.  Targets that fail
the check (including those that end up empty only after the removal)
take the full path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.kg.triples import Triple, TripleSet
from repro.obs import get_registry, span


@dataclass(frozen=True)
class ExtractedSubgraph:
    """A subgraph around a target triple, in entity view.

    ``triples`` never contains the target triple itself.  ``distances_u`` /
    ``distances_v`` are shortest-path distances *inside the extracted
    subgraph* (used for GraIL's double-radius labels); unreachable entities
    are absent from the dicts.
    """

    head: int
    relation: int
    tail: int
    entities: Tuple[int, ...]
    triples: TripleSet
    num_hops: int
    distances_u: Dict[int, int] = field(default_factory=dict)
    distances_v: Dict[int, int] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        """True when no edge survives extraction (the §III-F failure case)."""
        return len(self.triples) == 0

    def target(self) -> Triple:
        return (self.head, self.relation, self.tail)


# ======================================================================
# Vectorized CSR engine
# ======================================================================

def _masked_bfs_distances(
    count: int,
    src_idx: np.ndarray,
    dst_idx: np.ndarray,
    source_index: int,
    max_hops: int,
) -> np.ndarray:
    """BFS distances inside an extracted edge set, in compact node indices.

    ``src_idx`` / ``dst_idx`` are the *undirected* (already mirrored) edge
    endpoints as positions into the subgraph's sorted node universe of size
    ``count``.  Returns distances aligned with that universe
    (-1 = unreachable).
    """
    dist = np.full(count, -1, dtype=np.int64)
    dist[source_index] = 0
    if len(src_idx) == 0:
        return dist
    frontier = np.zeros(count, dtype=bool)
    frontier[source_index] = True
    for depth in range(1, max_hops + 1):
        reached = dst_idx[frontier[src_idx]]
        reached = reached[dist[reached] < 0]
        if reached.size == 0:
            break
        dist[reached] = depth
        frontier = np.zeros(count, dtype=bool)
        frontier[reached] = True
    return dist


_EMPTY_EDGES = np.empty((0, 3), dtype=np.int64)
_EMPTY_EDGES.setflags(write=False)
_NO_TRIPLES = TripleSet.from_trusted_array(_EMPTY_EDGES)


def _insert_sorted(nodes: np.ndarray, entity: int) -> np.ndarray:
    """Insert ``entity`` into the sorted id array ``nodes`` if absent."""
    position = int(nodes.searchsorted(entity))
    if position < nodes.size and nodes[position] == entity:
        return nodes
    return np.concatenate(
        [nodes[:position], np.asarray([entity], dtype=np.int64), nodes[position:]]
    )


def _empty_subgraph(
    head: int, relation: int, tail: int, num_hops: int
) -> ExtractedSubgraph:
    """The subgraph of a target with no surviving edge: only the targets."""
    entities = (head,) if head == tail else (min(head, tail), max(head, tail))
    return ExtractedSubgraph(
        head=head,
        relation=relation,
        tail=tail,
        entities=entities,
        triples=_NO_TRIPLES,
        num_hops=num_hops,
        distances_u={head: 0},
        distances_v={tail: 0},
    )


def _extract_one_vectorized(
    graph: KnowledgeGraph,
    head: int,
    relation: int,
    tail: int,
    num_hops: int,
    neighbors_u: np.ndarray,
    neighbors_v: np.ndarray,
) -> ExtractedSubgraph:
    nodes = np.intersect1d(neighbors_u, neighbors_v, assume_unique=True)
    # The targets always belong to the node universe, even when outside the
    # intersection (khop frontiers always contain their own source, so at
    # most the *other* target can be missing from each frontier).
    nodes = _insert_sorted(nodes, head)
    if tail != head:
        nodes = _insert_sorted(nodes, tail)

    edge_ids = graph.induced_edge_id_array(nodes)
    edges = graph.triples.array[edge_ids]
    if len(edges):
        not_target = ~(
            (edges[:, 0] == head) & (edges[:, 1] == relation) & (edges[:, 2] == tail)
        )
        edges = edges[not_target]
    head_pos = int(nodes.searchsorted(head))
    tail_pos = int(nodes.searchsorted(tail))

    if len(edges) == 0:
        # Nothing survives the target-edge removal.
        return _empty_subgraph(head, relation, tail, num_hops)

    # Compact endpoint indices into ``nodes``, mirrored for undirected BFS.
    count = nodes.size
    num_edges = len(edges)
    endpoint_idx = nodes.searchsorted(
        np.concatenate([edges[:, 0], edges[:, 2]])
    )
    head_idx = endpoint_idx[:num_edges]
    tail_idx = endpoint_idx[num_edges:]
    src_idx = endpoint_idx
    dst_idx = np.concatenate([tail_idx, head_idx])

    dist_u = _masked_bfs_distances(count, src_idx, dst_idx, head_pos, num_hops)
    dist_v = _masked_bfs_distances(count, src_idx, dst_idx, tail_pos, num_hops)

    kept_mask = (dist_u >= 0) & (dist_v >= 0)
    # The targets always stay.
    kept_mask[head_pos] = True
    kept_mask[tail_pos] = True
    kept = nodes[kept_mask]

    if kept.size < count:
        edges = edges[kept_mask[head_idx] & kept_mask[tail_idx]]

    reachable = kept_mask & (dist_u >= 0)
    distances_u = dict(zip(nodes[reachable].tolist(), dist_u[reachable].tolist()))
    reachable = kept_mask & (dist_v >= 0)
    distances_v = dict(zip(nodes[reachable].tolist(), dist_v[reachable].tolist()))

    return ExtractedSubgraph(
        head=head,
        relation=relation,
        tail=tail,
        entities=tuple(kept.tolist()),
        triples=TripleSet.from_trusted_array(edges),
        num_hops=num_hops,
        distances_u=distances_u,
        distances_v=distances_v,
    )


def extract_subgraphs_many(
    graph: KnowledgeGraph,
    triples: Iterable[Triple],
    num_hops: int = 2,
) -> List[ExtractedSubgraph]:
    """Batched enclosing-subgraph extraction over the graph's CSR adjacency.

    Extracts one enclosing subgraph (§III-B) per target triple, sharing
    per-entity K-hop frontiers across the batch through the graph's
    :class:`~repro.kg.graph.NeighborhoodCache` — the evaluation protocol's
    candidate lists (truth + 49 corruptions, all sharing the uncorrupted
    head or tail) therefore run each distinct BFS once instead of ~50 times.

    Parameters
    ----------
    graph:
        The context graph (its ``neighborhood_cache_size`` constructor knob
        bounds the frontier LRU; 0 disables caching).
    triples:
        Target triples ``(u, r_t, v)``; they need not be facts of ``graph``.
    num_hops:
        K, the extraction radius.
    """
    triples = [(int(t[0]), int(t[1]), int(t[2])) for t in triples]
    with span("prepare.extract"):
        subgraphs = _extract_many(graph, triples, num_hops)
    registry = get_registry()
    registry.counter("prepare.subgraphs").inc(len(subgraphs))
    registry.counter("prepare.empty_subgraphs").inc(
        sum(1 for subgraph in subgraphs if subgraph.is_empty)
    )
    return subgraphs


def _extract_many(
    graph: KnowledgeGraph, triples: List[Triple], num_hops: int
) -> List[ExtractedSubgraph]:
    """Extract in input order, deciding disjoint-frontier targets early.

    One side's frontier is marked in a boolean mask and each target's other
    frontier is tested against it.  The marked side is the one with fewer
    distinct entities (a ranking query's shared head or tail), so the mask
    is set once per run of equal entities rather than once per target.
    The rule needs K >= 1 (see the module docstring), so K = 0 extracts
    every target in full.
    """
    decide_early = num_hops >= 1
    mark_heads = len({t[0] for t in triples}) <= len({t[2] for t in triples})
    self_loops = graph.self_loop_mask()
    marked = np.zeros(graph.num_entities, dtype=bool)
    marked_entity = -1
    marked_frontier = np.empty(0, dtype=np.int64)
    subgraphs: List[ExtractedSubgraph] = []
    for head, relation, tail in triples:
        neighbors_u = graph.khop_nodes(head, num_hops)
        neighbors_v = graph.khop_nodes(tail, num_hops)
        if decide_early and not (self_loops[head] or self_loops[tail]):
            if mark_heads:
                entity, frontier, probe = head, neighbors_u, neighbors_v
            else:
                entity, frontier, probe = tail, neighbors_v, neighbors_u
            if entity != marked_entity:
                marked[marked_frontier] = False
                marked[frontier] = True
                marked_entity, marked_frontier = entity, frontier
            if not marked[probe].any():
                subgraphs.append(_empty_subgraph(head, relation, tail, num_hops))
                continue
        subgraphs.append(
            _extract_one_vectorized(
                graph, head, relation, tail, num_hops, neighbors_u, neighbors_v
            )
        )
    return subgraphs


def extract_enclosing_subgraph(
    graph: KnowledgeGraph,
    target: Triple,
    num_hops: int = 2,
) -> ExtractedSubgraph:
    """Extract the K-hop enclosing subgraph of ``target`` from ``graph``.

    Thin wrapper over :func:`extract_subgraphs_many`.
    """
    return extract_subgraphs_many(graph, [target], num_hops)[0]


# ======================================================================
# Disclosing subgraph: pure-Python dict/set BFS
# ======================================================================

def _khop_distances(
    graph: KnowledgeGraph, source: int, max_hops: int
) -> Dict[int, int]:
    """Pure-Python BFS over incident-edge lists."""
    distances: Dict[int, int] = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        depth = distances[node]
        if depth >= max_hops:
            continue
        for edge_index in graph.incident_edges(node):
            head, _rel, tail = graph.triples[edge_index]
            for neighbor in (head, tail):
                if neighbor not in distances:
                    distances[neighbor] = depth + 1
                    frontier.append(neighbor)
    return distances


def _induced_triples(graph: KnowledgeGraph, entities: Set[int]) -> TripleSet:
    picked: List[int] = []
    seen: Set[int] = set()
    for entity in entities:
        for edge_index in graph.incident_edges(entity):
            if edge_index in seen:
                continue
            head, _rel, tail = graph.triples[edge_index]
            if head in entities and tail in entities:
                seen.add(edge_index)
                picked.append(edge_index)
    picked.sort()
    return TripleSet(graph.triples[i] for i in picked)


def _internal_distances(
    triples: TripleSet, source: int, max_hops: int
) -> Dict[int, int]:
    """BFS distances over the (undirected) extracted edge set."""
    adjacency: Dict[int, Set[int]] = {}
    for head, _rel, tail in triples:
        adjacency.setdefault(head, set()).add(tail)
        adjacency.setdefault(tail, set()).add(head)
    distances = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        depth = distances[node]
        if depth >= max_hops:
            continue
        for neighbor in adjacency.get(node, ()):
            if neighbor not in distances:
                distances[neighbor] = depth + 1
                frontier.append(neighbor)
    return distances


def _drop_target_edges(triples: TripleSet, target: Triple) -> TripleSet:
    head, relation, tail = target
    return triples.filter(lambda t: t != (head, relation, tail))


def extract_disclosing_subgraph(
    graph: KnowledgeGraph,
    target: Triple,
    num_hops: int = 2,
) -> ExtractedSubgraph:
    """Extract the K-hop disclosing subgraph (union of neighbor sets)."""
    head, relation, tail = (int(x) for x in target)
    union = set(_khop_distances(graph, head, num_hops)) | set(
        _khop_distances(graph, tail, num_hops)
    )
    union.add(head)
    union.add(tail)
    induced = _induced_triples(graph, union)
    induced = _drop_target_edges(induced, (head, relation, tail))
    # Prune union entities isolated by the target-edge removal (no surviving
    # incident edge); the targets always stay.
    touched: Set[int] = set()
    for h, _r, t in induced:
        touched.add(h)
        touched.add(t)
    kept = (union & touched) | {head, tail}
    distances_u = _internal_distances(induced, head, num_hops)
    distances_v = _internal_distances(induced, tail, num_hops)
    distances_u = {e: d for e, d in distances_u.items() if e in kept}
    distances_v = {e: d for e, d in distances_v.items() if e in kept}
    return ExtractedSubgraph(
        head=head,
        relation=relation,
        tail=tail,
        entities=tuple(sorted(kept)),
        triples=induced,
        num_hops=num_hops,
        distances_u=distances_u,
        distances_v=distances_v,
    )
