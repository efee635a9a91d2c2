"""Entity-view → relation-view graph transformation (paper §III-B, Fig. 3).

Every edge (triple occurrence) of the extracted subgraph becomes a *node* of
the relational graph; two nodes are connected iff their triples share an
entity.  Directed edges carry one of six connection-pattern types describing
*how* the triples share entities:

====  =========  =====================================================
code  name       condition for an edge  a -> b  (a=(h1,r1,t1), b=(h2,r2,t2))
====  =========  =====================================================
0     H-H        h1 == h2  (heads coincide)
1     H-T        h1 == t2  (a's head is b's tail)
2     T-H        t1 == h2  (a's tail is b's head)
3     T-T        t1 == t2  (tails coincide)
4     PARA       h1 == h2 and t1 == t2  (parallel edges)
5     LOOP       h1 == t2 and t1 == h2  (crossed heads/tails)
====  =========  =====================================================

PARA and LOOP subsume their component patterns (a parallel pair is typed
PARA, not H-H + T-T).  The *target triple itself* is always added as a node
(index :attr:`RelationalGraph.target_node`) so the message-passing network
has a root to aggregate into even for candidate triples that are not facts.

The transform (:func:`build_relational_graphs_many`, also behind
:func:`build_relational_graph`) enumerates co-incident triple pairs per
entity with ``np.repeat``/``np.tile`` over degree groups, classifies all
six connection-pattern types with boolean masks in one shot, and
deduplicates with ``np.unique`` on packed pair keys.  A whole batch of
subgraphs (e.g. the ~50 candidates of one ranking query) runs through
shared numpy passes by offsetting node/entity ids per graph.  The original
pure-Python O(Σ deg²) nested loop over entity incidence lists is kept as
the ``legacy_build_relational_graph`` oracle in
``tests/oracles/linegraph.py``; the equivalence property suite asserts
both produce identical :class:`RelationalGraph` values (same node
ordering, same sorted edge rows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.kg.triples import Triple
from repro.obs import span
from repro.subgraph.extraction import ExtractedSubgraph

NUM_EDGE_TYPES = 6
EDGE_TYPE_NAMES = ("H-H", "H-T", "T-H", "T-T", "PARA", "LOOP")

H_H, H_T, T_H, T_T, PARA, LOOP = range(NUM_EDGE_TYPES)

def connection_types(a: Triple, b: Triple) -> List[int]:
    """All connection-pattern types for a directed edge ``a -> b``."""
    h1, _r1, t1 = a
    h2, _r2, t2 = b
    if h1 == h2 and t1 == t2:
        return [PARA]
    if h1 == t2 and t1 == h2:
        return [LOOP]
    types: List[int] = []
    if h1 == h2:
        types.append(H_H)
    if h1 == t2:
        types.append(H_T)
    if t1 == h2:
        types.append(T_H)
    if t1 == t2:
        types.append(T_T)
    return types


@dataclass(frozen=True)
class RelationalGraph:
    """The relation-view graph R(G) of an extracted subgraph.

    Attributes
    ----------
    node_heads / node_relations / node_tails:
        int64 arrays of each node's original (h, r, t); node ids are
        positions in these arrays (``node_relations`` doubles as the
        feature lookup key).
    edges:
        ``(m, 3)`` int64 array of ``(src_node, edge_type, dst_node)`` rows,
        deduplicated and sorted.
    target_node:
        Index of the node standing for the target triple.
    node_triples:
        The per-node ``(h, r, t)`` python tuples, materialised lazily on
        first access — the scoring hot paths only ever touch the arrays.
    """

    node_heads: np.ndarray
    node_relations: np.ndarray
    node_tails: np.ndarray
    edges: np.ndarray
    target_node: int
    # Lazily-built caches (filled on first access via object.__setattr__;
    # excluded from equality and repr).
    _node_triples: Optional[Tuple[Triple, ...]] = field(
        default=None, repr=False, compare=False
    )
    _incoming_indptr: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    _incoming_order: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )

    @property
    def node_triples(self) -> Tuple[Triple, ...]:
        if self._node_triples is None:
            object.__setattr__(
                self,
                "_node_triples",
                tuple(
                    zip(
                        self.node_heads.tolist(),
                        self.node_relations.tolist(),
                        self.node_tails.tolist(),
                    )
                ),
            )
        return self._node_triples

    @property
    def num_nodes(self) -> int:
        return len(self.node_relations)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def incoming_index(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR index over incoming edges: ``(indptr, edge_order)``.

        ``edge_order[indptr[n]:indptr[n+1]]`` are the row indices into
        :attr:`edges` whose destination is ``n``, in original (sorted) row
        order.  Built lazily once; every subsequent :meth:`incoming` call
        and the pruning BFS are O(deg) slices instead of O(E) scans.
        """
        if self._incoming_indptr is None:
            if self.num_edges:
                order = np.argsort(self.edges[:, 2], kind="stable")
                counts = np.bincount(self.edges[:, 2], minlength=self.num_nodes)
            else:
                order = np.empty(0, dtype=np.int64)
                counts = np.zeros(self.num_nodes, dtype=np.int64)
            indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            object.__setattr__(self, "_incoming_indptr", indptr)
            object.__setattr__(self, "_incoming_order", order)
        return self._incoming_indptr, self._incoming_order

    def incoming(self, node: int) -> np.ndarray:
        """Edge rows whose destination is ``node``."""
        if self.num_edges == 0:
            return np.empty((0, 3), dtype=np.int64)
        indptr, order = self.incoming_index()
        return self.edges[order[indptr[node] : indptr[node + 1]]]


# ======================================================================
# Vectorized pairing kernel
# ======================================================================

def _coincident_pairs(
    entity_keys: np.ndarray, node_ids: np.ndarray, num_nodes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Deduplicated ordered pairs ``(a, b)``, ``a != b``, of nodes sharing
    an entity key.

    ``entity_keys[i]`` is the (batch-disambiguated) entity incident to node
    ``node_ids[i]``; each node appears at most once per distinct incident
    entity.  Pair enumeration is the O(Σ deg²) all-ordered-pairs expansion
    per degree group, fully vectorized.
    """
    if entity_keys.size < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    order = np.argsort(entity_keys, kind="stable")
    keys = entity_keys[order]
    nodes = node_ids[order]
    boundary = np.empty(keys.size, dtype=bool)
    boundary[0] = True
    np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
    group_starts = np.flatnonzero(boundary)
    group_sizes = np.diff(np.append(group_starts, keys.size))
    multi = group_sizes >= 2
    starts = group_starts[multi]
    sizes = group_sizes[multi]
    if starts.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    pair_counts = sizes * sizes
    total = int(pair_counts.sum())
    group_of_pair = np.repeat(np.arange(starts.size, dtype=np.int64), pair_counts)
    first_pair = np.repeat(np.cumsum(pair_counts) - pair_counts, pair_counts)
    rank = np.arange(total, dtype=np.int64) - first_pair
    size_of_pair = sizes[group_of_pair]
    base = starts[group_of_pair]
    a = nodes[base + rank // size_of_pair]
    b = nodes[base + rank % size_of_pair]
    off_diagonal = a != b
    a = a[off_diagonal]
    b = b[off_diagonal]
    # Nodes sharing two entities are enumerated in both groups; dedup on a
    # packed (a, b) key via sort + adjacent-duplicate mask (much cheaper
    # than np.unique's hash path on this workload).
    packed = a * np.int64(num_nodes) + b
    if packed.size == 0:
        return packed, packed
    packed.sort()
    distinct = np.empty(packed.size, dtype=bool)
    distinct[0] = True
    np.not_equal(packed[1:], packed[:-1], out=distinct[1:])
    packed = packed[distinct]
    return packed // num_nodes, packed % num_nodes


def _classified_edges(
    heads: np.ndarray, tails: np.ndarray, a: np.ndarray, b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify all pairs with the six-pattern boolean masks in one shot.

    Returns ``(src, etype, dst)`` arrays, unsorted; rows are unique because
    pairs are unique and the per-pair types are distinct.
    """
    h1, t1 = heads[a], tails[a]
    h2, t2 = heads[b], tails[b]
    hh = h1 == h2
    ht = h1 == t2
    th = t1 == h2
    tt = t1 == t2
    para = hh & tt
    crossed = ht & th
    loop = crossed & ~para
    # PARA/LOOP subsume the component patterns (as in connection_types).
    plain = ~para & ~crossed
    src_parts: List[np.ndarray] = []
    type_codes: List[int] = []
    dst_parts: List[np.ndarray] = []
    for mask, code in (
        (para, PARA),
        (loop, LOOP),
        (plain & hh, H_H),
        (plain & ht, H_T),
        (plain & th, T_H),
        (plain & tt, T_T),
    ):
        if mask.any():
            src_parts.append(a[mask])
            type_codes.append(code)
            dst_parts.append(b[mask])
    if not src_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    etype = np.concatenate(
        [
            np.full(len(part), code, dtype=np.int64)
            for part, code in zip(src_parts, type_codes)
        ]
    )
    return src, etype, dst


def build_relational_graphs_many(
    subgraphs: Sequence[ExtractedSubgraph],
) -> List[RelationalGraph]:
    """Transform a batch of extracted subgraphs to relation view at once.

    All subgraphs share the pairing/classification/sorting numpy passes:
    node ids are offset per graph and entity ids disambiguated with a
    per-graph key stride, so one sort/group-by enumerates every graph's
    co-incident triple pairs together.  Each output graph is the same as
    :func:`build_relational_graph` of its subgraph alone.
    """
    subgraphs = list(subgraphs)
    if not subgraphs:
        return []
    with span("prepare.linegraph"):
        return _build_relational_graphs_many(subgraphs)


def _build_relational_graphs_many(
    subgraphs: Sequence[ExtractedSubgraph],
) -> List[RelationalGraph]:
    node_counts = np.empty(len(subgraphs), dtype=np.int64)
    head_parts: List[np.ndarray] = []
    rel_parts: List[np.ndarray] = []
    tail_parts: List[np.ndarray] = []
    for i, subgraph in enumerate(subgraphs):
        arr = subgraph.triples.array
        n = len(arr) + 1
        node_counts[i] = n
        heads = np.empty(n, dtype=np.int64)
        rels = np.empty(n, dtype=np.int64)
        tails = np.empty(n, dtype=np.int64)
        heads[0], rels[0], tails[0] = subgraph.head, subgraph.relation, subgraph.tail
        heads[1:] = arr[:, 0]
        rels[1:] = arr[:, 1]
        tails[1:] = arr[:, 2]
        head_parts.append(heads)
        rel_parts.append(rels)
        tail_parts.append(tails)

    offsets = np.zeros(len(subgraphs) + 1, dtype=np.int64)
    np.cumsum(node_counts, out=offsets[1:])
    total_nodes = int(offsets[-1])
    all_heads = np.concatenate(head_parts)
    all_tails = np.concatenate(tail_parts)
    node_graph = np.repeat(np.arange(len(subgraphs), dtype=np.int64), node_counts)

    # Entity incidence: every node under its head entity, plus its tail
    # entity when distinct (a self-loop is listed once).  Entity
    # keys carry the graph id so graphs never pair across the batch.
    stride = np.int64(max(int(all_heads.max()), int(all_tails.max())) + 1) if total_nodes else np.int64(1)
    node_index = np.arange(total_nodes, dtype=np.int64)
    loop_free = all_tails != all_heads
    entity_keys = np.concatenate(
        [
            node_graph * stride + all_heads,
            node_graph[loop_free] * stride + all_tails[loop_free],
        ]
    )
    incident_nodes = np.concatenate([node_index, node_index[loop_free]])

    a, b = _coincident_pairs(entity_keys, incident_nodes, total_nodes)
    src, etype, dst = _classified_edges(all_heads, all_tails, a, b)
    # Global lexicographic sort by (src, etype, dst); node offsets are
    # monotone per graph, so this is simultaneously the per-graph local
    # (src, etype, dst) order.
    if src.size:
        order = np.lexsort((dst, etype, src))
        src, etype, dst = src[order], etype[order], dst[order]
        edge_bounds = np.searchsorted(src, offsets)
    else:
        edge_bounds = np.zeros(len(subgraphs) + 1, dtype=np.int64)

    graphs: List[RelationalGraph] = []
    for i in range(len(subgraphs)):
        lo, hi = int(edge_bounds[i]), int(edge_bounds[i + 1])
        if hi > lo:
            shift = offsets[i]
            edges = np.column_stack(
                [src[lo:hi] - shift, etype[lo:hi], dst[lo:hi] - shift]
            )
        else:
            edges = np.empty((0, 3), dtype=np.int64)
        graphs.append(
            RelationalGraph(
                node_heads=head_parts[i],
                node_relations=rel_parts[i],
                node_tails=tail_parts[i],
                edges=edges,
                target_node=0,
            )
        )
    return graphs


def build_relational_graph(subgraph: ExtractedSubgraph) -> RelationalGraph:
    """Transform an extracted (entity-view) subgraph into relation view.

    Thin wrapper over :func:`build_relational_graphs_many`.
    """
    return build_relational_graphs_many([subgraph])[0]


def target_one_hop_relations_many(
    graph: KnowledgeGraph, triples: Sequence[Triple]
) -> List[np.ndarray]:
    """Batched NE neighbourhoods read straight from the CSR incidence.

    For each target ``(u, r, v)`` returns the relations of the edges of
    ``graph`` incident to ``u`` or ``v``, each edge once and in edge-id
    order, with every copy of the target fact dropped.  These are the
    one-hop neighbours of the target node in the relation view, the
    neighbourhood the disclosing (NE) module aggregates (paper eq. 13).
    For any ``num_hops >= 1`` they equal the relations of the edges
    incident to ``u`` or ``v`` in the K-hop disclosing subgraph
    (:func:`repro.subgraph.extract_disclosing_subgraph`), in the same
    order: an edge touching ``u`` has both endpoints in ``N_K(u)``, so the
    union induction always keeps it, and the disclosing subgraph lists its
    edges in edge-id order too.  One shared gather and sort serve the whole
    batch instead of one union extraction (two BFS passes included) per
    target.

    Returns one read-only int64 array per target (slices of one batch
    array).  Entity ids outside the graph raise ``ValueError``.
    """
    targets = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    count = len(targets)
    if count == 0:
        return []
    with span("prepare.disclosing"):
        edge_ids, row_counts = graph.incident_edge_id_arrays(targets[:, [0, 2]])
        sample = np.repeat(np.arange(count, dtype=np.int64).repeat(2), row_counts)
        # One packed-key sort restores edge-id order per target and drops the
        # second entry of an edge touching both u and v (or of a u == v row).
        num_edges = len(graph.triples)
        keys = np.unique(sample * num_edges + edge_ids)
        sample, edge_ids = np.divmod(keys, num_edges)
        rows = graph.triples.array[edge_ids]
        keep = (rows != targets[sample]).any(axis=1)
        relations = rows[keep, 1]
        relations.setflags(write=False)
        bounds = np.searchsorted(sample[keep], np.arange(count + 1, dtype=np.int64))
        return [relations[bounds[i] : bounds[i + 1]] for i in range(count)]
