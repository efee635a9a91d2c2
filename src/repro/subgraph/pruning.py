"""Target-relation-guided graph pruning (paper Algorithm 1, §III-C).

The relation-view graph R(G) is denser than the entity view, so updating
every node at every layer is wasteful.  Algorithm 1 instead:

1. BFS-samples the target node's *incoming* neighborhood up to depth K,
   producing hop numbers ``hop[n] in {0..K}`` (hop 0 = the target itself);
   nodes farther than K hops are discarded entirely;
2. at GNN layer ``k`` (1-based), updates only nodes with ``hop <= K - k``,
   aggregating from their incoming neighbors (which live at hop <= K-k+1 and
   were updated at layer k-1) — a shrinking frontier that ends with just the
   target node at the last layer.

:func:`build_message_plan` precomputes, per layer, the destination node set
and the edge rows to aggregate, so the model's forward pass is a sequence of
vectorised gather/scatter operations.  A target with an empty enclosing
subgraph needs no compilation: :func:`empty_message_plan` is its shared
singleton plan.

The compiler (:func:`build_message_plans_many`, also behind
:func:`build_message_plan`) runs boolean-mask BFS over the relational
graph's CSR incoming-edge index and reindexes the pruned space with array
inverse-permutation lookups; a batch of graphs is compiled in shared numpy
passes over their disjoint union (one multi-source BFS covers every graph
at once).  The original dict-based BFS plus per-edge Python reindexing
loop is kept as the ``legacy_build_message_plan`` /
``legacy_incoming_hops`` oracles in ``tests/oracles/pruning.py`` for the
equivalence property suite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.subgraph.linegraph import RelationalGraph


@dataclass(frozen=True)
class LayerPlan:
    """Work for one message-passing layer.

    ``edges`` are ``(src, type, dst)`` rows (indices into the *pruned* node
    list); ``update_nodes`` are the pruned-node indices recomputed this
    layer.  Destination nodes with no incoming edges keep only their
    residual/self contribution.
    """

    edges: np.ndarray
    update_nodes: np.ndarray


@dataclass(frozen=True)
class MessagePlan:
    """The full K-layer pruned message-passing schedule.

    Attributes
    ----------
    node_ids:
        Original relational-graph node ids of the pruned nodes (position =
        pruned index).
    node_relations:
        Relation id per pruned node.
    hops:
        BFS hop number per pruned node (0 = target).
    target_index:
        Pruned index of the target node (always 0).
    layers:
        One :class:`LayerPlan` per GNN layer, k = 1..K.
    """

    node_ids: np.ndarray
    node_relations: np.ndarray
    hops: np.ndarray
    target_index: int
    layers: Tuple[LayerPlan, ...]

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    def total_updates(self) -> int:
        """Number of node updates across all layers (the pruning-efficiency
        metric benchmarked against full-graph message passing)."""
        return int(sum(len(layer.update_nodes) for layer in self.layers))


# ======================================================================
# Vectorized compiler
# ======================================================================

def _csr_gather(
    indptr: np.ndarray, values: np.ndarray, nodes: np.ndarray
) -> np.ndarray:
    """Concatenate ``values[indptr[n]:indptr[n+1]]`` over ``nodes``."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=values.dtype)
    ends = np.cumsum(counts)
    flat = np.arange(total, dtype=np.int64) + np.repeat(
        starts - (ends - counts), counts
    )
    return values[flat]


def _incoming_bfs(
    num_nodes: int,
    indptr: np.ndarray,
    sources: np.ndarray,
    seeds: np.ndarray,
    max_hops: int,
) -> np.ndarray:
    """Boolean-mask BFS from ``seeds`` along reversed incoming edges.

    ``indptr``/``sources`` form a CSR keyed on edge destination whose
    values are the edge *source* nodes.  Returns per-node hop numbers
    (-1 = beyond ``max_hops``).  With several seeds (one per graph of a
    disjoint union) the BFS advances every component simultaneously.
    """
    dist = np.full(num_nodes, -1, dtype=np.int64)
    dist[seeds] = 0
    frontier = seeds
    for depth in range(1, max_hops + 1):
        if frontier.size == 0:
            break
        reached = _csr_gather(indptr, sources, frontier)
        reached = reached[dist[reached] < 0]
        if reached.size == 0:
            break
        reached = np.unique(reached)
        dist[reached] = depth
        frontier = reached
    return dist


def incoming_hops(graph: RelationalGraph, max_hops: int) -> Dict[int, int]:
    """BFS hop numbers from the target along *reversed* incoming edges.

    ``hop[n] = h`` means a directed path ``n -> ... -> target`` of length h
    exists, i.e. n's features can reach the target within h layers.  Runs
    the array BFS over the graph's lazily-built CSR incoming-edge index
    (see :meth:`RelationalGraph.incoming_index`); only reached nodes appear
    in the returned dict.
    """
    indptr, order = graph.incoming_index()
    sources = (
        graph.edges[order, 0] if graph.num_edges else np.empty(0, dtype=np.int64)
    )
    dist = _incoming_bfs(
        graph.num_nodes,
        indptr,
        sources,
        np.asarray([graph.target_node], dtype=np.int64),
        max_hops,
    )
    reached = np.flatnonzero(dist >= 0)
    return dict(zip(reached.tolist(), dist[reached].tolist()))


def _layer_plans(
    hop_array: np.ndarray, all_edges: np.ndarray, num_layers: int
) -> Tuple[LayerPlan, ...]:
    """The shrinking per-layer schedules for one pruned graph."""
    layers: List[LayerPlan] = []
    for k in range(1, num_layers + 1):
        budget = num_layers - k
        update_mask = hop_array <= budget
        update_nodes = np.flatnonzero(update_mask).astype(np.int64)
        if len(all_edges):
            layer_edges = all_edges[update_mask[all_edges[:, 2]]]
        else:
            layer_edges = all_edges
        layers.append(LayerPlan(edges=layer_edges, update_nodes=update_nodes))
    return tuple(layers)


def build_message_plans_many(
    graphs: Sequence[RelationalGraph], num_layers: int
) -> List[MessagePlan]:
    """Compile Algorithm 1 for a batch of relational graphs at once.

    The graphs are laid out as a disjoint union (node ids offset per
    graph); one multi-source boolean-mask BFS prunes every graph's
    neighborhood simultaneously, and the pruned-space reindexing is a
    single inverse-permutation gather over the union's edges.  Each
    graph's plan is the same whether it is compiled alone or in a batch.
    """
    graphs = list(graphs)
    if not graphs:
        return []
    num_graphs = len(graphs)
    node_counts = np.asarray([g.num_nodes for g in graphs], dtype=np.int64)
    offsets = np.zeros(num_graphs + 1, dtype=np.int64)
    np.cumsum(node_counts, out=offsets[1:])
    total_nodes = int(offsets[-1])

    edge_counts = np.asarray([g.num_edges for g in graphs], dtype=np.int64)
    if int(edge_counts.sum()):
        stacked = np.concatenate([g.edges for g in graphs if g.num_edges])
        edge_shift = np.repeat(offsets[:-1], edge_counts)
        src = stacked[:, 0] + edge_shift
        etype = stacked[:, 1]
        dst = stacked[:, 2] + edge_shift
        edge_graph = np.repeat(np.arange(num_graphs, dtype=np.int64), edge_counts)
    else:
        src = etype = dst = np.empty(0, dtype=np.int64)
        edge_graph = np.empty(0, dtype=np.int64)

    # Union-wide CSR incoming index (keyed on destination, values = sources).
    in_order = np.argsort(dst, kind="stable")
    in_sources = src[in_order]
    indptr = np.zeros(total_nodes + 1, dtype=np.int64)
    if dst.size:
        np.cumsum(np.bincount(dst, minlength=total_nodes), out=indptr[1:])

    seeds = offsets[:-1] + np.asarray(
        [g.target_node for g in graphs], dtype=np.int64
    )
    dist = _incoming_bfs(total_nodes, indptr, in_sources, seeds, num_layers)

    # Pruned node order: per graph, by (hop, original node id).  Kept node
    # ids are ascending, so graph-major lexsort yields each graph's block in
    # exactly ``sorted(hops, key=(hop, node))`` order.
    kept = np.flatnonzero(dist >= 0)
    kept_hops = dist[kept]
    kept_graph = np.searchsorted(offsets, kept, side="right") - 1
    order = np.lexsort((kept, kept_hops, kept_graph))
    kept = kept[order]
    kept_hops = kept_hops[order]
    kept_graph = kept_graph[order]
    kept_counts = np.bincount(kept_graph, minlength=num_graphs)
    kept_offsets = np.zeros(num_graphs + 1, dtype=np.int64)
    np.cumsum(kept_counts, out=kept_offsets[1:])
    pruned_local = np.arange(len(kept), dtype=np.int64) - kept_offsets[kept_graph]
    inverse = np.full(total_nodes, -1, dtype=np.int64)
    inverse[kept] = pruned_local

    # Reindex the union's edges into per-graph pruned space; drop edges
    # touching discarded nodes; sort per graph by (src, etype, dst).
    if src.size:
        src_p = inverse[src]
        dst_p = inverse[dst]
        survives = (src_p >= 0) & (dst_p >= 0)
        src_p = src_p[survives]
        etype_p = etype[survives]
        dst_p = dst_p[survives]
        graph_p = edge_graph[survives]
        edge_order = np.lexsort((dst_p, etype_p, src_p, graph_p))
        rows = np.column_stack(
            [src_p[edge_order], etype_p[edge_order], dst_p[edge_order]]
        )
        edge_bounds = np.searchsorted(graph_p[edge_order], np.arange(num_graphs + 1))
    else:
        rows = np.empty((0, 3), dtype=np.int64)
        edge_bounds = np.zeros(num_graphs + 1, dtype=np.int64)

    plans: List[MessagePlan] = []
    for i, graph in enumerate(graphs):
        lo, hi = int(kept_offsets[i]), int(kept_offsets[i + 1])
        node_ids = kept[lo:hi] - offsets[i]
        hop_array = kept_hops[lo:hi]
        all_edges = rows[int(edge_bounds[i]) : int(edge_bounds[i + 1])]
        plans.append(
            MessagePlan(
                node_ids=node_ids,
                node_relations=graph.node_relations[node_ids],
                hops=hop_array,
                target_index=0,
                layers=_layer_plans(hop_array, all_edges, num_layers),
            )
        )
    return plans


def build_message_plan(graph: RelationalGraph, num_layers: int) -> MessagePlan:
    """Compile Algorithm 1 for ``graph`` with ``num_layers`` GNN layers.

    Thin wrapper over :func:`build_message_plans_many`.
    """
    return build_message_plans_many([graph], num_layers)[0]


@functools.lru_cache(maxsize=None)
def empty_message_plan(relation: int, num_layers: int) -> MessagePlan:
    """The plan of a target whose enclosing subgraph is empty, shared.

    Such a target's relation-view graph is its lone node with no edge, so
    the plan is one node at hop 0 that every layer updates from no edges:
    field by field what :func:`build_message_plan` compiles for it.  One
    read-only instance is built per ``(relation, num_layers)``, so the
    cache holds at most one plan per relation id and layer count in use.
    """
    zero = np.zeros(1, dtype=np.int64)
    relations = np.asarray([relation], dtype=np.int64)
    no_edges = np.empty((0, 3), dtype=np.int64)
    for array in (zero, relations, no_edges):
        array.setflags(write=False)
    layer = LayerPlan(edges=no_edges, update_nodes=zero)
    return MessagePlan(
        node_ids=zero,
        node_relations=relations,
        hops=zero,
        target_index=0,
        layers=(layer,) * num_layers,
    )


def full_graph_plan(graph: RelationalGraph, num_layers: int) -> MessagePlan:
    """The unpruned alternative: every node updates at every layer.

    Used by the pruning-efficiency ablation benchmark to quantify the
    savings Algorithm 1 delivers.
    """
    num_nodes = graph.num_nodes
    node_ids = np.arange(num_nodes, dtype=np.int64)
    update_nodes = node_ids.copy()
    layer = LayerPlan(edges=graph.edges, update_nodes=update_nodes)
    hops = incoming_hops(graph, num_layers)
    hop_array = np.asarray(
        [hops.get(int(n), num_layers + 1) for n in node_ids], dtype=np.int64
    )
    return MessagePlan(
        node_ids=node_ids,
        node_relations=graph.node_relations.copy(),
        hops=hop_array,
        target_index=graph.target_node,
        layers=tuple(layer for _ in range(num_layers)),
    )
