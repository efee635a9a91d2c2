"""Reference Algorithm-1 plan compiler: the original dict-based BFS plus
per-edge Python reindexing loop that
:func:`repro.subgraph.build_message_plans_many` replaced."""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple

import numpy as np

from repro.subgraph.linegraph import RelationalGraph
from repro.subgraph.pruning import LayerPlan, MessagePlan


def legacy_incoming_hops(graph: RelationalGraph, max_hops: int) -> Dict[int, int]:
    """Reference dict-based BFS over per-edge incoming lists."""
    incoming_of: Dict[int, List[int]] = {}
    for src, _etype, dst in graph.edges:
        incoming_of.setdefault(int(dst), []).append(int(src))
    hops = {graph.target_node: 0}
    frontier = deque([graph.target_node])
    while frontier:
        node = frontier.popleft()
        depth = hops[node]
        if depth >= max_hops:
            continue
        for src in incoming_of.get(node, ()):
            if src not in hops:
                hops[src] = depth + 1
                frontier.append(src)
    return hops


def legacy_build_message_plan(
    graph: RelationalGraph, num_layers: int
) -> MessagePlan:
    """Reference pure-Python plan compiler (dict BFS + per-edge reindex)."""
    hops = legacy_incoming_hops(graph, num_layers)
    kept = sorted(hops, key=lambda n: (hops[n], n))
    # Target first (hop 0 sorts first and the target is the unique hop-0 node).
    pruned_index = {node: i for i, node in enumerate(kept)}
    node_ids = np.asarray(kept, dtype=np.int64)
    node_relations = graph.node_relations[node_ids]
    hop_array = np.asarray([hops[n] for n in kept], dtype=np.int64)

    # Reindex edges into pruned space; drop edges touching discarded nodes.
    rows: List[Tuple[int, int, int]] = []
    for src, etype, dst in graph.edges:
        src_i = pruned_index.get(int(src))
        dst_i = pruned_index.get(int(dst))
        if src_i is None or dst_i is None:
            continue
        rows.append((src_i, int(etype), dst_i))
    all_edges = (
        np.asarray(sorted(rows), dtype=np.int64)
        if rows
        else np.empty((0, 3), dtype=np.int64)
    )

    layers: List[LayerPlan] = []
    for k in range(1, num_layers + 1):
        budget = num_layers - k
        update_mask = hop_array <= budget
        update_nodes = np.nonzero(update_mask)[0].astype(np.int64)
        if len(all_edges):
            edge_mask = update_mask[all_edges[:, 2]]
            layer_edges = all_edges[edge_mask]
        else:
            layer_edges = all_edges
        layers.append(LayerPlan(edges=layer_edges, update_nodes=update_nodes))

    return MessagePlan(
        node_ids=node_ids,
        node_relations=node_relations,
        hops=hop_array,
        target_index=0,
        layers=tuple(layers),
    )
