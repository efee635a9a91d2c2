"""`repro.subgraph` — subgraph extraction and relation-view transformation.

The substrate shared by RMPI and all subgraph-reasoning baselines:
K-hop enclosing/disclosing extraction, GraIL's double-radius labeling,
the line-graph (relation-view) transformation with six connection-pattern
edge types, and Algorithm 1's target-relation-guided pruning.
"""

from repro.subgraph.extraction import (
    ExtractedSubgraph,
    extract_disclosing_subgraph,
    extract_enclosing_subgraph,
    extract_subgraphs_many,
)
from repro.subgraph.labeling import encode_labels, label_feature_dim, node_labels
from repro.subgraph.linegraph import (
    EDGE_TYPE_NAMES,
    NUM_EDGE_TYPES,
    RelationalGraph,
    build_relational_graph,
    build_relational_graphs_many,
    connection_types,
    target_one_hop_relations_many,
)
from repro.subgraph.pruning import (
    LayerPlan,
    MessagePlan,
    build_message_plan,
    build_message_plans_many,
    empty_message_plan,
    full_graph_plan,
    incoming_hops,
)

__all__ = [
    "ExtractedSubgraph",
    "extract_enclosing_subgraph",
    "extract_disclosing_subgraph",
    "extract_subgraphs_many",
    "node_labels",
    "encode_labels",
    "label_feature_dim",
    "RelationalGraph",
    "build_relational_graph",
    "build_relational_graphs_many",
    "connection_types",
    "target_one_hop_relations_many",
    "NUM_EDGE_TYPES",
    "EDGE_TYPE_NAMES",
    "LayerPlan",
    "MessagePlan",
    "build_message_plan",
    "build_message_plans_many",
    "empty_message_plan",
    "full_graph_plan",
    "incoming_hops",
]
