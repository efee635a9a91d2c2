"""Anatomy of RMPI's subgraph reasoning on the paper's Fig. 2/3 example.

Builds the family knowledge graph from the paper's figures, then walks
through each stage of the RMPI pipeline for the target triple
(A, husband_of, B):

1. K-hop enclosing subgraph extraction;
2. entity-view -> relation-view (line graph) transformation with the six
   connection-pattern edge types (H-H, H-T, T-H, T-T, PARA, LOOP);
3. Algorithm-1 target-relation-guided pruning, showing the shrinking
   per-layer update frontiers;
4. the disclosing subgraph's one-hop relational neighborhood (NE module).

Run:  python examples/graph_transformation_demo.py
"""

from repro.kg import KnowledgeGraph, TripleSet
from repro.subgraph import (
    EDGE_TYPE_NAMES,
    build_message_plan,
    build_relational_graph,
    extract_disclosing_subgraph,
    extract_enclosing_subgraph,
    full_graph_plan,
    target_one_hop_relations_many,
)

ENTITIES = ["A", "B", "C", "D", "E", "F"]
RELATIONS = [
    "husband_of",
    "daughter_of",
    "mother_of",
    "son_of",
    "father_of",
    "lives_in",
    "address",
]

TRIPLES = [
    (0, 0, 1),  # A husband_of B
    (2, 1, 0),  # C daughter_of A
    (1, 2, 2),  # B mother_of C
    (3, 3, 1),  # D son_of B
    (0, 4, 3),  # A father_of D
    (0, 4, 4),  # A father_of E
    (1, 5, 5),  # B lives_in F
    (5, 6, 1),  # F address B
]


def fmt(triple) -> str:
    h, r, t = triple
    return f"{ENTITIES[h]} --{RELATIONS[r]}--> {ENTITIES[t]}"


def main() -> None:
    graph = KnowledgeGraph(TripleSet(TRIPLES), num_entities=6, num_relations=7)
    target = (0, 0, 1)  # (A, husband_of, B)
    print(f"Knowledge graph: {graph}")
    print(f"Target triple: {fmt(target)}\n")

    # Step 1: enclosing subgraph.
    enclosing = extract_enclosing_subgraph(graph, target, num_hops=2)
    print("1) 2-hop enclosing subgraph (target edge removed):")
    for triple in enclosing.triples:
        print(f"   {fmt(triple)}")

    # Step 2: relation-view transformation.
    relational = build_relational_graph(enclosing)
    print(f"\n2) Relation-view graph: {relational.num_nodes} nodes, "
          f"{relational.num_edges} typed directed edges")
    for src, etype, dst in relational.edges[:12]:
        a = relational.node_triples[src]
        b = relational.node_triples[dst]
        print(
            f"   [{RELATIONS[a[1]]}({ENTITIES[a[0]]}{ENTITIES[a[2]]})] "
            f"--{EDGE_TYPE_NAMES[etype]}--> "
            f"[{RELATIONS[b[1]]}({ENTITIES[b[0]]}{ENTITIES[b[2]]})]"
        )
    if relational.num_edges > 12:
        print(f"   ... and {relational.num_edges - 12} more")

    # Step 3: pruned message plan vs the full graph.
    plan = build_message_plan(relational, num_layers=2)
    full = full_graph_plan(relational, num_layers=2)
    print("\n3) Algorithm-1 pruning (K = 2 layers):")
    for k, layer in enumerate(plan.layers, start=1):
        print(
            f"   layer {k}: updates {len(layer.update_nodes)} node(s), "
            f"{len(layer.edges)} message edge(s)"
        )
    print(
        f"   total node updates: pruned {plan.total_updates()} "
        f"vs full-graph {full.total_updates()}"
    )

    # Step 4: disclosing neighborhood for the NE module.
    disclosing = extract_disclosing_subgraph(graph, target, num_hops=2)
    neighbors = target_one_hop_relations_many(graph, [target])[0]
    print(
        f"\n4) 2-hop disclosing subgraph: {len(disclosing.entities)} entities, "
        f"{len(disclosing.triples)} edges; one-hop relational neighborhood "
        "(NE module input):"
    )
    print("   " + ", ".join(RELATIONS[r] for r in sorted(set(neighbors.tolist()))))


if __name__ == "__main__":
    main()
