"""Vectorized vs legacy relation-view pipeline equivalence (the contract).

The numpy pairing kernel behind ``build_relational_graph`` /
``build_relational_graphs_many`` and the array plan compiler behind
``build_message_plan`` / ``build_message_plans_many`` must produce
*identical* values to the pure-Python oracles in ``tests/oracles/`` — same
node ordering (target first, then subgraph triples in order), same
deduplicated sorted edge rows, same BFS hops, same per-layer schedules — on
arbitrary subgraphs, including self-loops, parallel edges (PARA/LOOP
subsumption), empty subgraphs, and disconnected targets.  The batched NE
neighbourhood read from CSR incidence must equal the one-hop relations of
the extracted disclosing subgraph.  A final class asserts fused batched
scoring stays equal to per-sample scoring through the new prepare path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engine_tolerances import score_tolerance
from oracles.linegraph import disclosing_one_hop_relations, legacy_build_relational_graph
from oracles.pruning import legacy_build_message_plan, legacy_incoming_hops
from repro.core import RMPI, RMPIConfig
from repro.kg import KnowledgeGraph, TripleSet
from repro.subgraph import (
    build_message_plan,
    build_message_plans_many,
    build_relational_graph,
    build_relational_graphs_many,
    extract_disclosing_subgraph,
    extract_enclosing_subgraph,
    extract_subgraphs_many,
    incoming_hops,
    target_one_hop_relations_many,
)


def random_graph(seed: int) -> KnowledgeGraph:
    rng = np.random.default_rng(seed)
    num_entities = int(rng.integers(3, 14))
    num_relations = int(rng.integers(2, 6))
    triples = sorted(
        {
            (
                int(rng.integers(num_entities)),
                int(rng.integers(num_relations)),
                int(rng.integers(num_entities)),
            )
            for _ in range(int(rng.integers(2, 36)))
        }
    )
    return KnowledgeGraph.from_triples(
        TripleSet(triples), num_entities=num_entities, num_relations=num_relations
    )


def assert_same_relational(a, b):
    """Exact equality: node ordering contract, relations, sorted edges."""
    assert a.node_triples == b.node_triples
    assert np.array_equal(a.node_relations, b.node_relations)
    assert a.edges.shape == b.edges.shape
    assert np.array_equal(a.edges, b.edges)
    assert a.target_node == b.target_node


def assert_same_plan(p, q):
    assert np.array_equal(p.node_ids, q.node_ids)
    assert np.array_equal(p.node_relations, q.node_relations)
    assert np.array_equal(p.hops, q.hops)
    assert p.target_index == q.target_index
    assert len(p.layers) == len(q.layers)
    for lp, lq in zip(p.layers, q.layers):
        assert np.array_equal(lp.edges, lq.edges)
        assert np.array_equal(lp.update_nodes, lq.update_nodes)


def subgraphs_for(graph, target, hops=2):
    return (
        extract_enclosing_subgraph(graph, target, hops),
        extract_disclosing_subgraph(graph, target, hops),
    )


class TestRelationalGraphEquivalence:
    @given(seed=st.integers(0, 500))
    @settings(max_examples=50, deadline=None)
    def test_randomized_subgraphs(self, seed):
        graph = random_graph(seed)
        if len(graph.triples) == 0:
            return
        rng = np.random.default_rng(seed + 1)
        targets = [
            graph.triples[seed % len(graph.triples)],  # a fact
            (  # an arbitrary (possibly disconnected non-fact) pair
                int(rng.integers(graph.num_entities)),
                int(rng.integers(graph.num_relations)),
                int(rng.integers(graph.num_entities)),
            ),
        ]
        for target in targets:
            for sub in subgraphs_for(graph, target):
                assert_same_relational(
                    build_relational_graph(sub), legacy_build_relational_graph(sub)
                )

    @given(seed=st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_batched_matches_per_subgraph(self, seed):
        graph = random_graph(seed)
        if len(graph.triples) == 0:
            return
        targets = [graph.triples[i % len(graph.triples)] for i in range(6)]
        subs = extract_subgraphs_many(graph, targets, 2)
        for sub, rg in zip(subs, build_relational_graphs_many(subs)):
            assert_same_relational(rg, legacy_build_relational_graph(sub))

    def test_self_loops_and_parallel_edges(self):
        # Self-loops share head==tail; parallel edges must be typed PARA
        # (not H-H + T-T) and crossed pairs LOOP (not H-T + T-H).
        g = KnowledgeGraph.from_triples(
            [(0, 0, 0), (0, 1, 1), (0, 2, 1), (1, 0, 0), (1, 1, 1), (0, 0, 1)]
        )
        for target in [(0, 1, 1), (0, 0, 0), (1, 1, 1)]:
            for sub in subgraphs_for(g, target):
                assert_same_relational(
                    build_relational_graph(sub), legacy_build_relational_graph(sub)
                )

    def test_empty_subgraph(self):
        g = KnowledgeGraph.from_triples([(0, 0, 1), (2, 0, 3)])
        sub = extract_enclosing_subgraph(g, (0, 0, 3), 2)
        assert sub.is_empty
        rg = build_relational_graph(sub)
        assert_same_relational(rg, legacy_build_relational_graph(sub))
        assert rg.num_nodes == 1 and rg.num_edges == 0

    def test_disconnected_target(self):
        g = KnowledgeGraph.from_triples([(0, 0, 1), (1, 1, 2), (3, 0, 4)])
        for sub in subgraphs_for(g, (0, 2, 4)):
            assert_same_relational(
                build_relational_graph(sub), legacy_build_relational_graph(sub)
            )

    def test_incoming_csr_matches_boolean_scan(self):
        for seed in range(12):
            graph = random_graph(seed)
            if len(graph.triples) == 0:
                continue
            sub = extract_enclosing_subgraph(
                graph, graph.triples[seed % len(graph.triples)], 2
            )
            rg = build_relational_graph(sub)
            for node in range(rg.num_nodes):
                expected = (
                    rg.edges[rg.edges[:, 2] == node]
                    if rg.num_edges
                    else np.empty((0, 3), dtype=np.int64)
                )
                assert np.array_equal(rg.incoming(node), expected)

    def test_target_one_hop_relations_order(self):
        # The batched CSR read must preserve triple order (the NE module's
        # ragged concat is keyed on it).
        g = KnowledgeGraph.from_triples(
            [(0, 0, 1), (1, 1, 2), (2, 2, 3), (1, 3, 0), (3, 0, 3)]
        )
        sub = extract_disclosing_subgraph(g, (0, 1, 1), 2)
        u, v = sub.head, sub.tail
        expected = [
            r for h, r, t in sub.triples if h == u or t == u or h == v or t == v
        ]
        assert target_one_hop_relations_many(g, [(0, 1, 1)])[0].tolist() == expected


def multigraph(seed: int) -> KnowledgeGraph:
    """A random graph whose triple rows keep repeats: self-loops, parallel
    edges, facts stored more than once and reversed facts all occur."""
    rng = np.random.default_rng(seed)
    num_entities = int(rng.integers(2, 12))
    num_relations = int(rng.integers(1, 5))

    def entity() -> int:
        return int(rng.integers(num_entities))

    def relation() -> int:
        return int(rng.integers(num_relations))

    rows = [(entity(), relation(), entity()) for _ in range(int(rng.integers(0, 30)))]
    rows += [(e, relation(), e) for e in (entity(), entity())]  # self-loops
    for h, _r, t in rows[:3]:
        rows.append((h, relation(), t))  # parallel edges
    rows += [(t, r, h) for h, r, t in rows[:3]]  # reversed facts
    rows += rows[:4]  # facts stored twice
    rows = [rows[i] for i in rng.permutation(len(rows))]
    return KnowledgeGraph(TripleSet(rows), num_entities, num_relations)


class TestTargetOneHopRelationsMany:
    @given(seed=st.integers(0, 600), hops=st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_matches_disclosing_extraction(self, seed, hops):
        graph = multigraph(seed)
        rng = np.random.default_rng(seed + 1)
        facts = [tuple(int(x) for x in row) for row in graph.triples.array]
        head = int(rng.integers(graph.num_entities))
        relation = int(rng.integers(graph.num_relations))
        targets = [(head, relation, e) for e in range(graph.num_entities)]
        targets += facts[:6]  # includes the facts stored twice
        targets += [(t, r, h) for h, r, t in facts[:3]]  # reversed
        targets += [(e, relation, e) for e in (head, int(rng.integers(graph.num_entities)))]
        got = target_one_hop_relations_many(graph, targets)
        assert len(got) == len(targets)
        for target, relations in zip(targets, got):
            expected = disclosing_one_hop_relations(graph, target, hops)
            assert relations.dtype == np.int64 and relations.ndim == 1
            assert relations.tolist() == expected.tolist()
            assert not relations.flags.writeable

    def test_repeated_target_fact_and_reversal(self):
        # Edges: 0 (0,0,1) target, 1 (1,1,2), 2 (0,0,1) second copy,
        # 3 (1,0,0) reversed target, 4 (0,2,0) self-loop, 5 (0,3,1) parallel.
        g = KnowledgeGraph.from_triples(
            [(0, 0, 1), (1, 1, 2), (0, 0, 1), (1, 0, 0), (0, 2, 0), (0, 3, 1)]
        )
        targets = [(0, 0, 1), (1, 0, 0), (0, 2, 0), (2, 1, 2)]
        got = target_one_hop_relations_many(g, targets)
        assert [r.tolist() for r in got] == [[1, 0, 2, 3], [0, 1, 0, 2, 3], [0, 0, 0, 3], [1]]
        for target, relations in zip(targets, got):
            for hops in (1, 2, 3):
                assert relations.tolist() == disclosing_one_hop_relations(g, target, hops).tolist()

    def test_empty_batch(self):
        g = KnowledgeGraph.from_triples([(0, 0, 1)])
        assert target_one_hop_relations_many(g, []) == []
        assert target_one_hop_relations_many(g, np.empty((0, 3), dtype=np.int64)) == []

    def test_edgeless_graph(self):
        g = KnowledgeGraph(TripleSet([]), 3, 2)
        got = target_one_hop_relations_many(g, [(0, 1, 2), (1, 0, 1)])
        assert [r.tolist() for r in got] == [[], []]
        assert all(r.dtype == np.int64 for r in got)

    @pytest.mark.parametrize(
        "targets, bad",
        [
            ([(0, 0, 1), (0, 0, 3)], 3),
            ([(0, 0, 1), (-1, 0, 1)], -1),
            ([(7, 0, -2)], 7),
        ],
    )
    def test_out_of_range_ids_raise(self, targets, bad):
        g = KnowledgeGraph.from_triples([(0, 0, 1), (1, 1, 2)])
        with pytest.raises(ValueError) as caught:
            target_one_hop_relations_many(g, targets)
        with pytest.raises(ValueError) as reference:
            g.incident_edges(bad)
        assert str(caught.value) == str(reference.value)


class TestMessagePlanEquivalence:
    @given(seed=st.integers(0, 400), num_layers=st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_randomized_plans(self, seed, num_layers):
        graph = random_graph(seed)
        if len(graph.triples) == 0:
            return
        target = graph.triples[seed % len(graph.triples)]
        for sub in subgraphs_for(graph, target):
            rg = build_relational_graph(sub)
            assert_same_plan(
                build_message_plan(rg, num_layers),
                legacy_build_message_plan(rg, num_layers),
            )
            assert incoming_hops(rg, num_layers) == legacy_incoming_hops(
                rg, num_layers
            )

    @given(seed=st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_batched_matches_per_graph(self, seed):
        graph = random_graph(seed)
        if len(graph.triples) == 0:
            return
        targets = [graph.triples[i % len(graph.triples)] for i in range(6)]
        relationals = build_relational_graphs_many(
            extract_subgraphs_many(graph, targets, 2)
        )
        for rg, plan in zip(relationals, build_message_plans_many(relationals, 2)):
            assert_same_plan(plan, legacy_build_message_plan(rg, 2))

    def test_empty_graph_plan(self):
        g = KnowledgeGraph.from_triples([(0, 0, 1), (2, 0, 3)])
        rg = build_relational_graph(extract_enclosing_subgraph(g, (0, 0, 3), 2))
        plan = build_message_plan(rg, 2)
        assert_same_plan(plan, legacy_build_message_plan(rg, 2))
        assert plan.num_nodes == 1
        assert all(len(layer.edges) == 0 for layer in plan.layers)

    def test_batch_mixes_empty_and_dense_graphs(self):
        g = KnowledgeGraph.from_triples(
            [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 0, 4)]
        )
        targets = [(0, 0, 1), (0, 0, 4), (1, 1, 2)]  # middle one is empty
        relationals = build_relational_graphs_many(
            extract_subgraphs_many(g, targets, 2)
        )
        assert relationals[1].num_edges == 0
        for rg, plan in zip(relationals, build_message_plans_many(relationals, 2)):
            assert_same_plan(plan, legacy_build_message_plan(rg, 2))


class TestFusedScoreParity:
    """Fused batched scoring == per-sample scoring through the new
    batched prepare path (line graph + plan compiled in shared passes)."""

    @pytest.mark.parametrize(
        "config",
        [
            RMPIConfig(embed_dim=16, dropout=0.0),
            RMPIConfig(embed_dim=16, dropout=0.0, use_disclosing=True),
            RMPIConfig(
                embed_dim=16,
                dropout=0.0,
                use_disclosing=True,
                use_target_attention=True,
                fusion="concat",
            ),
        ],
        ids=["base", "NE", "NE-TA-concat"],
    )
    def test_fused_equals_per_sample(self, tiny_partial_benchmark, config):
        b = tiny_partial_benchmark
        model = RMPI(b.num_relations, np.random.default_rng(0), config)
        model.eval()
        triples = list(b.train_triples)[:8]
        samples = model.prepared_many(b.train_graph, triples)
        fused = model.score_samples_batched(samples).data.reshape(-1)
        single = np.asarray(
            [float(model.score_sample(s).data.reshape(-1)[0]) for s in samples]
        )
        np.testing.assert_allclose(fused, single, **score_tolerance())

    def test_ne_gradients_flow_through_batched_aggregator(
        self, tiny_partial_benchmark
    ):
        b = tiny_partial_benchmark
        model = RMPI(
            b.num_relations,
            np.random.default_rng(0),
            RMPIConfig(embed_dim=16, dropout=0.0, use_disclosing=True),
        )
        triples = list(b.train_triples)[:4]
        scores = model.score_batch(b.train_graph, triples)
        scores.sum().backward()
        grads = [
            p.grad for p in model.parameters() if p.grad is not None
        ]
        assert grads and any(np.abs(g).sum() > 0 for g in grads)
