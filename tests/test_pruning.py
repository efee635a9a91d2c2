"""Algorithm-1 pruning tests: hop computation and layer schedules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg import KnowledgeGraph, TripleSet
from repro.subgraph import (
    build_message_plan,
    build_relational_graph,
    empty_message_plan,
    extract_enclosing_subgraph,
    full_graph_plan,
    incoming_hops,
)


def relational_graph_for(triples, target, hops=2):
    g = KnowledgeGraph.from_triples(triples)
    sub = extract_enclosing_subgraph(g, target, num_hops=hops)
    return build_relational_graph(sub)


@pytest.fixture
def chain_rg(family_graph):
    sub = extract_enclosing_subgraph(family_graph, (0, 0, 1), num_hops=2)
    return build_relational_graph(sub)


class TestIncomingHops:
    def test_target_at_hop_zero(self, chain_rg):
        hops = incoming_hops(chain_rg, 2)
        assert hops[chain_rg.target_node] == 0

    def test_hops_bounded(self, chain_rg):
        hops = incoming_hops(chain_rg, 2)
        assert all(h <= 2 for h in hops.values())

    def test_hop_one_are_direct_neighbors(self, chain_rg):
        hops = incoming_hops(chain_rg, 2)
        direct = set(chain_rg.incoming(chain_rg.target_node)[:, 0].tolist())
        for node in direct:
            assert hops[node] == 1

    def test_isolated_target(self):
        rg = relational_graph_for([(0, 0, 1), (2, 0, 3)], (0, 0, 3))
        hops = incoming_hops(rg, 2)
        assert hops == {rg.target_node: 0}


class TestMessagePlan:
    def test_target_index_zero(self, chain_rg):
        plan = build_message_plan(chain_rg, 2)
        assert plan.target_index == 0
        assert plan.node_relations[0] == chain_rg.node_relations[chain_rg.target_node]

    def test_layer_count(self, chain_rg):
        plan = build_message_plan(chain_rg, 3)
        assert len(plan.layers) == 3

    def test_frontier_shrinks(self, chain_rg):
        plan = build_message_plan(chain_rg, 2)
        sizes = [len(layer.update_nodes) for layer in plan.layers]
        assert sizes == sorted(sizes, reverse=True)

    def test_last_layer_updates_only_target(self, chain_rg):
        plan = build_message_plan(chain_rg, 2)
        assert plan.layers[-1].update_nodes.tolist() == [plan.target_index]

    def test_layer_edges_destinations_in_update_set(self, chain_rg):
        plan = build_message_plan(chain_rg, 2)
        for layer in plan.layers:
            update = set(layer.update_nodes.tolist())
            assert all(int(dst) in update for _s, _e, dst in layer.edges)

    def test_layer_k_updates_nodes_within_budget(self, chain_rg):
        K = 2
        plan = build_message_plan(chain_rg, K)
        for k, layer in enumerate(plan.layers, start=1):
            budget = K - k
            for node in layer.update_nodes:
                assert plan.hops[node] <= budget

    def test_sources_within_pruned_set(self, chain_rg):
        plan = build_message_plan(chain_rg, 2)
        n = plan.num_nodes
        for layer in plan.layers:
            assert all(0 <= int(s) < n for s, _e, _d in layer.edges)

    def test_total_updates_less_than_full(self, chain_rg):
        pruned = build_message_plan(chain_rg, 2)
        full = full_graph_plan(chain_rg, 2)
        assert pruned.total_updates() <= full.total_updates()

    def test_empty_graph_plan(self):
        rg = relational_graph_for([(0, 0, 1), (2, 0, 3)], (0, 0, 3))
        plan = build_message_plan(rg, 2)
        assert plan.num_nodes == 1
        assert all(len(layer.edges) == 0 for layer in plan.layers)

    @given(seed=st.integers(0, 100), num_layers=st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_property_plan_consistency(self, seed, num_layers):
        rng = np.random.default_rng(seed)
        triples = TripleSet(
            {
                (int(rng.integers(8)), int(rng.integers(4)), int(rng.integers(8)))
                for _ in range(14)
            }
        )
        g = KnowledgeGraph.from_triples(triples, num_entities=8, num_relations=4)
        if len(g.triples) == 0:
            return
        target = g.triples[0]
        rg = build_relational_graph(
            extract_enclosing_subgraph(g, target, num_hops=2)
        )
        plan = build_message_plan(rg, num_layers)
        # Target always kept at hop 0.
        assert plan.hops[plan.target_index] == 0
        # All kept hops within num_layers.
        assert (plan.hops <= num_layers).all()
        # Edges at every layer respect the shrinking frontier.
        for k, layer in enumerate(plan.layers, start=1):
            budget = num_layers - k
            for src, _etype, dst in layer.edges:
                assert plan.hops[dst] <= budget
                assert plan.hops[src] <= budget + 1


class TestEmptyMessagePlan:
    """The shared plan of an empty enclosing subgraph is what the compiler
    builds for its lone-node relational graph, and nobody can mutate it."""

    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_equals_compiled_plan_field_by_field(self, num_layers):
        g = KnowledgeGraph.from_triples([(0, 0, 1), (2, 1, 3)])
        sub = extract_enclosing_subgraph(g, (0, 4, 3), num_hops=2)
        assert sub.is_empty
        compiled = build_message_plan(build_relational_graph(sub), num_layers)
        shared = empty_message_plan(4, num_layers)
        for name in ("node_ids", "node_relations", "hops"):
            a, b = getattr(shared, name), getattr(compiled, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert shared.target_index == compiled.target_index
        assert len(shared.layers) == len(compiled.layers) == num_layers
        for mine, theirs in zip(shared.layers, compiled.layers):
            for name in ("edges", "update_nodes"):
                a, b = getattr(mine, name), getattr(theirs, name)
                assert a.shape == b.shape and a.dtype == b.dtype, name
                assert np.array_equal(a, b), name

    def test_shared_and_read_only(self):
        plan = empty_message_plan(2, 2)
        assert empty_message_plan(2, 2) is plan
        assert empty_message_plan(3, 2) is not plan
        arrays = [plan.node_ids, plan.node_relations, plan.hops]
        for layer in plan.layers:
            arrays += [layer.edges, layer.update_nodes]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 7


class TestFullGraphPlan:
    def test_updates_everything_each_layer(self, chain_rg):
        plan = full_graph_plan(chain_rg, 2)
        for layer in plan.layers:
            assert len(layer.update_nodes) == chain_rg.num_nodes
            assert len(layer.edges) == chain_rg.num_edges

    def test_total_updates(self, chain_rg):
        plan = full_graph_plan(chain_rg, 3)
        assert plan.total_updates() == 3 * chain_rg.num_nodes
