"""CSR-path vs legacy-path extraction equivalence (the engine's contract).

The vectorized engine behind ``extract_enclosing_subgraph`` /
``extract_subgraphs_many`` must produce *identical* ``ExtractedSubgraph``
values to the pure-Python oracle in ``tests/oracles/extraction.py`` —
same entity tuple, same edge list (content AND order), same internal
distance maps — on arbitrary graphs, including self-loops, parallel
relations, empty enclosing subgraphs, and K=1.  The disclosing subgraph
has only the pure-Python implementation; its isolation-prune contract is
checked directly.

``extract_subgraphs_many`` decides most empty enclosing subgraphs from the
K-hop frontiers alone (disjoint frontiers, no self-loop on either target,
K >= 1) and never induces their edges; ``TestEarlyEmptyDecision`` pins
that shortcut to the oracle on sparse multi-component graphs, where
disjoint frontiers are common, and on the cases the rule must not cover.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.extraction import legacy_extract_enclosing_subgraph
from repro.kg import KnowledgeGraph, NeighborhoodCache, TripleSet
from repro.subgraph import (
    extract_disclosing_subgraph,
    extract_enclosing_subgraph,
    extract_subgraphs_many,
)
from repro.subgraph import extraction


def random_graph(seed: int, allow_self_loops: bool = True) -> KnowledgeGraph:
    rng = np.random.default_rng(seed)
    num_entities = int(rng.integers(3, 16))
    num_relations = int(rng.integers(2, 6))
    triples = sorted(
        {
            (
                int(rng.integers(num_entities)),
                int(rng.integers(num_relations)),
                int(rng.integers(num_entities)),
            )
            for _ in range(int(rng.integers(2, 40)))
        }
    )
    if not allow_self_loops:
        triples = [(h, r, t) for h, r, t in triples if h != t]
    return KnowledgeGraph.from_triples(
        TripleSet(triples), num_entities=num_entities, num_relations=num_relations
    )


def assert_identical(a, b):
    assert (a.head, a.relation, a.tail, a.num_hops) == (b.head, b.relation, b.tail, b.num_hops)
    assert a.entities == b.entities
    assert list(a.triples) == list(b.triples)  # content and order
    assert a.distances_u == b.distances_u
    assert a.distances_v == b.distances_v
    assert a.is_empty == b.is_empty


def assert_matches_oracle(graph, target, hops):
    assert_identical(
        extract_enclosing_subgraph(graph, target, hops),
        legacy_extract_enclosing_subgraph(graph, target, hops),
    )


class TestEquivalenceProperty:
    @given(seed=st.integers(0, 500), hops=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_randomized_graphs(self, seed, hops):
        graph = random_graph(seed)
        if len(graph.triples) == 0:
            return
        rng = np.random.default_rng(seed + 1)
        targets = [
            graph.triples[seed % len(graph.triples)],  # a fact
            (  # an arbitrary (possibly non-fact) pair
                int(rng.integers(graph.num_entities)),
                int(rng.integers(graph.num_relations)),
                int(rng.integers(graph.num_entities)),
            ),
        ]
        for target in targets:
            assert_matches_oracle(graph, target, hops)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_batched_matches_per_triple(self, seed):
        graph = random_graph(seed)
        if len(graph.triples) == 0:
            return
        targets = [graph.triples[i % len(graph.triples)] for i in range(6)]
        batch = extract_subgraphs_many(graph, targets, 2)
        for target, sub in zip(targets, batch):
            assert_identical(sub, legacy_extract_enclosing_subgraph(graph, target, 2))


class TestEquivalenceEdgeCases:
    def test_self_loop_target(self):
        g = KnowledgeGraph.from_triples([(0, 0, 0), (0, 1, 1), (1, 0, 0)])
        assert_matches_oracle(g, (0, 0, 0), 2)

    def test_self_loop_in_context(self):
        g = KnowledgeGraph.from_triples([(0, 0, 1), (1, 1, 1), (1, 0, 2), (0, 2, 2)])
        assert_matches_oracle(g, (0, 2, 2), 2)

    def test_empty_enclosing_subgraph(self):
        g = KnowledgeGraph.from_triples([(0, 0, 1), (2, 0, 3)])
        assert_matches_oracle(g, (0, 0, 3), 2)
        assert extract_enclosing_subgraph(g, (0, 0, 3), 2).is_empty

    def test_single_edge_graph_target_removed(self):
        g = KnowledgeGraph.from_triples([(0, 0, 1)])
        assert_matches_oracle(g, (0, 0, 1), 2)

    def test_k_equals_one(self):
        g = KnowledgeGraph.from_triples([(0, 0, 1), (1, 0, 2), (0, 0, 3), (3, 1, 2)])
        for target in [(0, 0, 1), (0, 1, 2), (2, 0, 0)]:
            assert_matches_oracle(g, target, 1)

    def test_non_fact_target(self):
        g = KnowledgeGraph.from_triples([(0, 0, 1), (1, 1, 2), (2, 0, 3)])
        assert_matches_oracle(g, (0, 3, 3), 2)


def sparse_multicomponent_graph(seed: int) -> KnowledgeGraph:
    """A few small components with about one edge per entity (some
    entities isolated, an occasional self-loop)."""
    rng = np.random.default_rng(seed)
    num_entities = int(rng.integers(6, 30))
    num_relations = int(rng.integers(1, 4))
    component = rng.integers(int(rng.integers(2, 5)), size=num_entities)
    triples = []
    for _ in range(int(rng.integers(1, num_entities + 1))):
        head = int(rng.integers(num_entities))
        peers = np.flatnonzero(component == component[head])
        tail = int(rng.choice(peers))
        if tail == head and rng.random() > 0.2:
            continue
        triples.append((head, int(rng.integers(num_relations)), tail))
    return KnowledgeGraph(TripleSet(triples), num_entities, num_relations)


def assert_batch_matches_oracle(graph, targets, hops):
    batch = extract_subgraphs_many(graph, targets, hops)
    assert len(batch) == len(targets)
    for target, sub in zip(targets, batch):
        assert_identical(sub, legacy_extract_enclosing_subgraph(graph, target, hops))


@pytest.fixture
def forbid_full_extraction(monkeypatch):
    """Fail if any target reaches edge induction (the full path)."""

    def refuse(graph, head, relation, tail, *args):
        raise AssertionError(f"({head}, {relation}, {tail}) took the full path")

    monkeypatch.setattr(extraction, "_extract_one_vectorized", refuse)


class TestEarlyEmptyDecision:
    @given(seed=st.integers(0, 1000), hops=st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_sparse_multicomponent_graphs_match_oracle(self, seed, hops):
        graph = sparse_multicomponent_graph(seed)
        rng = np.random.default_rng(seed + 7)
        n = graph.num_entities
        anchor = int(rng.integers(n))
        relation = int(rng.integers(graph.num_relations))
        # A ranking query's candidates (shared head, then shared tail), a
        # batch of unrelated pairs, and the graph's own facts.
        tails = [(anchor, relation, int(e)) for e in rng.integers(n, size=8)]
        heads = [(int(e), relation, anchor) for e in rng.integers(n, size=8)]
        pairs = [
            (int(rng.integers(n)), relation, int(rng.integers(n))) for _ in range(8)
        ]
        facts = list(graph.triples)[:8]
        for targets in (tails, heads, pairs, facts + tails):
            assert_batch_matches_oracle(graph, targets, hops)

    def test_disjoint_frontiers_skip_edge_induction(self, forbid_full_extraction):
        g = KnowledgeGraph.from_triples([(0, 0, 1), (1, 1, 2), (3, 0, 4)])
        targets = [(0, 0, 3), (0, 1, 4), (3, 2, 0)]
        subgraphs = extract_subgraphs_many(g, targets, 2)
        assert all(sub.is_empty for sub in subgraphs)
        assert [sub.entities for sub in subgraphs] == [(0, 3), (0, 4), (0, 3)]

    @pytest.mark.parametrize("target", [(0, 1, 3), (3, 1, 0)])
    def test_self_loop_on_either_target_keeps_its_edge(self, target):
        # The frontiers of 0 and 3 are disjoint, but 0's self-loop lies in
        # the node universe {0, 3} and survives.
        g = KnowledgeGraph.from_triples([(0, 0, 0), (0, 1, 1), (3, 0, 4)])
        sub = extract_subgraphs_many(g, [target], 2)[0]
        assert not sub.is_empty
        assert list(sub.triples) == [(0, 0, 0)]
        assert_batch_matches_oracle(g, [target], 2)

    def test_same_entity_target(self):
        g = KnowledgeGraph.from_triples([(0, 0, 1)], num_entities=3)
        assert_batch_matches_oracle(g, [(0, 1, 0), (2, 0, 2)], 2)
        isolated = extract_subgraphs_many(g, [(2, 0, 2)], 2)[0]
        assert isolated.is_empty and isolated.entities == (2,)

    def test_adjacent_targets(self):
        g = KnowledgeGraph.from_triples([(0, 1, 1), (2, 0, 3)])
        # Another relation between u and v survives; the lone target edge
        # itself is removed and leaves an empty subgraph.
        kept, removed = extract_subgraphs_many(g, [(0, 0, 1), (0, 1, 1)], 1)
        assert list(kept.triples) == [(0, 1, 1)]
        assert removed.is_empty
        assert_batch_matches_oracle(g, [(0, 0, 1), (0, 1, 1), (1, 0, 0)], 1)

    def test_duplicate_target_copies(self):
        # Every copy of the target edge is removed; duplicate targets in one
        # batch each get their own subgraph.
        g = KnowledgeGraph(TripleSet([(0, 0, 1), (0, 0, 1), (2, 0, 3)]), 4, 1)
        targets = [(0, 0, 1), (0, 0, 3), (0, 0, 1), (0, 0, 3)]
        subgraphs = extract_subgraphs_many(g, targets, 2)
        assert [sub.is_empty for sub in subgraphs] == [True] * 4
        assert_batch_matches_oracle(g, targets, 2)

    def test_zero_hops_counterexample(self):
        # At K = 0 the frontiers {0} and {1} are disjoint, yet the edge
        # (0, 1, 1) lies in the node universe {0, 1} and survives.
        g = KnowledgeGraph.from_triples([(0, 0, 1), (0, 1, 1)])
        sub = extract_subgraphs_many(g, [(0, 0, 1)], 0)[0]
        assert list(sub.triples) == [(0, 1, 1)]
        assert_batch_matches_oracle(g, [(0, 0, 1)], 0)


class TestDisclosingIsolationPrune:
    """Satellite bugfix: disclosing entity sets never contain isolated
    non-target nodes, and distance maps stay consistent with the kept set."""

    @given(seed=st.integers(0, 300), hops=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_every_entity_touches_an_edge_or_is_target(self, seed, hops):
        graph = random_graph(seed)
        if len(graph.triples) == 0:
            return
        target = graph.triples[seed % len(graph.triples)]
        sub = extract_disclosing_subgraph(graph, target, hops)
        touched = set()
        for h, _r, t in sub.triples:
            touched.add(h)
            touched.add(t)
        for entity in sub.entities:
            assert entity in touched or entity in (sub.head, sub.tail)
        assert set(sub.distances_u) <= set(sub.entities)
        assert set(sub.distances_v) <= set(sub.entities)

    def test_targets_survive_total_isolation(self):
        # The only edge is the target itself: everything is pruned except
        # the target pair.
        g = KnowledgeGraph.from_triples([(0, 0, 1)])
        sub = extract_disclosing_subgraph(g, (0, 0, 1), 2)
        assert sub.entities == (0, 1)
        assert sub.is_empty
        assert sub.distances_u == {0: 0}
        assert sub.distances_v == {1: 0}


class TestNeighborhoodCache:
    def test_frontiers_are_cached_and_shared(self):
        g = KnowledgeGraph.from_triples([(0, 0, 1), (1, 0, 2), (2, 1, 3)])
        candidates = [(0, 0, t) for t in (1, 2, 3)]  # all share head 0
        extract_subgraphs_many(g, candidates, 2)
        # Head frontier computed once, hit twice afterwards.
        assert g.neighborhood_cache.hits >= 2
        first = g.khop_nodes(0, 2)
        hits_before = g.neighborhood_cache.hits
        second = g.khop_nodes(0, 2)
        assert second is first  # same cached array
        assert g.neighborhood_cache.hits == hits_before + 1
        assert not second.flags.writeable

    def test_lru_bound_respected(self):
        cache = NeighborhoodCache(maxsize=2)
        cache.put((0, 2), np.asarray([0]))
        cache.put((1, 2), np.asarray([1]))
        cache.put((2, 2), np.asarray([2]))
        assert len(cache) == 2
        assert cache.get((0, 2)) is None  # evicted (least recently used)
        assert cache.get((2, 2)) is not None

    def test_zero_size_disables_caching(self):
        g = KnowledgeGraph(
            TripleSet([(0, 0, 1)]), 2, 1, neighborhood_cache_size=0
        )
        g.khop_nodes(0, 2)
        g.khop_nodes(0, 2)
        assert len(g.neighborhood_cache) == 0
        assert g.neighborhood_cache.hits == 0

    def test_cached_results_equal_fresh_results(self):
        g = KnowledgeGraph.from_triples([(0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 2, 0)])
        target = (0, 0, 2)
        first = extract_enclosing_subgraph(g, target, 2)
        second = extract_enclosing_subgraph(g, target, 2)  # served from cache
        assert_identical(first, second)
