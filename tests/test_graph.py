"""KnowledgeGraph tests: adjacency, K-hop BFS, induced subgraphs."""

import numpy as np
import pytest

from repro.kg import KnowledgeGraph, TripleSet


@pytest.fixture
def chain_graph():
    """0 -r0-> 1 -r0-> 2 -r1-> 3 -r1-> 4"""
    return KnowledgeGraph.from_triples(
        [(0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 1, 4)]
    )


class TestConstruction:
    def test_from_triples_infers_sizes(self, chain_graph):
        assert chain_graph.num_entities == 5
        assert chain_graph.num_relations == 2

    def test_explicit_sizes_validated(self):
        with pytest.raises(ValueError):
            KnowledgeGraph(TripleSet([(0, 0, 5)]), num_entities=3, num_relations=1)
        with pytest.raises(ValueError):
            KnowledgeGraph(TripleSet([(0, 4, 1)]), num_entities=3, num_relations=1)

    def test_id_space_may_exceed_data(self):
        g = KnowledgeGraph(TripleSet([(0, 0, 1)]), num_entities=100, num_relations=50)
        assert g.degree(99) == 0

    def test_empty_graph(self):
        g = KnowledgeGraph.from_triples([])
        assert len(g) == 0
        assert g.num_entities == 0


class TestAdjacency:
    def test_incident_edges(self, chain_graph):
        assert chain_graph.incident_edges(2) == [1, 2]
        assert chain_graph.degree(0) == 1

    def test_self_loop_counted_once(self):
        g = KnowledgeGraph.from_triples([(0, 0, 0)])
        assert g.degree(0) == 1

    def test_edge_accessor(self, chain_graph):
        assert chain_graph.edge(2) == (2, 1, 3)

    def test_relations_of(self, chain_graph):
        assert chain_graph.relations_of(2) == {0, 1}

    def test_incident_edge_id_arrays_concatenates_rows(self):
        g = KnowledgeGraph.from_triples(
            [(0, 0, 1), (1, 1, 1), (2, 0, 1), (0, 1, 1), (1, 0, 0)]
        )
        entities = [1, 0, 1, 2]
        edge_ids, counts = g.incident_edge_id_arrays(entities)
        expected = [e for entity in entities for e in g.incident_edges(entity)]
        assert edge_ids.tolist() == expected
        assert counts.tolist() == [g.degree(entity) for entity in entities]
        assert edge_ids.dtype == counts.dtype == np.int64

    def test_incident_edge_id_arrays_empty_and_invalid(self, chain_graph):
        edge_ids, counts = chain_graph.incident_edge_id_arrays([])
        assert edge_ids.size == 0 and counts.size == 0
        for entities, first_bad in (([0, 5, -1], 5), ([-1, 5], -1)):
            with pytest.raises(ValueError) as caught:
                chain_graph.incident_edge_id_arrays(entities)
            with pytest.raises(ValueError) as reference:
                chain_graph.incident_edges(first_bad)
            assert str(caught.value) == str(reference.value)

    def test_entity_pair_relations(self):
        g = KnowledgeGraph.from_triples([(0, 0, 1), (0, 1, 1), (1, 0, 0)])
        assert g.entity_pair_relations(0, 1) == {0, 1}
        assert g.entity_pair_relations(1, 0) == {0}


class TestKHop:
    def test_distances_undirected(self, chain_graph):
        d = chain_graph.khop_distances(0, 10)
        assert d == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_max_hops_limits(self, chain_graph):
        d = chain_graph.khop_distances(0, 2)
        assert set(d) == {0, 1, 2}

    def test_forbidden_blocks_paths_through(self, chain_graph):
        # Forbid 2: nodes beyond 2 are unreachable from 0, though 2 itself
        # is still *reported* (entered but not expanded).
        d = chain_graph.khop_distances(0, 10, forbidden={2})
        assert 3 not in d and 4 not in d
        assert d[2] == 2

    def test_khop_neighbors_includes_source(self, chain_graph):
        assert 0 in chain_graph.khop_neighbors(0, 1)


class TestEntityIdValidation:
    """incident_edges and induced_edge_indices reject out-of-range ids
    consistently (negative ids used to crash obscurely / oversized ids were
    silently skipped)."""

    def test_incident_edges_negative_id(self, chain_graph):
        with pytest.raises(ValueError, match="out of range"):
            chain_graph.incident_edges(-1)

    def test_incident_edges_oversized_id(self, chain_graph):
        with pytest.raises(ValueError, match="out of range"):
            chain_graph.incident_edges(5)

    def test_induced_negative_id(self, chain_graph):
        with pytest.raises(ValueError, match="out of range"):
            chain_graph.induced_edge_indices({0, -3})

    def test_induced_oversized_id(self, chain_graph):
        with pytest.raises(ValueError, match="out of range"):
            chain_graph.induced_edge_indices({0, 1, 99})

    def test_degree_and_khop_validate_too(self, chain_graph):
        with pytest.raises(ValueError, match="out of range"):
            chain_graph.degree(-2)
        with pytest.raises(ValueError, match="out of range"):
            chain_graph.khop_distances(17, 2)

    def test_empty_entity_set_is_fine(self, chain_graph):
        assert chain_graph.induced_edge_indices(set()) == []


class TestInducedSubgraph:
    def test_only_internal_edges(self, chain_graph):
        triples = chain_graph.induced_subgraph_triples({0, 1, 2})
        assert triples == TripleSet([(0, 0, 1), (1, 0, 2)])

    def test_empty_for_disconnected_set(self, chain_graph):
        assert len(chain_graph.induced_subgraph_triples({0, 4})) == 0

    def test_edge_indices_sorted_unique(self, chain_graph):
        idx = chain_graph.induced_edge_indices({1, 2, 3})
        assert idx == sorted(set(idx))

    def test_statistics(self, chain_graph):
        stats = chain_graph.statistics()
        assert stats == {"relations": 2, "entities": 5, "triples": 4}
